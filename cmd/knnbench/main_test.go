package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sepdc/internal/benchfile"
)

// fixtureReport is a small BENCH_knn.json holding the two sections
// knnbench never measures: serve (written by knnload) and the retired
// layout. The note strings carry an escaped em dash and a "<=" so a
// re-encoding that normalizes escapes or HTML-escapes would show.
const fixtureReport = `{
  "generated": "2026-01-01T00:00:00Z",
  "go_version": "go1.0",
  "gomaxprocs": 1,
  "env": {
    "go_version": "go1.0",
    "gomaxprocs": 1,
    "num_cpu": 1,
    "goos": "linux",
    "goarch": "amd64"
  },
  "note": "fixture",
  "baseline": [],
  "results": [
    {
      "algorithm": "old",
      "procs": 1
    }
  ],
  "kernels": [
    {
      "d": 2,
      "asm_batch8_ns_per_dist": 1.1892156600952148
    }
  ],
  "layout": [
    {
      "d": 2,
      "block_width": 1,
      "ref_ns_per_query": 226,
      "speedup": 1.0518877959795219,
      "opt_descent_ns_mean": 160.02880859375
    },
    {
      "d": 8,
      "block_width": 16,
      "ref_ns_per_query": 9001,
      "speedup": 2.5
    }
  ],
  "serve": {
    "generated": "2026-01-01T00:00:00Z",
    "note": "open loop \u2014 p99 <=5 ms",
    "golden_checked": true,
    "shapes": [
      {
        "shape": "uniform",
        "p50_ms": 0.25,
        "hist": []
      }
    ]
  }
}
`

// sections parses a report file into its raw top-level sections, byte
// for byte as they appear in the file.
func sections(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]json.RawMessage{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return doc
}

func writeFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_knn.json")
	if err := os.WriteFile(path, []byte(fixtureReport), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRegenerateKeepsUnmeasuredSections runs a regeneration shaped like
// the full run (header, baseline, results, kernels re-measured) over a
// record holding serve and layout, and checks both survive
// byte-identical while the measured sections are replaced.
func TestRegenerateKeepsUnmeasuredSections(t *testing.T) {
	path := writeFixture(t)
	before := sections(t, path)
	err := benchfile.Update(path, false, func(rep *benchfile.Report) error {
		rep.Note = "regenerated"
		var err error
		if rep.Baseline, err = json.Marshal(baseline); err != nil {
			return err
		}
		if rep.Results, err = json.Marshal([]Result{{Algorithm: "sphere", Procs: 1}}); err != nil {
			return err
		}
		rep.Kernels, err = json.Marshal([]KernelResult{{D: 2, GenericNs: 5}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	after := sections(t, path)
	for _, key := range []string{"serve", "layout"} {
		if !bytes.Equal(before[key], after[key]) {
			t.Errorf("section %q changed:\nbefore %s\nafter  %s", key, before[key], after[key])
		}
	}
	for _, key := range []string{"note", "baseline", "results", "kernels"} {
		if bytes.Equal(before[key], after[key]) {
			t.Errorf("measured section %q was not replaced", key)
		}
	}
	if bytes.Contains(after["kernels"], []byte("asm_batch8")) {
		t.Errorf("re-measured kernels kept the retired asm_batch8 column: %s", after["kernels"])
	}
}

// TestOnlyKernelsKeepsOtherSections runs the real -only kernels mode on
// one dimension and checks it replaces the kernels section alone.
func TestOnlyKernelsKeepsOtherSections(t *testing.T) {
	path := writeFixture(t)
	before := sections(t, path)
	if err := remeasureKernels(path, []int{2}); err != nil {
		t.Fatal(err)
	}
	after := sections(t, path)
	if len(after) != len(before) {
		t.Fatalf("section count %d -> %d", len(before), len(after))
	}
	for key := range before {
		switch key {
		case "kernels", "env", "generated", "note":
			if bytes.Equal(before[key], after[key]) {
				t.Errorf("-only kernels did not refresh %q", key)
			}
		default:
			if !bytes.Equal(before[key], after[key]) {
				t.Errorf("-only kernels changed %q:\nbefore %s\nafter  %s", key, before[key], after[key])
			}
		}
	}
}

// TestOnlyModesNeedARecord checks the merge modes refuse to start from
// nothing rather than write a record holding one section.
func TestOnlyModesNeedARecord(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "absent.json")
	if err := remeasureKernels(missing, []int{2}); err == nil {
		t.Error("-only kernels over a missing file succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("-only kernels created %s", missing)
	}
}
