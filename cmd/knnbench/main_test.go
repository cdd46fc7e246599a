package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sepdc/internal/benchfile"
)

// fixtureReport is a small BENCH_knn.json in the current shape: an old
// build section and a query section, kernels, journal and serve. The
// strings carry an escaped em dash and a "<=" so a re-encoding that
// normalizes escapes or HTML-escapes would show.
const fixtureReport = `{
  "perfbench": {
    "build": {
      "commit": "ffffffffffffffffffffffffffffffffffffffff",
      "metrics": {}
    },
    "query": {
      "commit": "ffffffffffffffffffffffffffffffffffffffff",
      "protocol": "old \u2014 <=5 runs",
      "metrics": {
        "setup_s": {
          "median": 0.44,
          "runs": 5,
          "unit": "s"
        }
      }
    }
  },
  "kernels": {
    "commit": "ffffffffffffffffffffffffffffffffffffffff",
    "rows": [
      {
        "d": 2,
        "generic_ns_per_dist": 5.068760871887207
      }
    ]
  },
  "journal": {
    "commit": "ffffffffffffffffffffffffffffffffffffffff",
    "drained_drop_rate": 0.9655172413793104
  },
  "serve": {
    "commit": "ffffffffffffffffffffffffffffffffffffffff",
    "protocol": "open loop \u2014 p99 <=5 ms",
    "golden_checked": true,
    "shapes": [
      {
        "shape": "uniform",
        "p50_us": 250,
        "hist": []
      }
    ]
  }
}
`

// sections parses a report file into its raw top-level sections, byte
// for byte as they appear in the file, with the perfbench workloads
// under "perfbench/<workload>".
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
	if pb, ok := doc["perfbench"]; ok {
		workloads := map[string]json.RawMessage{}
		if err := json.Unmarshal(pb, &workloads); err != nil {
			t.Fatal(err)
		}
		delete(doc, "perfbench")
		for name, sec := range workloads {
			doc["perfbench/"+name] = sec
		}
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

// fixtureRuns returns the testdata captures: five untraced build runs
// (seeds 1-5) and one traced run. edit, if not nil, rewrites each
// capture's text before it is parsed.
func fixtureRuns(t *testing.T, edit func(file, text string) string) ([]*capture, error) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "build-*.txt"))
	if err != nil || len(files) != 6 {
		t.Fatalf("fixture captures: %v, %v", files, err)
	}
	dir := t.TempDir()
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		if edit != nil {
			text = edit(filepath.Base(f), text)
		}
		files[i] = filepath.Join(dir, filepath.Base(f))
		if err := os.WriteFile(files[i], []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return readCaptures(files)
}

// TestIngestSummarizesRuns checks the build section made from the
// fixture: nearest-rank median and quartiles over the untraced runs,
// the traced run's per-layer metrics, and the header.
func TestIngestSummarizesRuns(t *testing.T) {
	runs, err := fixtureRuns(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchfile.Report
	if err := ingest(&rep, runs, "2026-01-02T03:04:05Z"); err != nil {
		t.Fatal(err)
	}
	var w Workload
	if err := json.Unmarshal(rep.Perfbench["build"], &w); err != nil {
		t.Fatal(err)
	}
	want := map[string]Stat{
		// setup_s over seeds 1..5 is 1.5, 1.1, 1.3, 1.2, 1.4.
		"setup_s":     {Median: 1.3, Q1: 1.2, Q3: 1.4, Runs: 5, Unit: "s"},
		"p50_ms":      {Median: 870, Q1: 860, Q3: 880, Runs: 5, Unit: "ms"},
		"peak_rss_mb": {Median: 68, Q1: 67, Q3: 69, Runs: 5, Unit: "MB"},
		// Per-layer metrics come from the one traced run.
		"core.divide_ms":         {Median: 310.5, Q1: 310.5, Q3: 310.5, Runs: 1, Unit: "ms"},
		"separator.trials":       {Median: 41, Q1: 41, Q3: 41, Runs: 1, Unit: "count"},
		"trace.p50_overhead_pct": {Median: 3.2, Q1: 3.2, Q3: 3.2, Runs: 1, Unit: "%"},
	}
	if len(w.Metrics) != len(want) {
		t.Errorf("metrics %v, want %d of them", w.Metrics, len(want))
	}
	for name, s := range want {
		if w.Metrics[name] != s {
			t.Errorf("%s = %+v, want %+v", name, w.Metrics[name], s)
		}
	}
	if w.Attempted != 5*22+12 || w.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 122 and 1", w.Attempted, w.Failed)
	}
	h := w.Header
	if h.Commit != "0123456789abcdef0123456789abcdef01234567" || h.Dirty || h.Generated != "2026-01-02T03:04:05Z" {
		t.Errorf("header %+v", h)
	}
	if h.Host.NumCPU != 2 || h.Host.GOMAXPROCS != 2 || h.Host.KernelTier != "asm" || h.Host.GoVersion != "go1.24.0" {
		t.Errorf("host %+v", h.Host)
	}
	if !strings.Contains(h.Protocol, "seeds 1,2,3,4,5") || !strings.Contains(h.Protocol, "--seconds 20") {
		t.Errorf("protocol %q does not name the seeds and duration", h.Protocol)
	}
}

// TestIngestRefusesBadInput: a wrong answer, a second commit, or a
// second traced run stops the ingest.
func TestIngestRefusesBadInput(t *testing.T) {
	cases := map[string]func(file, text string) string{
		"wrong answer": func(file, text string) string {
			if file != "build-3.txt" {
				return text
			}
			return strings.Replace(text, `"correct":true`, `"correct":false`, 1)
		},
		"mixed commits": func(file, text string) string {
			if file != "build-traced.txt" {
				return text
			}
			return strings.Replace(text, "commit=0123456789", "commit=9876543210", 1)
		},
		"two traced runs": func(file, text string) string {
			if file != "build-5.txt" {
				return text
			}
			return strings.Replace(text, "trace=false", "trace=true", 1)
		},
	}
	for name, edit := range cases {
		runs, err := fixtureRuns(t, edit)
		if err == nil {
			err = ingest(&benchfile.Report{}, runs, "2026-01-02T03:04:05Z")
		}
		if err == nil {
			t.Errorf("%s: ingest accepted the runs", name)
		}
	}
}

// TestRegenerateKeepsUnmeasuredSections ingests the fixture runs into a
// record and checks that the build section is replaced while every
// other section, the other workload's included, survives byte for byte.
func TestRegenerateKeepsUnmeasuredSections(t *testing.T) {
	path := writeFixture(t)
	before := sections(t, path)
	runs, err := fixtureRuns(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = benchfile.Update(path, func(rep *benchfile.Report) error {
		return ingest(rep, runs, "2026-01-02T03:04:05Z")
	})
	if err != nil {
		t.Fatal(err)
	}
	after := sections(t, path)
	if len(after) != len(before) {
		t.Fatalf("section count %d -> %d", len(before), len(after))
	}
	for key := range before {
		if changed := !bytes.Equal(before[key], after[key]); changed != (key == "perfbench/build") {
			t.Errorf("section %q changed = %v:\nbefore %s\nafter  %s", key, changed, before[key], after[key])
		}
	}
}

// TestOnlyKernelsKeepsOtherSections records a real kernel measurement
// and checks it replaces the kernels section alone, with one row per
// dimension 2..8 and no retired column.
func TestOnlyKernelsKeepsOtherSections(t *testing.T) {
	path := writeFixture(t)
	before := sections(t, path)
	err := benchfile.Update(path, func(rep *benchfile.Report) error {
		var err error
		rep.Kernels, err = json.Marshal(&Kernels{Rows: runKernelBench()})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	after := sections(t, path)
	for key := range before {
		if changed := !bytes.Equal(before[key], after[key]); changed != (key == "kernels") {
			t.Errorf("section %q changed = %v", key, changed)
		}
	}
	var k Kernels
	if err := json.Unmarshal(after["kernels"], &k); err != nil {
		t.Fatal(err)
	}
	if len(k.Rows) != 7 || k.Rows[0].D != 2 || k.Rows[6].D != 8 {
		t.Errorf("kernel rows %+v, want d = 2..8", k.Rows)
	}
	if bytes.Contains(after["kernels"], []byte("asm_batch8")) {
		t.Errorf("kernels kept the retired asm_batch8 column: %s", after["kernels"])
	}
}
