package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestStatszSchemaGolden pins the /statsz JSON schema — every field
// name and JSON type — against
// testdata/statsz_schema.golden. Serving dashboards parse this document
// by name; a renamed or retyped field is a breaking change and must
// show up as a reviewed golden diff (go test ./internal/obs -update).
// Counter VALUES are free to vary; only the shape is pinned.
func TestStatszSchemaGolden(t *testing.T) {
	// Populate one of everything the document can hold: a serve
	// recorder with sampled traffic (histograms, window quantiles, tail
	// samples with paths) and both labeled and unlabeled gauges.
	rec := NewServeRecorder(ServeConfig{SampleEvery: 1}, 1)
	s := rec.Strand(0)
	path := []int32{0, 3, 9}
	for i := 0; i < 8; i++ {
		feed(s, TailSample{DescentNs: int64(1000 + i*300), ScanNs: int64(400 + i*100),
			Nodes: 5 + i, Scanned: 11 + i, Reported: i % 3}, path, true)
	}
	Serves.Register("statsz-golden", rec)
	defer Serves.Unregister("statsz-golden", rec)
	SetGauge(GaugeKey{Name: "statsz_golden_plain"}, "", 1.5)
	SetGauge(GaugeKey{Name: "statsz_golden_labeled", LabelName: "objective", LabelValue: "x"}, "", 2)
	SetInfo("statsz_golden_info", "x")

	var buf bytes.Buffer
	if err := WriteStatsz(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("statsz is not valid JSON: %v", err)
	}

	// Canonicalize the parts other tests in this package can perturb:
	// keep only this test's serve registration and gauges, under stable
	// keys.
	if serves, ok := doc["serves"].(map[string]any); ok {
		mine, ok := serves["statsz-golden"]
		if !ok {
			t.Fatal("registered serve missing from statsz")
		}
		doc["serves"] = map[string]any{"<name>": mine}
	} else {
		t.Fatal("statsz has no serves section")
	}
	if info, ok := doc["info"].(map[string]any); ok {
		mine, ok := info["statsz_golden_info"]
		if !ok {
			t.Fatal("registered info key missing from statsz")
		}
		doc["info"] = map[string]any{"<key>": mine}
	} else {
		t.Fatal("statsz has no info section")
	}
	gauges, _ := doc["gauges"].([]any)
	var keep []any
	for _, g := range gauges {
		if m, ok := g.(map[string]any); ok {
			if name, _ := m["name"].(string); strings.HasPrefix(name, "statsz_golden_") {
				m["name"] = "<name>"
				keep = append(keep, m)
			}
		}
	}
	if len(keep) != 2 {
		t.Fatalf("want the 2 test gauges in statsz, got %d", len(keep))
	}
	doc["gauges"] = keep

	lines := map[string]bool{}
	schemaOf("", doc, lines)
	fp := make([]string, 0, len(lines))
	for l := range lines {
		fp = append(fp, l)
	}
	sort.Strings(fp)
	got := strings.Join(fp, "\n") + "\n"

	golden := filepath.Join("testdata", "statsz_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("/statsz schema drifted from golden (reviewed rename? run with -update):\n--- got\n%s--- want\n%s", got, want)
	}
}

// schemaOf records "path<TAB>jsontype" lines for every field reachable
// from v. Array elements share the parent's "[]" path, so homogeneous
// arrays (buckets, tail samples) collapse to one line set while
// heterogeneous elements (gauges with and without labels) union theirs.
func schemaOf(path string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		out[path+"\tobject"] = true
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if path != "" {
				p = path + "." + k
			}
			schemaOf(p, x[k], out)
		}
	case []any:
		out[path+"\tarray"] = true
		for _, e := range x {
			schemaOf(path+"[]", e, out)
		}
	case string:
		out[path+"\tstring"] = true
	case float64:
		out[path+"\tnumber"] = true
	case bool:
		out[path+"\tbool"] = true
	case nil:
		out[path+"\tnull"] = true
	default:
		out[path+"\t"+fmt.Sprintf("%T", v)] = true
	}
}

// TestWriteStatszPropagatesWriteError: a sink that fails mid-document
// must surface the error — dashboards must never mistake a truncated
// /statsz for a complete one.
func TestWriteStatszPropagatesWriteError(t *testing.T) {
	var probe bytes.Buffer
	if err := WriteStatsz(&probe); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < probe.Len(); n += 64 {
		if err := WriteStatsz(&shortWriter{n: n}); err == nil {
			t.Fatalf("writer failing after %d bytes: no error (doc is %d bytes)", n, probe.Len())
		}
	}
	if err := WriteStatsz(&shortWriter{n: probe.Len() + 1024}); err != nil {
		t.Fatalf("roomy writer errored: %v", err)
	}
}
