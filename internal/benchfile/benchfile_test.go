package benchfile

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// committed copies the repository's BENCH_knn.json into a temp dir and
// returns the copy's path and bytes.
func committed(t *testing.T) (string, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_knn.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_knn.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func sections(t *testing.T, raw []byte) map[string]json.RawMessage {
	t.Helper()
	doc := map[string]json.RawMessage{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestNoOpUpdateKeepsBytes: reading and rewriting the committed record
// without measuring anything reproduces it byte for byte.
func TestNoOpUpdateKeepsBytes(t *testing.T) {
	path, before := committed(t)
	if err := Update(path, func(*Report) error { return nil }); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("no-op update changed the record: %d -> %d bytes", len(before), len(after))
	}
}

// TestServeOnlyUpdateKeepsOtherSections: a serve-only merge (what
// knnload -bench does) replaces the serve section and leaves every other
// section byte-identical.
func TestServeOnlyUpdateKeepsOtherSections(t *testing.T) {
	path, raw := committed(t)
	before := sections(t, raw)
	err := Update(path, func(rep *Report) error {
		var err error
		rep.Serve, err = json.Marshal(map[string]any{"note": "open loop", "shapes": []int{1, 2}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	after := sections(t, out)
	if len(after) != len(before) {
		t.Fatalf("section count %d -> %d", len(before), len(after))
	}
	for key := range before {
		if key == "serve" {
			if bytes.Equal(before[key], after[key]) {
				t.Error("serve section was not replaced")
			}
			continue
		}
		if !bytes.Equal(before[key], after[key]) {
			t.Errorf("serve-only merge changed %q", key)
		}
	}
}

// TestCommittedRecordSchema checks the committed record's shape: only
// the sections Report knows, and every section opening with a header
// that names a full commit, an RFC 3339 time, a host and a protocol. A
// row or host whose procs or gomaxprocs exceed the host's CPU count
// measures oversubscription and must say so with "oversubscription":
// true.
func TestCommittedRecordSchema(t *testing.T) {
	_, raw := committed(t)
	doc := sections(t, raw)
	known := map[string]bool{"perfbench": true, "kernels": true, "journal": true, "serve": true}
	all := map[string]json.RawMessage{}
	for key, sec := range doc {
		if !known[key] {
			t.Errorf("unknown top-level key %q", key)
			continue
		}
		if key != "perfbench" {
			all[key] = sec
			continue
		}
		for name, w := range sections(t, sec) {
			all["perfbench/"+name] = w
		}
	}
	hex40 := regexp.MustCompile(`^[0-9a-f]{40}$`)
	for name, sec := range all {
		var h struct {
			Header
			Dirty *bool `json:"dirty"`
		}
		if err := json.Unmarshal(sec, &h); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !hex40.MatchString(h.Commit) {
			t.Errorf("%s: commit %q is not 40 hex digits", name, h.Commit)
		}
		if h.Dirty == nil {
			t.Errorf("%s: no dirty flag", name)
		}
		if _, err := time.Parse(time.RFC3339, h.Generated); err != nil {
			t.Errorf("%s: generated: %v", name, err)
		}
		if h.Host.GoVersion == "" || h.Host.NumCPU < 1 || h.Host.GOMAXPROCS < 1 {
			t.Errorf("%s: incomplete host %+v", name, h.Host)
		}
		if h.Protocol == "" {
			t.Errorf("%s: no protocol", name)
		}
		var tree any
		if err := json.Unmarshal(sec, &tree); err != nil {
			t.Fatal(err)
		}
		checkProcs(t, name, tree, h.Host.NumCPU)
	}
}

// checkProcs walks a section and reports every object whose procs or
// gomaxprocs exceed numCPU without an oversubscription label.
func checkProcs(t *testing.T, name string, v any, numCPU int) {
	switch v := v.(type) {
	case map[string]any:
		for _, key := range []string{"procs", "gomaxprocs"} {
			if p, ok := v[key].(float64); ok && p > float64(numCPU) && v["oversubscription"] != true {
				t.Errorf("%s: %s = %v > num_cpu = %d without \"oversubscription\": true", name, key, p, numCPU)
			}
		}
		for _, child := range v {
			checkProcs(t, name, child, numCPU)
		}
	case []any:
		for _, child := range v {
			checkProcs(t, name, child, numCPU)
		}
	}
}
