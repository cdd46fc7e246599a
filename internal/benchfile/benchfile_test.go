package benchfile

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
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
	if err := Update(path, true, func(*Report) error { return nil }); err != nil {
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
	err := Update(path, true, func(rep *Report) error {
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
