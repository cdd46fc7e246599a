package sepdc

import (
	"bytes"
	"testing"
)

func TestGraphEncodeDecodeRoundTrip(t *testing.T) {
	points := genPoints(500, 3, 41)
	g, err := BuildKNNGraph(points, 3, &Options{Algorithm: KDTree})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, got) {
		t.Fatal("round trip changed the graph")
	}
	if got.K() != g.K() || got.NumPoints() != g.NumPoints() {
		t.Error("metadata lost")
	}
	// Every point's k-NN list, as Neighbors returns it, must round trip too.
	for i := 0; i < g.NumPoints(); i++ {
		a, b := g.Neighbors(i), got.Neighbors(i)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: list lengths differ", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("vertex %d neighbor %d differs: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestGraphEncodeDeterministic(t *testing.T) {
	points := genPoints(200, 2, 42)
	g, err := BuildKNNGraph(points, 2, &Options{Algorithm: Brute})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := g.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("encoding is not deterministic")
	}
}

func TestDecodeGraphRejectsCorruption(t *testing.T) {
	if _, err := DecodeGraph(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage accepted")
	}
	points := genPoints(50, 2, 43)
	g, err := BuildKNNGraph(points, 2, &Options{Algorithm: Brute})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncation must be rejected, not crash.
	raw := buf.Bytes()
	if _, err := DecodeGraph(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("truncated stream accepted")
	}
}
