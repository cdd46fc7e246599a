package pts

import (
	"math"
	"testing"

	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

func randomSlices(n, d int, g *xrand.RNG) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, d)
		for j := range row {
			row[j] = g.Float64()*2 - 1
		}
		out[i] = row
	}
	return out
}

func TestFromSlicesRoundTrip(t *testing.T) {
	g := xrand.New(1)
	rows := randomSlices(37, 3, g)
	ps, err := FromSlices(rows)
	if err != nil {
		t.Fatal(err)
	}
	if ps.N() != 37 || ps.Dim != 3 {
		t.Fatalf("shape %d×%d, want 37×3", ps.N(), ps.Dim)
	}
	for i, row := range rows {
		if !vec.Equal(ps.At(i), vec.Vec(row)) {
			t.Fatalf("point %d: %v != %v", i, ps.At(i), row)
		}
	}
	// Views alias the backing array.
	ps.At(5)[1] = 99
	if ps.Data[5*3+1] != 99 {
		t.Fatal("At must return a view, not a copy")
	}
}

func TestFromSlicesValidation(t *testing.T) {
	if _, err := FromSlices(nil); err == nil {
		t.Error("empty input must error")
	}
	if _, err := FromSlices([][]float64{{}}); err == nil {
		t.Error("zero-dimensional input must error")
	}
	if _, err := FromSlices([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("mixed dimensions must error")
	}
	if _, err := FromSlices([][]float64{{1, math.NaN()}}); err == nil {
		t.Error("NaN coordinate must error")
	}
	if _, err := FromSlices([][]float64{{math.Inf(1), 0}}); err == nil {
		t.Error("Inf coordinate must error")
	}
}

func TestDist2MatchesVec(t *testing.T) {
	g := xrand.New(2)
	rows := randomSlices(50, 4, g)
	ps, _ := FromSlices(rows)
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			want := vec.Dist2(vec.Vec(rows[i]), vec.Vec(rows[j]))
			if got := ps.Dist2(i, j); got != want {
				t.Fatalf("Dist2(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestGatherInto(t *testing.T) {
	g := xrand.New(3)
	ps, _ := FromSlices(randomSlices(20, 2, g))
	idx := []int{7, 0, 19, 3, 3}
	scratch := make([]float64, len(idx)*2)
	ps.GatherInto(scratch, idx)
	for i, j := range idx {
		if !vec.Equal(scratch[i*2:(i+1)*2], ps.At(j)) {
			t.Fatalf("gathered point %d != source point %d", i, j)
		}
	}
}

func TestViewAndClone(t *testing.T) {
	ps, _ := FromSlices([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	c := ps.Clone()
	c.Data[0] = -1
	if ps.Data[0] == -1 {
		t.Fatal("clone must not alias")
	}
}

func TestCentroidMatchesVec(t *testing.T) {
	g := xrand.New(4)
	rows := randomSlices(33, 3, g)
	ps, _ := FromSlices(rows)
	vv := make([]vec.Vec, len(rows))
	for i, r := range rows {
		vv[i] = vec.Vec(r)
	}
	want := vec.Centroid(vv)
	got := make([]float64, 3)
	ps.Centroid(got)
	if !vec.Equal(vec.Vec(got), want) {
		t.Fatalf("centroid %v, want %v (must be bit-identical)", got, want)
	}
}
