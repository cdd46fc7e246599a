package brute

import (
	"testing"

	"sepdc/internal/pointgen"
	"sepdc/internal/pts"
	"sepdc/internal/topk"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

func TestKNNSimple(t *testing.T) {
	pts := []vec.Vec{vec.Of(0, 0), vec.Of(1, 0), vec.Of(3, 0), vec.Of(10, 0)}
	l := KNN(pts, 0, 2)
	items := l.Items()
	if len(items) != 2 || items[0].Idx != 1 || items[1].Idx != 2 {
		t.Fatalf("KNN = %v", items)
	}
	if items[0].Dist2 != 1 || items[1].Dist2 != 9 {
		t.Errorf("distances = %v", items)
	}
}

func TestKNNExcludesSelf(t *testing.T) {
	pts := []vec.Vec{vec.Of(0), vec.Of(5)}
	l := KNN(pts, 0, 3)
	for _, nb := range l.Items() {
		if nb.Idx == 0 {
			t.Fatal("KNN returned the query point itself")
		}
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d, want 1 (only one other point)", l.Len())
	}
}

func TestAllKNNMatchesPerPoint(t *testing.T) {
	g := xrand.New(1)
	pts := pointgen.MustGenerate(pointgen.UniformCube, 60, 3, g)
	k := 4
	all := AllKNN(pts, k)
	for q := range pts {
		want := KNN(pts, q, k)
		if !topk.Equal(all[q], want) {
			t.Fatalf("point %d: AllKNN %v != KNN %v", q, all[q].Items(), want.Items())
		}
	}
}

// AllKNNInto over a subset's rows, reporting the subset's ids, equals
// brute force over the extracted subset with its indices remapped.
func TestAllKNNInto(t *testing.T) {
	g := xrand.New(2)
	pv := pointgen.MustGenerate(pointgen.Gaussian, 40, 2, g)
	idx := []int{3, 7, 11, 19, 23, 31}
	k := 2
	sub := make([]vec.Vec, len(idx))
	for i, j := range idx {
		sub[i] = pv[j]
	}
	lists := topk.NewArena(len(idx), k).Lists()
	AllKNNInto(pts.FromVecs(sub), idx, lists)
	ref := AllKNN(sub, k)
	for i := range idx {
		got := lists[i].Items()
		want := ref[i].Items()
		if len(got) != len(want) {
			t.Fatalf("point %d: lengths differ", i)
		}
		for j := range got {
			if got[j].Idx != idx[want[j].Idx] || got[j].Dist2 != want[j].Dist2 {
				t.Fatalf("point %d neighbor %d: got %v want remapped %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestPointsInBall(t *testing.T) {
	pts := []vec.Vec{vec.Of(0, 0), vec.Of(1, 0), vec.Of(2, 0), vec.Of(0, 3)}
	got := PointsInBall(pts, vec.Of(0, 0), 2, 0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("PointsInBall = %v", got)
	}
	// Closed ball: boundary point included.
	got = PointsInBall(pts, vec.Of(0, 0), 3, -1)
	if len(got) != 4 {
		t.Errorf("closed-ball membership failed: %v", got)
	}
}

func TestCountCoveringBalls(t *testing.T) {
	centers := []vec.Vec{vec.Of(0, 0), vec.Of(1, 0), vec.Of(5, 5)}
	radii := []float64{2, 2, 1}
	if got := CountCoveringBalls(centers, radii, vec.Of(0.5, 0)); got != 2 {
		t.Errorf("ply = %d, want 2", got)
	}
	// Strict interior: a point exactly on a ball boundary is not covered.
	if got := CountCoveringBalls(centers, radii, vec.Of(2, 0)); got != 1 {
		t.Errorf("boundary ply = %d, want 1", got)
	}
}

func TestAllKNNEmptyAndSingle(t *testing.T) {
	if got := AllKNN(nil, 3); len(got) != 0 {
		t.Error("AllKNN(nil) not empty")
	}
	got := AllKNN([]vec.Vec{vec.Of(1, 1)}, 3)
	if len(got) != 1 || got[0].Len() != 0 {
		t.Error("single point should have empty neighbor list")
	}
}
