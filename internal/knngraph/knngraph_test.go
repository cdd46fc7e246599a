package knngraph

import (
	"testing"

	"sepdc/internal/brute"
	"sepdc/internal/pointgen"
	"sepdc/internal/topk"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

func listOf(k int, nbs ...topk.Neighbor) *topk.List {
	l := topk.New(k)
	for _, nb := range nbs {
		l.Insert(nb.Idx, nb.Dist2)
	}
	return l
}

func TestFromListsSymmetrizes(t *testing.T) {
	// 0 -> 1, 1 -> 2, 2 -> 1 : edges {0,1}, {1,2}.
	lists := []*topk.List{
		listOf(1, topk.Neighbor{Idx: 1, Dist2: 1}),
		listOf(1, topk.Neighbor{Idx: 2, Dist2: 1}),
		listOf(1, topk.Neighbor{Idx: 1, Dist2: 1}),
	}
	g := FromLists(lists, 1)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} missing or asymmetric")
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("edge {1,2} missing or asymmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("spurious edge {0,2}")
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Errorf("degrees wrong: %d, %d", g.Degree(0), g.Degree(1))
	}
}

func TestFromListsOnRealPoints(t *testing.T) {
	g := xrand.New(1)
	pts := pointgen.MustGenerate(pointgen.UniformCube, 150, 2, g)
	k := 3
	graph := FromLists(brute.AllKNN(pts, k), k)
	if graph.N != len(pts) {
		t.Fatalf("N = %d", graph.N)
	}
	// Every vertex has degree >= k (it has k out-neighbors).
	for v := 0; v < graph.N; v++ {
		if graph.Degree(v) < k {
			t.Fatalf("vertex %d degree %d < k", v, graph.Degree(v))
		}
	}
	// Adjacency rows sorted, no self-loops, symmetric.
	for v := 0; v < graph.N; v++ {
		row := graph.Neighbors(v)
		for i, w := range row {
			if int(w) == v {
				t.Fatalf("self-loop at %d", v)
			}
			if i > 0 && row[i-1] >= w {
				t.Fatalf("row %d not strictly sorted: %v", v, row)
			}
			if !graph.HasEdge(int(w), v) {
				t.Fatalf("asymmetric edge %d-%d", v, w)
			}
		}
	}
}

func TestEqualAndDiff(t *testing.T) {
	g := xrand.New(2)
	pts := pointgen.MustGenerate(pointgen.Gaussian, 80, 3, g)
	a := FromLists(brute.AllKNN(pts, 2), 2)
	b := FromLists(brute.AllKNN(pts, 2), 2)
	if !Equal(a, b) {
		t.Fatal("identical constructions not equal")
	}
	if Diff(a, b) != "" {
		t.Fatal("Diff nonempty for equal graphs")
	}
	c := FromLists(brute.AllKNN(pts, 3), 3)
	if Equal(a, c) {
		t.Fatal("k=2 and k=3 graphs equal")
	}
	if Diff(a, c) == "" {
		t.Fatal("Diff empty for different graphs")
	}
}

func TestComponents(t *testing.T) {
	// Two well separated clusters with k=1 must give >= 2 components.
	var pts []vec.Vec
	g := xrand.New(3)
	for i := 0; i < 20; i++ {
		p := vec.Vec(g.InBall(2))
		pts = append(pts, p)
	}
	for i := 0; i < 20; i++ {
		p := vec.Add(vec.Vec(g.InBall(2)), vec.Of(100, 100))
		pts = append(pts, p)
	}
	graph := FromLists(brute.AllKNN(pts, 1), 1)
	labels, count := graph.Components()
	if count < 2 {
		t.Fatalf("components = %d, want >= 2", count)
	}
	// All points of the far cluster share a label distinct from cluster one's.
	if labels[0] == labels[25] {
		t.Error("distant clusters share a component")
	}
}

func TestComponentsSingletonAndEmpty(t *testing.T) {
	empty := FromLists(nil, 1)
	if _, count := empty.Components(); count != 0 {
		t.Error("empty graph has components")
	}
	lone := FromLists([]*topk.List{topk.New(1)}, 1)
	labels, count := lone.Components()
	if count != 1 || labels[0] != 0 {
		t.Error("singleton component labeling wrong")
	}
}

func TestDegreeStats(t *testing.T) {
	g := xrand.New(4)
	pts := pointgen.MustGenerate(pointgen.UniformBall, 500, 2, g)
	k := 4
	graph := FromLists(brute.AllKNN(pts, k), k)
	lo, hi, total := graph.Degree(0), graph.Degree(0), 0
	for v := 0; v < graph.N; v++ {
		d := graph.Degree(v)
		lo, hi, total = min(lo, d), max(hi, d), total+d
	}
	if lo < k {
		t.Errorf("min degree %d < k", lo)
	}
	if mean := float64(total) / float64(graph.N); mean < float64(k) || mean > 2*float64(k) {
		t.Errorf("mean degree %v outside [k, 2k]", mean)
	}
	// Density lemma: max degree O(k); kissing number in 2D is 6, and the
	// in/out structure bounds degree by roughly (τ_2+1)k; be generous.
	if hi > 12*k {
		t.Errorf("max degree %d suspiciously high for 2D", hi)
	}
}
