package kdtree

import (
	"math"
	"testing"

	"sepdc/internal/brute"
	"sepdc/internal/pointgen"
	"sepdc/internal/topk"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// knnOf returns the k nearest neighbors of q, excluding self (−1
// excludes nothing), through KNNInto on an empty list.
func knnOf(t *Tree, q vec.Vec, k, self int) *topk.List {
	l := topk.New(k)
	t.KNNInto(q, self, l)
	return l
}

func TestKNNMatchesBruteAcrossDistributions(t *testing.T) {
	g := xrand.New(1)
	for _, dist := range pointgen.All {
		for _, d := range []int{1, 2, 3} {
			pts := pointgen.Dedup(pointgen.MustGenerate(dist, 300, d, g.Split()))
			tree := Build(pts)
			k := 3
			want := brute.AllKNN(pts, k)
			for q := range pts {
				got := knnOf(tree, pts[q], k, q)
				if !topk.Equal(got, want[q]) {
					t.Fatalf("%s d=%d q=%d: kdtree %v != brute %v",
						dist, d, q, got.Items(), want[q].Items())
				}
			}
		}
	}
}

func TestAllKNNMatchesPerQuery(t *testing.T) {
	g := xrand.New(2)
	pts := pointgen.MustGenerate(pointgen.UniformBall, 200, 3, g)
	tree := Build(pts)
	all := tree.AllKNN(4)
	for q := range pts {
		if !topk.Equal(all[q], knnOf(tree, pts[q], 4, q)) {
			t.Fatalf("AllKNN diverges at %d", q)
		}
	}
}

func TestEmptyAndTinyTrees(t *testing.T) {
	empty := Build(nil)
	if empty.Len() != 0 || empty.Height() != 0 {
		t.Error("empty tree wrong shape")
	}
	if l := knnOf(empty, vec.Of(0, 0), 3, -1); l.Len() != 0 {
		t.Error("empty tree returned neighbors")
	}
	one := Build([]vec.Vec{vec.Of(1, 2)})
	if l := knnOf(one, vec.Of(0, 0), 3, -1); l.Len() != 1 {
		t.Error("single-point tree query failed")
	}
}

func TestDuplicatePointsDoNotLoop(t *testing.T) {
	// All points identical: the build must terminate and queries must work.
	pts := make([]vec.Vec, 100)
	for i := range pts {
		pts[i] = vec.Of(1, 1)
	}
	tree := BuildLeaf(pts, 4)
	l := knnOf(tree, vec.Of(1, 1), 5, 0)
	if l.Len() != 5 {
		t.Fatalf("duplicate-point query returned %d neighbors", l.Len())
	}
	for _, nb := range l.Items() {
		if nb.Dist2 != 0 {
			t.Errorf("nonzero distance %v between duplicates", nb.Dist2)
		}
	}
}

func TestHeightReasonable(t *testing.T) {
	g := xrand.New(4)
	pts := pointgen.MustGenerate(pointgen.UniformCube, 1<<12, 2, g)
	tree := BuildLeaf(pts, 8)
	h := tree.Height()
	// n/leaf = 512 leaves -> expect height around 10; allow generous slack.
	if h < 5 || h > 25 {
		t.Errorf("height = %d for 4096 uniform points", h)
	}
}

func TestBuildLeafClampsLeafSize(t *testing.T) {
	pts := pointgen.MustGenerate(pointgen.UniformCube, 50, 2, xrand.New(5))
	tree := BuildLeaf(pts, 0) // clamped to 1
	if tree.Len() != 50 {
		t.Error("tree lost points")
	}
	want := brute.KNN(pts, 0, 3)
	if !topk.Equal(knnOf(tree, pts[0], 3, 0), want) {
		t.Error("leaf-size-1 tree wrong")
	}
}

func TestKNNWithKLargerThanN(t *testing.T) {
	pts := pointgen.MustGenerate(pointgen.Gaussian, 5, 2, xrand.New(6))
	tree := Build(pts)
	l := knnOf(tree, pts[0], 10, 0)
	if l.Len() != 4 {
		t.Errorf("k>n query returned %d neighbors, want 4", l.Len())
	}
}

// TestFlatTreeLayout checks the flat layout's invariants on spread-out and
// tie-heavy inputs: the leaves tile perm, perm is a permutation, every box
// holds its range, every split separates its children by coordinate, and
// the count-halving split keeps the tree balanced. Searches over the tree
// must still match brute force exactly, ties in distance included.
func TestFlatTreeLayout(t *testing.T) {
	g := xrand.New(7)
	line := make([]vec.Vec, 500) // all on x = 3, ties in dimension 0
	for i := range line {
		line[i] = vec.Of(3, g.Float64())
	}
	same := make([]vec.Vec, 50) // coincident copies
	for i := range same {
		same[i] = vec.Of(1, -2, 0.5)
	}
	var lattice []vec.Vec // many ties in every dimension
	for x := 0; x < 20; x++ {
		for y := 0; y < 20; y++ {
			lattice = append(lattice, vec.Of(float64(x), float64(y)))
		}
	}
	inputs := map[string][]vec.Vec{"line": line, "coincident": same, "lattice": lattice}
	for _, dist := range pointgen.All {
		inputs[string(dist)] = pointgen.Dedup(pointgen.MustGenerate(dist, 700, 3, g.Split()))
	}
	for name, pv := range inputs {
		distinct := name != "coincident"
		for _, leafC := range []int{1, 4, DefaultLeafSize} {
			tree := BuildLeaf(pv, leafC)
			n := len(pv)
			seen := make([]bool, n)
			for _, j := range tree.Order() {
				if seen[j] {
					t.Fatalf("%s leaf=%d: index %d twice in perm", name, leafC, j)
				}
				seen[j] = true
			}
			next := 0 // leaves reached in preorder must tile perm left to right
			var walk func(id int32)
			walk = func(id int32) {
				nd := tree.nodes[id]
				d := tree.ps.Dim
				box := tree.box[2*int(id)*d : 2*int(id+1)*d]
				for _, j := range tree.perm[nd.lo:nd.hi] {
					for c, x := range tree.ps.At(j) {
						if x < box[c] || x > box[d+c] {
							t.Fatalf("%s leaf=%d: node %d box misses point %d", name, leafC, id, j)
						}
					}
				}
				if nd.left < 0 {
					if int(nd.lo) != next || nd.hi <= nd.lo || int(nd.hi-nd.lo) > leafC {
						t.Fatalf("%s leaf=%d: leaf %d covers [%d,%d), want start %d, at most %d points",
							name, leafC, id, nd.lo, nd.hi, next, leafC)
					}
					next = int(nd.hi)
					return
				}
				l, r := tree.nodes[nd.left], tree.nodes[nd.right]
				if l.lo != nd.lo || l.hi != r.lo || r.hi != nd.hi || l.hi-l.lo != (nd.hi-nd.lo)/2 {
					t.Fatalf("%s leaf=%d: node %d [%d,%d) splits into [%d,%d) [%d,%d)",
						name, leafC, id, nd.lo, nd.hi, l.lo, l.hi, r.lo, r.hi)
				}
				for i, j := range tree.perm[nd.lo:nd.hi] {
					x := tree.ps.At(j)[nd.dim]
					if i < int(l.hi-l.lo) && x > nd.split || i >= int(l.hi-l.lo) && x < nd.split {
						t.Fatalf("%s leaf=%d: point %d on the wrong side of node %d's split", name, leafC, j, id)
					}
				}
				walk(nd.left)
				walk(nd.right)
			}
			walk(0)
			if next != n {
				t.Fatalf("%s leaf=%d: leaves cover %d of %d points", name, leafC, next, n)
			}
			if bound := 2*int(math.Ceil(math.Log2(float64(n)/float64(leafC)))) + 2; distinct && tree.Height() > bound {
				t.Errorf("%s leaf=%d: height %d > %d", name, leafC, tree.Height(), bound)
			}
			want := brute.AllKNN(pv, 4)
			for i, got := range tree.AllKNN(4) {
				if !topk.Equal(got, want[i]) {
					t.Fatalf("%s leaf=%d: point %d: kdtree %v != brute %v", name, leafC, i, got.Items(), want[i].Items())
				}
			}
		}
	}
}
