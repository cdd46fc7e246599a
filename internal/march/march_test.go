package march

import (
	"sort"
	"testing"

	"sepdc/internal/geom"
	"sepdc/internal/pointgen"
	"sepdc/internal/pts"
	"sepdc/internal/separator"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// buildPTree builds a partition tree over ps by recursive separator
// splits, mimicking what the divide and conquer produces: each split
// partitions its range of ps in place and stably, interior rows first,
// so every node owns a contiguous range of rows. ID maps the rows back
// to ps's original order.
func buildPTree(ps *pts.PointSet, g *xrand.RNG, leafSize int) *Tree {
	n, d := ps.N(), ps.Dim
	t := &Tree{Rows: ps, ID: make([]int, n), Nodes: make([]Node, n), Ends: make([]int32, n)}
	for i := range t.ID {
		t.ID[i] = i
	}
	interior := make([]bool, n)
	rows := make([]float64, 0, len(ps.Data))
	ids := make([]int, 0, n)
	var rec func(lo, hi int, g *xrand.RNG) Ref
	rec = func(lo, hi int, g *xrand.RNG) Ref {
		var sep geom.Separator
		mid := lo
		if hi-lo > leafSize {
			sub := &pts.PointSet{Data: ps.Data[lo*d : hi*d], Dim: d}
			if res, err := separator.FindGoodSides(sub, interior[lo:hi], g, nil); err == nil {
				sep = res.Sep
				rows, ids = rows[:0], ids[:0]
				for _, in := range []bool{true, false} {
					for p := lo; p < hi; p++ {
						if interior[p] == in {
							rows = append(rows, ps.At(p)...)
							ids = append(ids, t.ID[p])
						}
					}
					if in {
						mid = lo + len(ids)
					}
				}
				copy(ps.Data[lo*d:hi*d], rows)
				copy(t.ID[lo:hi], ids)
			}
		}
		if mid == lo || mid == hi {
			t.Ends[lo] = int32(hi)
			return LeafRef(lo)
		}
		t.Nodes[mid].Sep = sep
		t.Nodes[mid].Left = rec(lo, mid, g.Split())
		t.Nodes[mid].Right = rec(mid, hi, g.Split())
		return Ref(mid)
	}
	t.Root = rec(0, n, g)
	return t
}

// fixture builds a partition tree over n points of dist in d dimensions.
func fixture(dist pointgen.Dist, n, d, leafSize int, g *xrand.RNG) *Tree {
	return buildPTree(pts.FromVecs(pointgen.MustGenerate(dist, n, d, g)), g.Split(), leafSize)
}

// leaves returns the leaves of the subtree at r, left to right.
func leaves(t *Tree, r Ref) []Ref {
	if r.IsLeaf() {
		return []Ref{r}
	}
	return append(leaves(t, t.Nodes[r].Left), leaves(t, t.Nodes[r].Right)...)
}

func TestDownFindsExactlyContainedPoints(t *testing.T) {
	g := xrand.New(1)
	tree := fixture(pointgen.UniformCube, 1200, 2, 16, g)
	ps := tree.Rows

	// Balls centered at random points with varied radii.
	var balls []Ball
	for i := 0; i < 30; i++ {
		c := ps.At(g.IntN(ps.N()))
		r := g.Float64() * 0.2
		balls = append(balls, NewBall(i, c, r*r))
	}
	var sc Scratch
	hits, st := DownFlatChaos(tree, tree.Root, balls, 0, nil, nil, &sc)
	if st.Aborted {
		t.Fatal("unexpected abort")
	}
	// Reference: brute containment.
	got := map[int][]int{}
	for _, h := range hits {
		got[h.BallID] = append(got[h.BallID], h.Point)
	}
	for _, b := range balls {
		var want []int
		r2 := b.Radius * b.Radius
		for j := 0; j < ps.N(); j++ {
			if vec.Dist2(ps.At(j), b.Center) <= r2 {
				want = append(want, j)
			}
		}
		gotPts := got[b.ID]
		sort.Ints(gotPts)
		if len(gotPts) != len(want) {
			t.Fatalf("ball %d: got %d points, want %d", b.ID, len(gotPts), len(want))
		}
		for i := range want {
			if gotPts[i] != want[i] {
				t.Fatalf("ball %d: point sets differ", b.ID)
			}
		}
	}
}

func TestDownNoDuplicateHits(t *testing.T) {
	// A point may be reported at most once per ball: leaves partition the
	// point set, and a ball reaches each leaf at most once.
	g := xrand.New(2)
	tree := fixture(pointgen.Gaussian, 800, 3, 8, g)
	balls := []Ball{NewBall(0, tree.Rows.At(0), 1.5*1.5)}
	var sc Scratch
	hits, _ := DownFlatChaos(tree, tree.Root, balls, 0, nil, nil, &sc)
	seen := map[Hit]bool{}
	for _, h := range hits {
		if seen[h] {
			t.Fatalf("duplicate hit %+v", h)
		}
		seen[h] = true
	}
}

func TestDownAbortsOnLimit(t *testing.T) {
	g := xrand.New(3)
	tree := fixture(pointgen.UniformCube, 500, 2, 8, g)
	// A huge ball crosses every separator and floods the frontier.
	balls := []Ball{NewBall(0, vec.Of(0.5, 0.5), 100*100)}
	var sc Scratch
	hits, st := DownFlatChaos(tree, tree.Root, balls, 1, nil, nil, &sc)
	if !st.Aborted {
		t.Fatal("expected abort with limit 1")
	}
	if hits != nil {
		t.Error("aborted march returned hits")
	}
}

func TestDownEmptyInputs(t *testing.T) {
	g := xrand.New(4)
	tree := fixture(pointgen.UniformCube, 100, 2, 8, g)
	var sc Scratch
	hits, st := DownFlatChaos(tree, tree.Root, nil, 0, nil, nil, &sc)
	if hits != nil || st.Levels != 0 {
		t.Error("no balls produced output")
	}
}

func TestDownMatchesReachableLeaves(t *testing.T) {
	// The level-synchronous march and the label/AND-scan formulation of
	// Lemma 6.3 must visit exactly the same leaves.
	g := xrand.New(5)
	tree := fixture(pointgen.Clustered, 600, 2, 8, g)
	ps := tree.Rows
	var sc Scratch
	for trial := 0; trial < 20; trial++ {
		br := g.Float64() * 0.5
		b := NewBall(trial, ps.At(g.IntN(ps.N())), br*br)
		var want []int
		r2 := b.Radius * b.Radius
		for _, leaf := range ReachableLeavesScan(tree, b) {
			lo, hi := tree.Leaf(leaf)
			for p := lo; p < hi; p++ {
				if vec.Dist2(ps.At(p), b.Center) <= r2 {
					want = append(want, p)
				}
			}
		}
		hits, _ := DownFlatChaos(tree, tree.Root, []Ball{b}, 0, nil, nil, &sc)
		var got []int
		for _, h := range hits {
			got = append(got, h.Point)
		}
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d: Down found %d, ReachableLeavesScan %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: point %d missed by Down", trial, want[i])
			}
		}
	}
}

func TestStatsProfile(t *testing.T) {
	g := xrand.New(6)
	tree := fixture(pointgen.UniformCube, 1000, 2, 16, g)
	var balls []Ball
	for i := 0; i < 10; i++ {
		balls = append(balls, NewBall(i, tree.Rows.At(i), 0.05*0.05))
	}
	ctx := vm.Sequential().NewCtx()
	var sc Scratch
	_, st := DownFlatChaos(tree, tree.Root, balls, 0, ctx, nil, &sc)
	if st.Levels != len(st.ActivePerLvl) {
		t.Errorf("levels %d but profile has %d entries", st.Levels, len(st.ActivePerLvl))
	}
	if st.ActivePerLvl[0] != len(balls) {
		t.Errorf("level 0 active = %d, want %d", st.ActivePerLvl[0], len(balls))
	}
	sum := 0
	for _, a := range st.ActivePerLvl {
		sum += a
	}
	if sum != st.TotalVisited {
		t.Errorf("TotalVisited %d != profile sum %d", st.TotalVisited, sum)
	}
	if st.MaxActive > len(balls)+st.Duplications {
		t.Errorf("MaxActive %d exceeds balls+duplications %d", st.MaxActive, len(balls)+st.Duplications)
	}
	cost := ctx.Cost()
	if cost.Steps == 0 || cost.Work == 0 {
		t.Error("no cost charged")
	}
	// Lemma 6.3: constant steps per level.
	if cost.Steps > int64(4*st.Levels+8*len(balls)) {
		t.Errorf("steps %d too high for %d levels", cost.Steps, st.Levels)
	}
}

func TestSmallBallsSublinearActivity(t *testing.T) {
	// Lemma 6.2's empirical content: k-NN-sized balls keep the frontier
	// small relative to n.
	g := xrand.New(7)
	n := 4000
	tree := fixture(pointgen.UniformCube, n, 2, 16, g)
	var balls []Ball
	for i := 0; i < 50; i++ {
		balls = append(balls, NewBall(i, tree.Rows.At(i), 0.03*0.03)) // ~k-NN scale
	}
	var sc Scratch
	_, st := DownFlatChaos(tree, tree.Root, balls, 0, nil, nil, &sc)
	if st.MaxActive > n/4 {
		t.Errorf("MaxActive %d not sublinear in n=%d", st.MaxActive, n)
	}
	if st.Duplications > 40*len(balls) {
		t.Errorf("duplications %d explode for %d balls", st.Duplications, len(balls))
	}
}

func TestHeightAndLeaves(t *testing.T) {
	leaf := &Tree{Ends: []int32{2, 0}, Root: LeafRef(0)}
	if leaf.Height(leaf.Root) != 1 {
		t.Errorf("leaf height = %d", leaf.Height(leaf.Root))
	}
	if lo, hi := leaf.Leaf(leaf.Root); lo != 0 || hi != 2 {
		t.Errorf("leaf rows = [%d, %d)", lo, hi)
	}
	root := &Tree{
		Nodes: []Node{1: {Sep: geom.Sphere{Center: vec.Of(0, 0), Radius: 1}, Left: LeafRef(0), Right: LeafRef(1)}},
		Ends:  []int32{1, 3, 0},
		Root:  1,
	}
	if root.Height(root.Root) != 2 {
		t.Errorf("height = %d", root.Height(root.Root))
	}
	var got [][2]int
	for _, r := range leaves(root, root.Root) {
		lo, hi := root.Leaf(r)
		got = append(got, [2]int{lo, hi})
	}
	if len(got) != 2 || got[0] != [2]int{0, 1} || got[1] != [2]int{1, 3} {
		t.Errorf("leaves = %v", got)
	}
}
