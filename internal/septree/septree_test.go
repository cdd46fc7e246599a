package septree

import (
	"math"
	"testing"

	"sepdc/internal/brute"
	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

func buildUniform(t testing.TB, n, d, k int, seed uint64, opts *Options) (*Tree, []vec.Vec) {
	t.Helper()
	g := xrand.New(seed)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, n, d, g))
	sys := nbrsys.KNeighborhood(pts, k)
	tree, err := Build(sys, g.Split(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return tree, pts
}

func TestQueryMatchesBrute(t *testing.T) {
	tree, pts := buildUniform(t, 2000, 2, 2, 1, nil)
	g := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		var q vec.Vec
		if trial%2 == 0 {
			q = pts[g.IntN(len(pts))]
		} else {
			q = vec.Vec(g.InCube(2))
		}
		got, _ := tree.Query(q)
		want := 0
		for i := range pts {
			r := tree.Sys.Radii[i]
			if vec.Dist2(q, tree.Sys.Centers[i]) < r*r {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: Query found %d balls, brute %d", trial, len(got), want)
		}
	}
}

func TestQueryAcrossDistributionsAndDims(t *testing.T) {
	g := xrand.New(2)
	for _, dist := range []pointgen.Dist{pointgen.Gaussian, pointgen.Clustered, pointgen.Annulus} {
		for _, d := range []int{2, 3} {
			pts := pointgen.Dedup(pointgen.MustGenerate(dist, 800, d, g.Split()))
			sys := nbrsys.KNeighborhood(pts, 3)
			tree, err := Build(sys, g.Split(), nil)
			if err != nil {
				t.Fatalf("%s d=%d: %v", dist, d, err)
			}
			for trial := 0; trial < 40; trial++ {
				q := pts[g.IntN(len(pts))]
				got, _ := tree.Query(q)
				want := brute.CountCoveringBalls(sys.Centers, sys.Radii, q)
				if len(got) != want {
					t.Fatalf("%s d=%d trial %d: %d vs brute %d", dist, d, trial, len(got), want)
				}
			}
		}
	}
}

func TestQueryClosedIncludesBoundary(t *testing.T) {
	sys := &nbrsys.System{
		Centers: []vec.Vec{vec.Of(0, 0), vec.Of(10, 10)},
		Radii:   []float64{1, 1},
	}
	tree := &Tree{Sys: sys, Root: &Node{Balls: []int{0, 1}}}
	onBoundary := vec.Of(1, 0)
	open, _ := tree.Query(onBoundary)
	closed, _ := tree.QueryClosed(onBoundary)
	if len(open) != 0 {
		t.Errorf("open query returned %v for boundary point", open)
	}
	if len(closed) != 1 || closed[0] != 0 {
		t.Errorf("closed query = %v", closed)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	// Lemma 3.1: height O(log n). Compare two sizes: quadrupling n should
	// add roughly 2/log2(1/δ') levels, not multiply the height.
	tree1, _ := buildUniform(t, 1000, 2, 1, 3, nil)
	tree2, _ := buildUniform(t, 4000, 2, 1, 4, nil)
	h1, h2 := tree1.Stats.Height, tree2.Stats.Height
	if h2 > h1+14 {
		t.Errorf("height grew from %d to %d on 4x points; not logarithmic", h1, h2)
	}
	logN := math.Log2(4000)
	if float64(h2) > 5*logN {
		t.Errorf("height %d far above O(log n) = %v", h2, logN)
	}
}

func TestSpaceLinear(t *testing.T) {
	// Lemma 3.1: total stored balls O(n) despite crossing-ball duplication.
	tree, pts := buildUniform(t, 4000, 2, 1, 5, nil)
	if tree.Stats.TotalStored > 4*len(pts) {
		t.Errorf("stored %d balls for n=%d; space not linear", tree.Stats.TotalStored, len(pts))
	}
	if tree.Stats.TotalStored < len(pts) {
		t.Errorf("stored %d balls < n=%d; balls lost", tree.Stats.TotalStored, len(pts))
	}
}

func TestEveryBallReachable(t *testing.T) {
	// Each ball must be stored in at least one leaf, and the leaf reached
	// by querying its center must contain it (it covers its own center
	// only if radius > 0; we check storage membership instead).
	tree, _ := buildUniform(t, 1500, 3, 2, 6, nil)
	seen := make(map[int]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			for _, j := range n.Balls {
				seen[j] = true
			}
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tree.Root)
	for i := 0; i < tree.Sys.Len(); i++ {
		if !seen[i] {
			t.Fatalf("ball %d not stored in any leaf", i)
		}
	}
}

func TestCriticalTrialsLogarithmic(t *testing.T) {
	// Theorem 3.1: the separator-call sequence along any root-leaf path is
	// O(log n) with high probability.
	tree, pts := buildUniform(t, 8000, 2, 1, 7, nil)
	logN := math.Log2(float64(len(pts)))
	if float64(tree.Stats.CriticalTrials) > 12*logN {
		t.Errorf("critical trials %d >> O(log n) = %v", tree.Stats.CriticalTrials, logN)
	}
	// Every internal node on the deepest path consumes at least one trial;
	// the leaf consumes none.
	if tree.Stats.CriticalTrials < tree.Stats.Height-1-tree.Stats.ForcedLeaves {
		t.Errorf("critical trials %d below height %d minus leaf; accounting broken",
			tree.Stats.CriticalTrials, tree.Stats.Height)
	}
}

func TestParallelBuildMatchesCostModel(t *testing.T) {
	// The same seed must give identical simulated cost on sequential and
	// parallel machines (accounting is execution-independent), and the
	// parallel build must produce a correct tree.
	g1 := xrand.New(8)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 2000, 2, g1))
	sys := nbrsys.KNeighborhood(pts, 1)

	seq, err := Build(sys, xrand.New(42), &Options{Machine: vm.Sequential()})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(sys, xrand.New(42), &Options{Machine: vm.NewMachine(4)})
	if err != nil {
		t.Fatal(err)
	}
	// NOTE: RNG splitting order differs between sequential and parallel
	// execution only if the build consumed the RNG concurrently; the build
	// splits the stream before forking, so trees must be identical.
	if seq.Stats.Height != par.Stats.Height || seq.Stats.Leaves != par.Stats.Leaves {
		t.Errorf("parallel build shape differs: %+v vs %+v", seq.Stats, par.Stats)
	}
	if seq.Stats.Cost != par.Stats.Cost {
		t.Errorf("cost model depends on execution: %v vs %v", seq.Stats.Cost, par.Stats.Cost)
	}
	// Verify correctness of the parallel tree.
	gq := xrand.New(9)
	for trial := 0; trial < 50; trial++ {
		q := pts[gq.IntN(len(pts))]
		got, _ := par.Query(q)
		want := brute.CountCoveringBalls(sys.Centers, sys.Radii, q)
		if len(got) != want {
			t.Fatalf("parallel tree query wrong: %d vs %d", len(got), want)
		}
	}
}

func TestQueryCostLogarithmic(t *testing.T) {
	tree, pts := buildUniform(t, 8000, 2, 1, 10, nil)
	g := xrand.New(11)
	maxVisited := 0
	for trial := 0; trial < 100; trial++ {
		_, visited := tree.Query(pts[g.IntN(len(pts))])
		if visited > maxVisited {
			maxVisited = visited
		}
	}
	if float64(maxVisited) > 6*math.Log2(float64(len(pts))) {
		t.Errorf("max nodes visited %d; query not logarithmic", maxVisited)
	}
}

func TestValidateOnBuiltTrees(t *testing.T) {
	g := xrand.New(55)
	for _, dist := range []pointgen.Dist{pointgen.UniformCube, pointgen.Clustered, pointgen.Annulus} {
		pts := pointgen.Dedup(pointgen.MustGenerate(dist, 1200, 2, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 2)
		tree, err := Build(sys, g.Split(), nil)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if err := tree.Validate(); err != nil {
			t.Errorf("%s: %v", dist, err)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	tree, _ := buildUniform(t, 500, 2, 1, 56, nil)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: drop a ball from the first leaf found.
	var leaf *Node
	var find func(n *Node)
	find = func(n *Node) {
		if leaf != nil {
			return
		}
		if n.IsLeaf() {
			if len(n.Balls) > 0 {
				leaf = n
			}
			return
		}
		find(n.Left)
		find(n.Right)
	}
	find(tree.Root)
	saved := leaf.Balls
	leaf.Balls = leaf.Balls[1:]
	err := tree.Validate()
	leaf.Balls = saved
	// Removing one copy may or may not orphan the ball (it can live in a
	// sibling via crossing duplication) — but corrupting an internal node
	// must always be caught:
	inner := tree.Root
	if inner.IsLeaf() {
		t.Skip("tree degenerated to a leaf")
	}
	savedChild := inner.Left
	inner.Left = nil
	if verr := tree.Validate(); verr == nil {
		t.Error("nil child not detected")
	}
	inner.Left = savedChild
	_ = err // the ball-drop case is allowed to pass; see comment
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(&nbrsys.System{}, xrand.New(1), nil); err == nil {
		t.Error("empty system accepted")
	}
	bad := &nbrsys.System{Centers: []vec.Vec{vec.Of(0)}, Radii: []float64{1, 2}}
	if _, err := Build(bad, xrand.New(1), nil); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestBuildTinySystemIsLeaf(t *testing.T) {
	sys := &nbrsys.System{
		Centers: []vec.Vec{vec.Of(0, 0), vec.Of(1, 1)},
		Radii:   []float64{0.5, 0.5},
	}
	tree, err := Build(sys, xrand.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() {
		t.Error("tiny system should be a single leaf")
	}
	got, _ := tree.Query(vec.Of(0, 0))
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("tiny query = %v", got)
	}
}

func TestBuildIdenticalCentersTerminates(t *testing.T) {
	n := 200
	centers := make([]vec.Vec, n)
	radii := make([]float64, n)
	for i := range centers {
		centers[i] = vec.Of(1, 1)
		radii[i] = 1
	}
	sys := &nbrsys.System{Centers: centers, Radii: radii}
	tree, err := Build(sys, xrand.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tree.Query(vec.Of(1, 1))
	if len(got) != n {
		t.Errorf("identical-center query = %d, want %d", len(got), n)
	}
	if tree.Stats.ForcedLeaves == 0 {
		t.Log("note: identical centers resolved without forced leaves")
	}
}

// TestLeafSizeOption: every leaf of a default build holds at most
// m0 = leafSize(d, k, n) balls unless it is a forced leaf.
func TestLeafSizeOption(t *testing.T) {
	for _, d := range []int{2, 3} {
		for _, k := range []int{1, 4} {
			tree, pts := buildUniform(t, 1500, d, k, 12, nil)
			m0 := leafSize(d, k, len(pts))
			var walk func(n *Node) bool
			walk = func(n *Node) bool {
				if n.IsLeaf() {
					return len(n.Balls) <= m0 || n.Forced
				}
				return walk(n.Left) && walk(n.Right)
			}
			if tree.Root.IsLeaf() || !walk(tree.Root) {
				t.Errorf("d=%d k=%d: a leaf exceeds m0=%d (or the root is a leaf)", d, k, m0)
			}
		}
	}
}

// TestSpaceAndLeafBudget: with the default leaf size m0(d, k, n) the tree
// stays within O(n) space (Lemma 3.1) and a query's leaf scan within
// Theorem 3.1's O(k + log n) candidate budget, across d and k. The
// stored/n bounds carry at least 20% headroom over the measured maxima
// at n = 2·10⁴ (3.60 at d=2 and 35.2 at d=3, both at k=8).
func TestSpaceAndLeafBudget(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 5000
	}
	maxStoredPerN := map[int]float64{2: 4.5, 3: 43}
	for _, d := range []int{2, 3} {
		for _, k := range []int{1, 4, 8} {
			tree, pts := buildUniform(t, n, d, k, 7, nil)
			st := tree.Stats
			perN := float64(st.TotalStored) / float64(len(pts))
			frozen, err := Freeze(tree)
			if err != nil {
				t.Fatal(err)
			}
			g := xrand.New(8)
			cands := 0
			const probes = 400
			var buf []int
			for i := 0; i < probes; i++ {
				var scanned int
				buf, _, scanned = frozen.Covering(pts[g.IntN(len(pts))], buf[:0])
				cands += scanned
			}
			meanCands := float64(cands) / probes
			budget := 4 * (float64(k) + math.Log2(float64(len(pts))))
			t.Logf("d=%d k=%d: stored/n %.2f, leaves %d, forced %d, mean leaf candidates %.1f (budget %.1f)",
				d, k, perN, st.Leaves, st.ForcedLeaves, meanCands, budget)
			if perN > maxStoredPerN[d] {
				t.Errorf("d=%d k=%d: stored/n = %.2f, want ≤ %v", d, k, perN, maxStoredPerN[d])
			}
			if st.ForcedLeaves != 0 {
				t.Errorf("d=%d k=%d: %d forced leaves, want 0", d, k, st.ForcedLeaves)
			}
			if meanCands > budget {
				t.Errorf("d=%d k=%d: mean leaf candidates %.1f, want ≤ 4(k + log₂n) = %.1f", d, k, meanCands, budget)
			}
		}
	}
}
