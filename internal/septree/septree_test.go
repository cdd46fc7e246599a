package septree

import (
	"math"
	"testing"

	"sepdc/internal/brute"
	"sepdc/internal/geom"
	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

func buildUniform(t testing.TB, n, d, k int, seed uint64, opts *Options) (*Frozen, []vec.Vec) {
	t.Helper()
	g := xrand.New(seed)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, n, d, g))
	sys := nbrsys.KNeighborhood(pts, k)
	f, err := Build(sys, g.Split(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return f, pts
}

// coveringBrute is the reference every query path is checked against: a
// scan of all n balls, in ascending id order, with the open predicate
// d² < r² or the closed predicate d² ≤ r² + geom.Eps.
func coveringBrute(sys *nbrsys.System, q []float64, closed bool) []int {
	var out []int
	for i, c := range sys.Centers {
		r := sys.Radii[i]
		d2 := vec.Dist2(q, c)
		in := d2 < r*r
		if closed {
			in = d2 <= r*r+geom.Eps
		}
		if in {
			out = append(out, i)
		}
	}
	return out
}

func TestQueryMatchesBrute(t *testing.T) {
	f, pts := buildUniform(t, 2000, 2, 2, 1, nil)
	g := xrand.New(99)
	var got []int
	for trial := 0; trial < 200; trial++ {
		var q vec.Vec
		if trial%2 == 0 {
			q = pts[g.IntN(len(pts))]
		} else {
			q = vec.Vec(g.InCube(2))
		}
		for _, closed := range []bool{false, true} {
			if closed {
				got, _, _ = f.CoveringClosed(q, got[:0])
			} else {
				got, _, _ = f.Covering(q, got[:0])
			}
			if want := coveringBrute(f.System(), q, closed); !equalInts(got, want) {
				t.Fatalf("trial %d closed=%v: query found %v, brute %v", trial, closed, got, want)
			}
		}
	}
}

func TestQueryAcrossDistributionsAndDims(t *testing.T) {
	g := xrand.New(2)
	for _, dist := range []pointgen.Dist{pointgen.Gaussian, pointgen.Clustered, pointgen.Annulus} {
		for _, d := range []int{2, 3} {
			pts := pointgen.Dedup(pointgen.MustGenerate(dist, 800, d, g.Split()))
			sys := nbrsys.KNeighborhood(pts, 3)
			f, err := Build(sys, g.Split(), nil)
			if err != nil {
				t.Fatalf("%s d=%d: %v", dist, d, err)
			}
			var got []int
			for trial := 0; trial < 40; trial++ {
				q := pts[g.IntN(len(pts))]
				got, _, _ = f.Covering(q, got[:0])
				want := coveringBrute(sys, q, false)
				if !equalInts(got, want) {
					t.Fatalf("%s d=%d trial %d: %v vs brute %v", dist, d, trial, got, want)
				}
				if len(want) != brute.CountCoveringBalls(sys.Centers, sys.Radii, q) {
					t.Fatalf("%s d=%d trial %d: reference scans disagree", dist, d, trial)
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
	f, err := Build(sys, xrand.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	onBoundary := vec.Of(1, 0)
	open, _, _ := f.Covering(onBoundary, nil)
	closed, _, _ := f.CoveringClosed(onBoundary, nil)
	if len(open) != 0 {
		t.Errorf("open query returned %v for boundary point", open)
	}
	if len(closed) != 1 || closed[0] != 0 {
		t.Errorf("closed query = %v", closed)
	}
	if !equalInts(open, coveringBrute(sys, onBoundary, false)) || !equalInts(closed, coveringBrute(sys, onBoundary, true)) {
		t.Errorf("boundary query disagrees with the brute-force scan: open %v, closed %v", open, closed)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	// Lemma 3.1: height O(log n). Compare two sizes: quadrupling n should
	// add roughly 2/log2(1/δ') levels, not multiply the height.
	tree1, _ := buildUniform(t, 1000, 2, 1, 3, nil)
	tree2, _ := buildUniform(t, 4000, 2, 1, 4, nil)
	h1, h2 := tree1.Stats().Height, tree2.Stats().Height
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
	f, pts := buildUniform(t, 4000, 2, 1, 5, nil)
	stored := f.Stats().TotalStored
	if stored != f.StoredBalls() {
		t.Errorf("stats count %d stored balls, the leaf arrays hold %d", stored, f.StoredBalls())
	}
	if stored > 4*len(pts) {
		t.Errorf("stored %d balls for n=%d; space not linear", stored, len(pts))
	}
	if stored < len(pts) {
		t.Errorf("stored %d balls < n=%d; balls lost", stored, len(pts))
	}
}

func TestEveryBallReachable(t *testing.T) {
	// Each ball must be stored in at least one leaf, and the leaf reached
	// by querying its center must contain it (it covers its own center
	// only if radius > 0; we check storage membership instead).
	f, _ := buildUniform(t, 1500, 3, 2, 6, nil)
	seen := make(map[int32]bool)
	for _, j := range f.leafBalls {
		seen[j] = true
	}
	for i := int32(0); i < int32(f.System().Len()); i++ {
		if !seen[i] {
			t.Fatalf("ball %d not stored in any leaf", i)
		}
	}
}

func TestCriticalTrialsLogarithmic(t *testing.T) {
	// Theorem 3.1: the separator-call sequence along any root-leaf path is
	// O(log n) with high probability.
	f, pts := buildUniform(t, 8000, 2, 1, 7, nil)
	st := f.Stats()
	logN := math.Log2(float64(len(pts)))
	if float64(st.CriticalTrials) > 12*logN {
		t.Errorf("critical trials %d >> O(log n) = %v", st.CriticalTrials, logN)
	}
	// Every internal node on the deepest path consumes at least one trial;
	// the leaf consumes none.
	if st.CriticalTrials < st.Height-1-st.ForcedLeaves {
		t.Errorf("critical trials %d below height %d minus leaf; accounting broken",
			st.CriticalTrials, st.Height)
	}
}

func TestQueryCostLogarithmic(t *testing.T) {
	f, pts := buildUniform(t, 8000, 2, 1, 10, nil)
	g := xrand.New(11)
	maxVisited := 0
	var got []int
	for trial := 0; trial < 100; trial++ {
		q := pts[g.IntN(len(pts))]
		var visited int
		got, visited, _ = f.Covering(q, got[:0])
		if want := coveringBrute(f.System(), q, false); !equalInts(got, want) {
			t.Fatalf("trial %d: query found %v, brute %v", trial, got, want)
		}
		maxVisited = max(maxVisited, visited)
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
		f, err := Build(sys, g.Split(), nil)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", dist, err)
		}
	}
}

// TestValidateDetectsCorruption corrupts copies of a built tree's flat
// arrays and requires Validate to reject every one.
func TestValidateDetectsCorruption(t *testing.T) {
	f, _ := buildUniform(t, 500, 2, 1, 56, nil)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.kind[0] == kindLeaf {
		t.Fatal("tree degenerated to a leaf")
	}
	// Permuting by the identity order copies the tree into fresh arrays.
	fresh := func() *Frozen { return permute(f, allBalls(f.NumNodes())) }
	if err := fresh().Validate(); err != nil {
		t.Fatalf("identity copy: %v", err)
	}
	// The first leaf slot holding at least two ids.
	s := 0
	for f.leafOff[s+1]-f.leafOff[s] < 2 {
		s++
	}
	lo := int(f.leafOff[s])

	// Drop a leaf id (and its record): the ball is missing from a leaf
	// its region admits.
	c := fresh()
	c.leafBalls = append(c.leafBalls[:lo], c.leafBalls[lo+1:]...)
	c.leafRecs = append(c.leafRecs[:lo*c.stride], c.leafRecs[(lo+1)*c.stride:]...)
	for i := s + 1; i < len(c.leafOff); i++ {
		c.leafOff[i]--
	}
	if c.Validate() == nil {
		t.Error("dropped leaf id not detected")
	}

	// Shift a child id by one: the descent would branch to the wrong node.
	for i := range f.NumNodes() {
		if f.kind[i] == kindLeaf {
			continue
		}
		c = fresh()
		c.child[i]++
		if c.Validate() == nil {
			t.Errorf("child id of node %d shifted by one not detected", i)
		}
	}

	// Swap two leaf ids, records included: the leaf is no longer
	// ascending.
	c = fresh()
	c.leafBalls[lo], c.leafBalls[lo+1] = c.leafBalls[lo+1], c.leafBalls[lo]
	a, b := c.leafRecs[lo*c.stride:(lo+1)*c.stride], c.leafRecs[(lo+1)*c.stride:(lo+2)*c.stride]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
	if c.Validate() == nil {
		t.Error("swapped leaf ids not detected")
	}
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
	f, err := Build(sys, xrand.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != 1 || f.kind[0] != kindLeaf {
		t.Error("tiny system should be a single leaf")
	}
	got, _, _ := f.Covering(vec.Of(0, 0), nil)
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
	f, err := Build(sys, xrand.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := f.Covering(vec.Of(1, 1), nil)
	if len(got) != n {
		t.Errorf("identical-center query = %d, want %d", len(got), n)
	}
	if f.Stats().ForcedLeaves == 0 {
		t.Log("note: identical centers resolved without forced leaves")
	}
}

// TestLeafSizeOption: every leaf of a default build holds at most
// m0 = leafSize(d, k, n) balls unless it is a forced leaf.
func TestLeafSizeOption(t *testing.T) {
	for _, d := range []int{2, 3} {
		for _, k := range []int{1, 4} {
			f, pts := buildUniform(t, 1500, d, k, 12, nil)
			m0 := leafSize(d, k, len(pts))
			oversized := 0
			for s := range f.NumLeaves() {
				if int(f.leafOff[s+1]-f.leafOff[s]) > m0 {
					oversized++
				}
			}
			if f.kind[0] == kindLeaf || oversized > f.Stats().ForcedLeaves {
				t.Errorf("d=%d k=%d: %d leaves exceed m0=%d with %d forced (or the root is a leaf)",
					d, k, oversized, m0, f.Stats().ForcedLeaves)
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
			frozen, pts := buildUniform(t, n, d, k, 7, nil)
			st := frozen.Stats()
			perN := float64(st.TotalStored) / float64(len(pts))
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
