package march

import (
	"sort"
	"testing"

	"sepdc/internal/geom"
	"sepdc/internal/pointgen"
	"sepdc/internal/separator"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// buildPTree constructs a partition tree over the index set by recursive
// separator splits, mimicking what the divide and conquer produces.
func buildPTree(pts []vec.Vec, idx []int, g *xrand.RNG, leafSize int) *PNode {
	if len(idx) <= leafSize {
		return &PNode{Pts: idx}
	}
	sub := make([]vec.Vec, len(idx))
	for i, j := range idx {
		sub[i] = pts[j]
	}
	res, err := separator.FindGood(sub, g, nil)
	if err != nil {
		return &PNode{Pts: idx}
	}
	var left, right []int
	for _, j := range idx {
		if res.Sep.Side(pts[j]) <= 0 {
			left = append(left, j)
		} else {
			right = append(right, j)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &PNode{Pts: idx}
	}
	return &PNode{
		Sep:   res.Sep,
		Left:  buildPTree(pts, left, g.Split(), leafSize),
		Right: buildPTree(pts, right, g.Split(), leafSize),
	}
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestDownFindsExactlyContainedPoints(t *testing.T) {
	g := xrand.New(1)
	pts := pointgen.MustGenerate(pointgen.UniformCube, 1200, 2, g)
	tree := buildPTree(pts, allIdx(len(pts)), g.Split(), 16)

	// Balls centered at random points with varied radii.
	var balls []Ball
	for i := 0; i < 30; i++ {
		c := pts[g.IntN(len(pts))]
		r := g.Float64() * 0.2
		balls = append(balls, NewBall(i, c, r*r))
	}
	hits, st := Down(tree, pts, balls, 0, nil)
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
		for j, p := range pts {
			if vec.Dist2(p, b.Center) <= r2 {
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
	pts := pointgen.MustGenerate(pointgen.Gaussian, 800, 3, g)
	tree := buildPTree(pts, allIdx(len(pts)), g.Split(), 8)
	balls := []Ball{NewBall(0, pts[0], 1.5*1.5)}
	hits, _ := Down(tree, pts, balls, 0, nil)
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
	pts := pointgen.MustGenerate(pointgen.UniformCube, 500, 2, g)
	tree := buildPTree(pts, allIdx(len(pts)), g.Split(), 8)
	// A huge ball crosses every separator and floods the frontier.
	balls := []Ball{NewBall(0, vec.Of(0.5, 0.5), 100*100)}
	hits, st := Down(tree, pts, balls, 1, nil)
	if !st.Aborted {
		t.Fatal("expected abort with limit 1")
	}
	if hits != nil {
		t.Error("aborted march returned hits")
	}
}

func TestDownEmptyInputs(t *testing.T) {
	hits, st := Down(nil, nil, []Ball{{ID: 0}}, 0, nil)
	if hits != nil || st.Levels != 0 {
		t.Error("nil tree produced output")
	}
	g := xrand.New(4)
	pts := pointgen.MustGenerate(pointgen.UniformCube, 100, 2, g)
	tree := buildPTree(pts, allIdx(len(pts)), g.Split(), 8)
	hits, st = Down(tree, pts, nil, 0, nil)
	if hits != nil || st.Levels != 0 {
		t.Error("no balls produced output")
	}
}

func TestDownMatchesReachableLeaves(t *testing.T) {
	// The level-synchronous march and the label/AND-scan formulation of
	// Lemma 6.3 must visit exactly the same leaves.
	g := xrand.New(5)
	pts := pointgen.MustGenerate(pointgen.Clustered, 600, 2, g)
	tree := buildPTree(pts, allIdx(len(pts)), g.Split(), 8)
	for trial := 0; trial < 20; trial++ {
		br := g.Float64() * 0.5
		b := NewBall(trial, pts[g.IntN(len(pts))], br*br)
		leaves := ReachableLeavesScan(tree, b)
		wantPts := map[int]bool{}
		r2 := b.Radius * b.Radius
		for _, leaf := range leaves {
			for _, p := range leaf.Pts {
				if vec.Dist2(pts[p], b.Center) <= r2 {
					wantPts[p] = true
				}
			}
		}
		hits, _ := Down(tree, pts, []Ball{b}, 0, nil)
		gotPts := map[int]bool{}
		for _, h := range hits {
			gotPts[h.Point] = true
		}
		if len(gotPts) != len(wantPts) {
			t.Fatalf("trial %d: Down found %d, ReachableLeavesScan %d", trial, len(gotPts), len(wantPts))
		}
		for p := range wantPts {
			if !gotPts[p] {
				t.Fatalf("trial %d: point %d missed by Down", trial, p)
			}
		}
	}
}

func TestStatsProfile(t *testing.T) {
	g := xrand.New(6)
	pts := pointgen.MustGenerate(pointgen.UniformCube, 1000, 2, g)
	tree := buildPTree(pts, allIdx(len(pts)), g.Split(), 16)
	var balls []Ball
	for i := 0; i < 10; i++ {
		balls = append(balls, NewBall(i, pts[i], 0.05*0.05))
	}
	ctx := vm.Sequential().NewCtx()
	_, st := Down(tree, pts, balls, 0, ctx)
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
	pts := pointgen.MustGenerate(pointgen.UniformCube, n, 2, g)
	tree := buildPTree(pts, allIdx(n), g.Split(), 16)
	var balls []Ball
	for i := 0; i < 50; i++ {
		balls = append(balls, NewBall(i, pts[i], 0.03*0.03)) // ~k-NN scale
	}
	_, st := Down(tree, pts, balls, 0, nil)
	if st.MaxActive > n/4 {
		t.Errorf("MaxActive %d not sublinear in n=%d", st.MaxActive, n)
	}
	if st.Duplications > 40*len(balls) {
		t.Errorf("duplications %d explode for %d balls", st.Duplications, len(balls))
	}
}

func TestHeightAndLeaves(t *testing.T) {
	leaf := &PNode{Pts: []int{1, 2}}
	if leaf.Height() != 1 {
		t.Errorf("leaf height = %d", leaf.Height())
	}
	var nilNode *PNode
	if nilNode.Height() != 0 {
		t.Error("nil height nonzero")
	}
	root := &PNode{
		Sep:   geom.Sphere{Center: vec.Of(0, 0), Radius: 1},
		Left:  &PNode{Pts: []int{0}},
		Right: &PNode{Pts: []int{1, 2}},
	}
	if root.Height() != 2 {
		t.Errorf("height = %d", root.Height())
	}
	got := root.Leaves(nil)
	sort.Ints(got)
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("Leaves = %v", got)
	}
}
