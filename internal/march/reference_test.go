package march

import (
	"testing"

	"sepdc/internal/chaos"
	"sepdc/internal/geom"
	"sepdc/internal/pointgen"
	"sepdc/internal/pts"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// referenceDown is the level-synchronous march written plainly: a fresh
// next slice per level, a plain hit append and a scalar leaf scan.
// DownFlatChaos must reproduce its hits, in order, and its statistics.
func referenceDown(t *Tree, balls []Ball, activeLimit int, inj *chaos.Injector) ([]Hit, Stats) {
	var st Stats
	if len(balls) == 0 {
		return nil, st
	}
	type ref struct {
		node Ref
		ball int
	}
	frontier := make([]ref, 0, len(balls))
	for i := range balls {
		frontier = append(frontier, ref{node: t.Root, ball: i})
	}
	var hits []Hit
	for len(frontier) > 0 {
		st.Levels++
		st.ActivePerLvl = append(st.ActivePerLvl, len(frontier))
		if len(frontier) > st.MaxActive {
			st.MaxActive = len(frontier)
		}
		st.TotalVisited += len(frontier)
		if (activeLimit > 0 && len(frontier) > activeLimit) || inj.AbortMarchAtLevel(st.Levels) {
			st.Aborted = true
			return nil, st
		}
		next := frontier[:0:0]
		for _, it := range frontier {
			b := &balls[it.ball]
			if it.node.IsLeaf() {
				lo, hi := t.Leaf(it.node)
				for p := lo; p < hi; p++ {
					if vec.Dist2Flat(t.Rows.At(p), b.Center) <= b.Radius2 {
						hits = append(hits, Hit{BallID: b.ID, Point: p})
					}
				}
				continue
			}
			n := t.Nodes[it.node]
			switch n.Sep.ClassifyBall(b.Center, b.Radius) {
			case geom.Interior:
				next = append(next, ref{node: n.Left, ball: it.ball})
			case geom.Exterior:
				next = append(next, ref{node: n.Right, ball: it.ball})
			default:
				st.Duplications++
				next = append(next, ref{node: n.Left, ball: it.ball}, ref{node: n.Right, ball: it.ball})
			}
		}
		frontier = next
	}
	return hits, st
}

func marchFixture(seed uint64, n, d int) (*Tree, *xrand.RNG) {
	g := xrand.New(seed)
	return fixture(pointgen.UniformCube, n, d, 16, g), g
}

// randomBalls mixes k-NN-scale balls, large balls and unbounded balls.
func randomBalls(ps *pts.PointSet, g *xrand.RNG, count int) []Ball {
	balls := make([]Ball, count)
	for i := range balls {
		c := g.IntN(ps.N())
		switch g.IntN(8) {
		case 0:
			balls[i] = NewBall(c, ps.At(c), 0.3)
		case 1:
			balls[i] = Ball{ID: c, Center: ps.At(c), Radius: 1e300, Radius2: 1e300}
		default:
			r := 0.01 + 0.05*g.Float64()
			balls[i] = NewBall(c, ps.At(c), r*r)
		}
	}
	return balls
}

// sameMarch reports the first difference between a march's output and
// the reference's, or "".
func sameMarch(got, want []Hit, gst, wst Stats) string {
	if len(got) != len(want) {
		return "hit counts differ"
	}
	for i := range want {
		if got[i] != want[i] {
			return "hits differ"
		}
	}
	if gst.Levels != wst.Levels || gst.MaxActive != wst.MaxActive || gst.TotalVisited != wst.TotalVisited ||
		gst.Duplications != wst.Duplications || gst.Aborted != wst.Aborted || len(gst.ActivePerLvl) != len(wst.ActivePerLvl) {
		return "stats differ"
	}
	for i := range wst.ActivePerLvl {
		if gst.ActivePerLvl[i] != wst.ActivePerLvl[i] {
			return "profiles differ"
		}
	}
	return ""
}

func TestDownMatchesReferenceLoop(t *testing.T) {
	for _, d := range []int{2, 3} {
		tree, g := marchFixture(11+uint64(d), 3000, d)
		var sc Scratch
		for trial := 0; trial < 60; trial++ {
			balls := randomBalls(tree.Rows, g, 1+g.IntN(80))
			limit := 0
			if trial%3 == 1 {
				limit = 20 + g.IntN(200) // some marches abort on the limit
			}
			var inj *chaos.Injector
			if trial%7 == 3 {
				inj = &chaos.Injector{MarchAbortLevel: 1 + g.IntN(6)}
			}
			want, wst := referenceDown(tree, balls, limit, inj)
			got, gst := DownFlatChaos(tree, tree.Root, balls, limit, nil, inj, &sc)
			if diff := sameMarch(got, want, gst, wst); diff != "" {
				t.Fatalf("d=%d trial %d: %s: %v %+v, reference %v %+v", d, trial, diff, got, gst, want, wst)
			}
		}
	}
}

// One Scratch reused across marches over two trees leaves nothing behind
// for the next march to trip over: every march still matches the
// reference exactly.
func TestDownScratchReuseIsClean(t *testing.T) {
	treeA, g := marchFixture(21, 2000, 2)
	treeB, _ := marchFixture(22, 500, 2)
	var sc Scratch
	for trial := 0; trial < 40; trial++ {
		tree := treeA
		if trial%2 == 1 {
			tree = treeB
		}
		balls := randomBalls(tree.Rows, g, 1+g.IntN(40))
		want, wst := referenceDown(tree, balls, 0, nil)
		got, gst := DownFlatChaos(tree, tree.Root, balls, 0, nil, nil, &sc)
		if diff := sameMarch(got, want, gst, wst); diff != "" {
			t.Fatalf("trial %d: %s: %v, reference %v", trial, diff, got, want)
		}
	}
}

func TestDownSteadyStateZeroAllocs(t *testing.T) {
	tree, g := marchFixture(31, 4000, 3)
	balls := randomBalls(tree.Rows, g, 64)
	ctx := vm.Sequential().NewCtx()
	var sc Scratch
	march := func() { DownFlatChaos(tree, tree.Root, balls, 0, ctx, nil, &sc) }
	march() // grow the scratch once
	if allocs := testing.AllocsPerRun(100, march); allocs != 0 {
		t.Fatalf("DownFlatChaos allocates %v per march in steady state, want 0", allocs)
	}
}
