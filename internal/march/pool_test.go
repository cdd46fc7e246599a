package march

import (
	"testing"

	"sepdc/internal/chaos"
	"sepdc/internal/geom"
	"sepdc/internal/pointgen"
	"sepdc/internal/pts"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// referenceDown is the level-synchronous march as it was written before
// the frontier buffers were pooled: a fresh next slice per level and a
// plain hit append. DownFlatChaos must reproduce its hits, in order, and
// its statistics.
func referenceDown(root *PNode, ps *pts.PointSet, balls []Ball, activeLimit int, inj *chaos.Injector) ([]Hit, Stats) {
	var st Stats
	if root == nil || len(balls) == 0 {
		return nil, st
	}
	type ref struct {
		node *PNode
		ball int
	}
	frontier := make([]ref, 0, len(balls))
	for i := range balls {
		frontier = append(frontier, ref{node: root, ball: i})
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
			n := it.node
			if n.IsLeaf() {
				for _, p := range n.Pts {
					if ps.Dist2To(p, b.Center) <= b.Radius2 {
						hits = append(hits, Hit{BallID: b.ID, Point: p})
					}
				}
				continue
			}
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

func marchFixture(seed uint64, n, d int) (*PNode, *pts.PointSet, *xrand.RNG) {
	g := xrand.New(seed)
	pv := pointgen.MustGenerate(pointgen.UniformCube, n, d, g)
	return buildPTree(pv, allIdx(n), g.Split(), 16), pts.FromVecs(pv), g
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

func TestDownMatchesReferenceLoop(t *testing.T) {
	for _, d := range []int{2, 3} {
		root, ps, g := marchFixture(11+uint64(d), 3000, d)
		for trial := 0; trial < 60; trial++ {
			balls := randomBalls(ps, g, 1+g.IntN(80))
			limit := 0
			if trial%3 == 1 {
				limit = 20 + g.IntN(200) // some marches abort on the limit
			}
			var inj *chaos.Injector
			if trial%7 == 3 {
				inj = &chaos.Injector{MarchAbortLevel: 1 + g.IntN(6)}
			}
			want, wst := referenceDown(root, ps, balls, limit, inj)
			got, gst := DownFlatChaos(root, ps, balls, limit, nil, inj)
			if len(got) != len(want) {
				t.Fatalf("d=%d trial %d: %d hits, reference %d", d, trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("d=%d trial %d: hit %d = %v, reference %v", d, trial, i, got[i], want[i])
				}
			}
			if gst.Levels != wst.Levels || gst.MaxActive != wst.MaxActive || gst.TotalVisited != wst.TotalVisited ||
				gst.Duplications != wst.Duplications || gst.Aborted != wst.Aborted {
				t.Fatalf("d=%d trial %d: stats %+v, reference %+v", d, trial, gst, wst)
			}
			for i := range wst.ActivePerLvl {
				if gst.ActivePerLvl[i] != wst.ActivePerLvl[i] {
					t.Fatalf("d=%d trial %d: profile %v, reference %v", d, trial, gst.ActivePerLvl, wst.ActivePerLvl)
				}
			}
			gst.Release()
		}
	}
}

// A released march leaves no stale pointer behind for the next one to
// trip over: interleaving marches over two trees still matches the
// reference exactly.
func TestDownReleaseReuseIsClean(t *testing.T) {
	rootA, psA, g := marchFixture(21, 2000, 2)
	rootB, psB, _ := marchFixture(22, 500, 2)
	for trial := 0; trial < 40; trial++ {
		root, ps := rootA, psA
		if trial%2 == 1 {
			root, ps = rootB, psB
		}
		balls := randomBalls(ps, g, 1+g.IntN(40))
		want, _ := referenceDown(root, ps, balls, 0, nil)
		got, st := DownFlat(root, ps, balls, 0, nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d hits, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: hit %d = %v, reference %v", trial, i, got[i], want[i])
			}
		}
		st.Release()
	}
}

func TestDownSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	root, ps, g := marchFixture(31, 4000, 3)
	balls := randomBalls(ps, g, 64)
	ctx := vm.Sequential().NewCtx()
	march := func() {
		_, st := DownFlatChaos(root, ps, balls, 0, ctx, nil)
		st.Release()
	}
	march() // grow the pooled buffers once
	if allocs := testing.AllocsPerRun(100, march); allocs != 0 {
		t.Fatalf("DownFlatChaos allocates %v per march in steady state, want 0", allocs)
	}
}
