package core

import (
	"testing"

	"sepdc/internal/brute"
	"sepdc/internal/geom"
	"sepdc/internal/pts"
	"sepdc/internal/septree"
	"sepdc/internal/topk"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// setupPunt sets up one punted correction: nA points on the left of x=0.5
// (positions [0, nA)) whose lists hold their k-NN among themselves, nB
// points on the right (positions [nA, nA+nB)), in input order. The
// returned generator is the one the correction draws from next.
func setupPunt(seed uint64, nA, nB, k int) (b *builder, left []int, g *xrand.RNG) {
	g = xrand.New(seed)
	pv := make([]vec.Vec, nA+nB)
	for i := range pv {
		x := 0.5 * g.Float64()
		if i >= nA {
			x += 0.5
		}
		pv[i] = vec.Of(x, g.Float64())
	}
	b = &builder{ps: pts.FromVecs(pv), id: make([]int, len(pv)), lists: topk.NewArena(len(pv), k).Lists(), tl: &tally{}}
	for i := range b.id {
		b.id[i] = i
	}
	left = b.id[:nA:nA]
	brute.AllKNNInto(b.rows(0, nA), left, b.lists[:nA])
	return b, left, g
}

// runPunt runs setupPunt's correction, every left ball corrected against
// the right side. It returns the points, the corrected lists, the run's
// tally and its simulated charge.
func runPunt(t *testing.T, seed uint64, nA, nB, k int) ([]vec.Vec, []*topk.List, Stats, vm.Cost) {
	t.Helper()
	b, left, g := setupPunt(seed, nA, nB, k)
	ctx := vm.Sequential().NewCtx()
	b.queryCorrect(left, nA, nA+nB, g.Split(), ctx, nil, new(corrScratch))
	return b.ps.Vecs(), b.lists, b.tl.s, ctx.Cost()
}

// checkLeftExact: after the correction every left point's list must be
// its exact k-NN over both sides.
func checkLeftExact(t *testing.T, pv []vec.Vec, lists []*topk.List, nA, k int, label string) {
	t.Helper()
	want := brute.AllKNN(pv, k)
	for i := 0; i < nA; i++ {
		if !topk.Equal(lists[i], want[i]) {
			t.Fatalf("%s: point %d list %v, brute force %v", label, i, lists[i].Items(), want[i].Items())
		}
	}
}

// Punts at and just below the crossover scan directly, and are charged as
// the all-pairs distance primitive plus the selection: 2 steps, 2·pairs
// work, no separator trial. Just above it they build a query structure.
// Both sides of the crossover equal brute force.
func TestQueryCorrectCrossover(t *testing.T) {
	const k = 4
	cases := []struct {
		nA, nB int
		direct bool
	}{
		{31, 33, true},  // 1023 pairs
		{32, 32, true},  // 1024 pairs: the crossover itself
		{40, 26, false}, // 1040 pairs
		{64, 64, false},
	}
	for _, c := range cases {
		pairs := c.nA * c.nB
		if (pairs <= directScanPairs) != c.direct {
			t.Fatalf("case %d×%d no longer straddles the crossover %d", c.nA, c.nB, directScanPairs)
		}
		for seed := uint64(1); seed <= 5; seed++ {
			pv, lists, st, cost := runPunt(t, seed, c.nA, c.nB, k)
			checkLeftExact(t, pv, lists, c.nA, k, "crossover")
			if st.QueryCorrections != 1 {
				t.Fatalf("%d×%d: %d query corrections, want 1", c.nA, c.nB, st.QueryCorrections)
			}
			direct := vm.Cost{Steps: 2, Work: 2 * int64(pairs)}
			if c.direct {
				if cost != direct || st.SeparatorTrials != 0 || st.CandidatePairs != pairs {
					t.Fatalf("%d×%d: cost %+v, trials %d, candidates %d; want cost %+v, 0 trials, %d candidates",
						c.nA, c.nB, cost, st.SeparatorTrials, st.CandidatePairs, direct, pairs)
				}
			} else if st.SeparatorTrials == 0 || cost == direct {
				t.Fatalf("%d×%d: cost %+v with %d trials; want the query-structure path", c.nA, c.nB, cost, st.SeparatorTrials)
			}
		}
	}
}

// Unbounded balls (lists not yet full) are scanned directly under the
// same charge rule, whatever the pair count.
func TestQueryCorrectUnboundedCharge(t *testing.T) {
	const k = 4
	for _, nB := range []int{10, 500} {
		pv, lists, st, cost := runPunt(t, 9, 3, nB, k) // 3 points: at most 2 neighbors each
		checkLeftExact(t, pv, lists, 3, k, "unbounded")
		pairs := 3 * nB
		if want := (vm.Cost{Steps: 2, Work: 2 * int64(pairs)}); cost != want {
			t.Fatalf("nB=%d: cost %+v, want %+v", nB, cost, want)
		}
		if st.CandidatePairs != pairs || st.SeparatorTrials != 0 {
			t.Fatalf("nB=%d: %d candidates, %d trials; want %d, 0", nB, st.CandidatePairs, st.SeparatorTrials, pairs)
		}
	}
}

// A punt above the crossover is charged its structure's build plus
// Theorem 3.1's query phase over the other side, all queries in parallel:
// steps = the deepest query path + 2 (distribute, pack), work = the nodes
// visited plus the balls reported. The reference replays the same build
// for the nodes visited and takes the balls reported from a brute-force
// closed scan of every ball, one point at a time.
func TestQueryCorrectQueryCharge(t *testing.T) {
	const k = 4
	for seed := uint64(1); seed <= 3; seed++ {
		_, _, st, cost := runPunt(t, seed, 64, 64, k)

		b, left, g := setupPunt(seed, 64, 64, k)
		// runPunt's options (the defaults) and its generator: queryCorrect
		// gets g.Split() and splits it again for the build.
		sys := b.puntSystem(left)
		tree, err := septree.Build(sys, g.Split().Split(), &septree.Options{Sep: b.opts.sep()})
		if err != nil {
			t.Fatal(err)
		}
		deepest, work, hits := 0, 0, 0
		for j := 64; j < 128; j++ {
			q := b.ps.At(j)
			_, visited, _ := tree.CoveringClosed(q, nil)
			balls := 0
			for i, c := range sys.Centers {
				if r := sys.Radii[i]; vec.Dist2(q, c) <= r*r+geom.Eps {
					balls++
				}
			}
			deepest = max(deepest, visited)
			work += visited + balls
			hits += balls
		}
		want := tree.Stats().Cost
		want.Steps += int64(deepest) + 2
		want.Work += int64(work)
		if cost != want {
			t.Fatalf("seed %d: cost %+v, want %+v", seed, cost, want)
		}
		if st.CandidatePairs != hits || st.SeparatorTrials != tree.Stats().SeparatorTrials {
			t.Fatalf("seed %d: %d candidates, %d trials; want %d, %d",
				seed, st.CandidatePairs, st.SeparatorTrials, hits, tree.Stats().SeparatorTrials)
		}
	}
}
