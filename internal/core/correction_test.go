package core

import (
	"testing"

	"sepdc/internal/brute"
	"sepdc/internal/pts"
	"sepdc/internal/topk"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// runPunt sets up one punted correction: nA points on the left of x=0.5
// whose lists hold their k-NN among themselves, nB points on the right,
// and every left ball corrected against the right side. It returns the
// points, the corrected lists, the run's tally and its simulated charge.
func runPunt(t *testing.T, seed uint64, nA, nB, k int) ([]vec.Vec, []*topk.List, Stats, vm.Cost) {
	t.Helper()
	g := xrand.New(seed)
	pv := make([]vec.Vec, nA+nB)
	for i := range pv {
		x := 0.5 * g.Float64()
		if i >= nA {
			x += 0.5
		}
		pv[i] = vec.Of(x, g.Float64())
	}
	ps := pts.FromVecs(pv)
	left, right := make([]int, nA), make([]int, nB)
	for i := range left {
		left[i] = i
	}
	for i := range right {
		right[i] = nA + i
	}
	lists := topk.NewArena(len(pv), k).Lists()
	brute.AllKNNSubsetInto(ps, left, lists)
	tl := &tally{}
	ctx := vm.Sequential().NewCtx()
	queryCorrect(ps, lists, left, right, g.Split(), nil, ctx, tl, nil, canceller{}, new(corrScratch))
	return pv, lists, tl.s, ctx.Cost()
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
