package core

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"sepdc/internal/geom"
	"sepdc/internal/march"
	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/septree"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// directScanPairs is the punt crossover: a query correction whose finite
// crossing balls and other-side points form at most this many pairs scans
// them directly instead of building a Section-3 structure over a handful
// of balls (the paper brute-forces every subproblem this small). Measured
// on the n=10⁵, d=3, k=4 build, where most punts pair 10–30 balls with
// 10–30 points: 1024 costs about 6% less CPU than 256, and 4096 or 16384
// gain nothing measurable over it while adding simulated work.
const directScanPairs = 1024

// corrScratch is one node's correction storage: the two crossing sets,
// the marching balls, the marches' frontiers, hits and profiles, and a
// punt's split into finite and unbounded balls. Pooled, so the correction
// phase of a node allocates nothing of its own.
type corrScratch struct {
	crossIn, crossEx  []int
	balls             []march.Ball
	march             march.Scratch
	finite, unbounded []int
}

var corrPool = sync.Pool{New: func() any { return new(corrScratch) }}

// crossing appends to dst the positions in [lo, hi) whose current
// k-neighborhood ball crosses sep. A point whose list is not yet full
// (fewer than k neighbors exist on its side) has a conceptually unbounded
// ball and is always included. By Lemma 6.1 these are exactly the balls
// that can gain a neighbor from the other side.
func (b *builder) crossing(dst []int, lo, hi int, sep geom.Separator, ctx *vm.Ctx) []int {
	for i := lo; i < hi; i++ {
		r2, full := b.lists[i].Radius2()
		if !full {
			dst = append(dst, i)
			continue
		}
		// Inflate the radius a hair: sqrt rounding must never demote a
		// crossing ball to interior/exterior (missing a tie candidate).
		if sep.ClassifyBall(b.ps.At(i), march.InflatedRadius(r2)) == geom.Crossing {
			dst = append(dst, i)
		}
	}
	ctx.Prim(hi - lo) // classify all balls: one vector primitive
	return dst
}

// ballsOf appends the marching balls of the crossing positions to dst.
// Not-yet-full lists produce balls with an effectively infinite radius,
// which the march classifies as crossing everywhere and whose leaf test
// accepts every point — precisely the needed semantics.
func (b *builder) ballsOf(dst []march.Ball, cross []int) []march.Ball {
	for _, i := range cross {
		r2, full := b.lists[i].Radius2()
		if !full {
			dst = append(dst, march.Ball{ID: i, Center: b.ps.At(i), Radius: math.Inf(1), Radius2: math.Inf(1)})
			continue
		}
		dst = append(dst, march.NewBall(i, b.ps.At(i), r2))
	}
	return dst
}

// fastCorrect runs the paper's Fast Correction in one direction: march the
// crossing balls of one side down the partition tree of the other side,
// rooted at other, and offer every discovered (ball, point) pair to the
// ball's k-NN list. Returns false when the march aborted on the
// active-ball limit, in which case no list was modified and the caller
// must punt.
func (b *builder) fastCorrect(cross []int, other march.Ref, activeLimit int,
	ctx *vm.Ctx, sh *obs.Shard, cs *corrScratch) bool {

	if len(cross) == 0 {
		return true
	}
	sp := sh.Begin()
	cs.balls = b.ballsOf(cs.balls[:0], cross)
	hits, st := march.DownFlatChaos(b.tree, other, cs.balls, activeLimit, ctx, b.opts.chaos(), &cs.march)
	clear(cs.balls) // drop the center views so the pool does not pin the points
	b.tl.add(func(s *Stats) {
		s.Duplications += st.Duplications
		if st.MaxActive > s.MaxMarchActive {
			s.MaxMarchActive = st.MaxActive
		}
		if b.opts != nil && b.opts.CollectProfiles {
			s.Profiles = append(s.Profiles, append([]int(nil), st.ActivePerLvl...))
		}
	})
	sh.Observe(obs.HMarchLevels, int64(st.Levels))
	sh.Observe(obs.HMarchMaxActive, int64(st.MaxActive))
	sh.Observe(obs.HMarchVisited, int64(st.TotalVisited))
	sh.EndTrace(sp, obs.SpanMarch, int64(len(cross)))
	if st.Aborted {
		return false
	}
	// Candidate insertion is a pure distance loop; resolve the d-specialized
	// kernel once (bit-identical to ps.Dist2).
	dist2 := vec.Dist2Kernel(b.ps.Dim)
	for _, h := range hits {
		b.lists[h.BallID].Insert(b.id[h.Point], dist2(b.ps.At(h.BallID), b.ps.At(h.Point)))
	}
	// k-selection of the discovered candidates: one primitive over the hits
	// (the paper's SCAN-based closest-point selection; O(log log k) steps
	// for k > 1, absorbed into the constant here and noted in DESIGN.md).
	ctx.PrimK(2, len(hits))
	b.tl.add(func(s *Stats) {
		s.CandidatePairs += len(hits)
		s.FastCorrections++
	})
	return true
}

// queryCorrect is the punt path (and the Section-5 baseline's only path):
// build the Section-3 search structure over the crossing balls of one side
// and query every point of the other side, the positions [lo, hi),
// against it, offering each covering (ball, point) pair to the ball's
// list.
//
// Two kinds of ball are corrected by direct scan over the other side
// instead: unbounded balls (points whose lists are not full), which the
// search structure cannot hold, and every ball of a punt with at most
// directScanPairs (ball, point) pairs, which the structure cannot pay for.
func (b *builder) queryCorrect(cross []int, lo, hi int, g *xrand.RNG, ctx *vm.Ctx, sh *obs.Shard, cs *corrScratch) {
	if len(cross) == 0 || lo == hi || b.cc.cancelled() {
		return
	}
	sp := sh.Begin()
	defer func() { sh.EndTrace(sp, obs.SpanQueryCorrect, int64(len(cross))) }()
	ps, lists, id := b.ps, b.lists, b.id
	finite, unbounded := cs.finite[:0], cs.unbounded[:0]
	for _, i := range cross {
		if _, full := lists[i].Radius2(); full {
			finite = append(finite, i)
		} else {
			unbounded = append(unbounded, i)
		}
	}
	cs.finite, cs.unbounded = finite, unbounded
	// All of queryCorrect's candidate loops share the d-specialized kernels
	// (bit-identical to ps.Dist2); the direct scans run four candidates per
	// four-point kernel call, over consecutive rows.
	dist2 := vec.Dist2Kernel(ps.Dim)
	batch4 := vec.Dist2Batch4Kernel(ps.Dim)
	// directScan offers every other-side point to the lists of balls, and
	// charges the scan as the all-pairs distance primitive plus the
	// selection — the same rule as fastCorrect's candidate insertion.
	directScan := func(balls []int) {
		for _, i := range balls {
			pi := ps.At(i)
			l := lists[i]
			j := lo
			for ; j+4 <= hi; j += 4 {
				da, db, dc, dd := batch4(pi, ps.At(j), ps.At(j+1), ps.At(j+2), ps.At(j+3))
				l.Insert(id[j], da)
				l.Insert(id[j+1], db)
				l.Insert(id[j+2], dc)
				l.Insert(id[j+3], dd)
			}
			for ; j < hi; j++ {
				l.Insert(id[j], dist2(pi, ps.At(j)))
			}
		}
		pairs := len(balls) * (hi - lo)
		ctx.PrimK(2, pairs)
		b.tl.add(func(s *Stats) { s.CandidatePairs += pairs })
	}
	// A small punt scans all its balls at once; a large one scans only
	// the unbounded balls and builds the structure over the rest.
	if len(finite)*(hi-lo) <= directScanPairs {
		directScan(cross)
		b.tl.add(func(s *Stats) { s.QueryCorrections++ })
		return
	}
	if len(unbounded) > 0 {
		directScan(unbounded)
	}

	// Build the query structure over the finite crossing balls, in input
	// order: the structure depends on its balls' order, and the children's
	// recursions have permuted this side's range. The punt queries run on
	// the same flat engine as serving.
	slices.SortFunc(finite, func(x, y int) int { return cmp.Compare(id[x], id[y]) })
	tree, err := septree.Build(b.puntSystem(finite), g.Split(), &septree.Options{Sep: b.opts.sep(), Done: b.cc.done})
	if err != nil {
		if b.cc.cancelled() {
			// The structure build was cut short by cancellation; the punt
			// correction is moot because the lists are being discarded.
			return
		}
		// Degenerate system (e.g. all centers identical): fall back to the
		// direct scan, still exact.
		directScan(finite)
		b.tl.add(func(s *Stats) { s.QueryCorrections++ })
		return
	}
	st := tree.Stats()
	ctx.Charge(st.Cost)
	b.tl.add(func(s *Stats) {
		s.SeparatorTrials += st.SeparatorTrials
		s.SeptreeBuilds++
		s.SeptreeStored += st.TotalStored
	})

	// Query every other-side point, conceptually all in parallel (Theorem
	// 3.1's query phase): steps = the deepest query path plus distributing
	// the queries and packing the results, work = the total nodes visited
	// plus the balls reported.
	var covered []int
	deepest, work, hits := 0, 0, 0
	for j := lo; j < hi; j++ {
		var visited int
		covered, visited, _ = tree.CoveringClosed(ps.At(j), covered[:0])
		deepest = max(deepest, visited)
		work += visited + len(covered)
		for _, c := range covered {
			i := finite[c]
			lists[i].Insert(id[j], dist2(ps.At(i), ps.At(j)))
		}
		hits += len(covered)
	}
	ctx.Charge(vm.Cost{Steps: int64(deepest) + 2, Work: int64(work)})
	b.tl.add(func(s *Stats) {
		s.CandidatePairs += hits
		s.QueryCorrections++
	})
}

// puntSystem is the ball system a large punt builds its search structure
// over: the finite crossing balls at their current k-th neighbor radii.
func (b *builder) puntSystem(finite []int) *nbrsys.System {
	centers := make([]vec.Vec, len(finite))
	radii := make([]float64, len(finite))
	for j, i := range finite {
		r2, _ := b.lists[i].Radius2()
		centers[j] = b.ps.At(i)
		radii[j] = march.InflatedRadius(r2) // never lose a tie
	}
	return &nbrsys.System{Centers: centers, Radii: radii, K: b.opts.k()}
}
