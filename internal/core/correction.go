package core

import (
	"math"
	"sync"

	"sepdc/internal/geom"
	"sepdc/internal/march"
	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/pts"
	"sepdc/internal/septree"
	"sepdc/internal/topk"
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
// the marching balls, and a punt's split into finite and unbounded balls.
// Pooled, so the correction phase of a node allocates nothing of its own.
type corrScratch struct {
	crossIn, crossEx  []int
	balls             []march.Ball
	finite, unbounded []int
}

var corrPool = sync.Pool{New: func() any { return new(corrScratch) }}

// crossing appends to dst the members of side whose current
// k-neighborhood ball crosses sep. A point whose list is not yet full
// (fewer than k neighbors exist on its side) has a conceptually unbounded
// ball and is always included. By Lemma 6.1 these are exactly the balls
// that can gain a neighbor from the other side.
func crossing(dst []int, ps *pts.PointSet, lists []*topk.List, side []int, sep geom.Separator, ctx *vm.Ctx) []int {
	for _, i := range side {
		r2, full := lists[i].Radius2()
		if !full {
			dst = append(dst, i)
			continue
		}
		// Inflate the radius a hair: sqrt rounding must never demote a
		// crossing ball to interior/exterior (missing a tie candidate).
		// The Nextafter bump handles squared-distance underflow — r2 == 0
		// still admits ties out to sqrt(minSubnormal) ≈ 1.5e-162.
		r := math.Sqrt(math.Nextafter(r2, math.Inf(1))) * (1 + 1e-12)
		if sep.ClassifyBall(ps.At(i), r) == geom.Crossing {
			dst = append(dst, i)
		}
	}
	ctx.Prim(len(side)) // classify all balls: one vector primitive
	return dst
}

// ballsOf appends the marching balls of the crossing indices to dst.
// Not-yet-full lists produce balls with an effectively infinite radius,
// which the march classifies as crossing everywhere and whose leaf test
// accepts every point — precisely the needed semantics.
func ballsOf(dst []march.Ball, ps *pts.PointSet, lists []*topk.List, idx []int) []march.Ball {
	for _, i := range idx {
		r2, full := lists[i].Radius2()
		if !full {
			dst = append(dst, march.Ball{ID: i, Center: ps.At(i), Radius: math.Inf(1), Radius2: math.Inf(1)})
			continue
		}
		dst = append(dst, march.NewBall(i, ps.At(i), r2))
	}
	return dst
}

// fastCorrect runs the paper's Fast Correction in one direction: march the
// crossing balls of one side down the partition tree of the other side and
// offer every discovered (ball, point) pair to the ball's k-NN list.
// Returns false when the march aborted on the active-ball limit, in which
// case no list was modified and the caller must punt.
func fastCorrect(ps *pts.PointSet, lists []*topk.List, cross []int, otherTree *march.PNode,
	activeLimit int, opts *Options, ctx *vm.Ctx, tl *tally, sh *obs.Shard, cs *corrScratch) bool {

	if len(cross) == 0 || otherTree == nil {
		return true
	}
	sp := sh.Begin()
	cs.balls = ballsOf(cs.balls[:0], ps, lists, cross)
	hits, st := march.DownFlatChaos(otherTree, ps, cs.balls, activeLimit, ctx, opts.chaos())
	defer st.Release()
	clear(cs.balls) // drop the center views so the pool does not pin ps
	tl.add(func(s *Stats) {
		s.Duplications += st.Duplications
		if st.MaxActive > s.MaxMarchActive {
			s.MaxMarchActive = st.MaxActive
		}
		if opts != nil && opts.CollectProfiles {
			s.Profiles = append(s.Profiles, append([]int(nil), st.ActivePerLvl...))
		}
	})
	sh.Observe(obs.HMarchLevels, int64(st.Levels))
	sh.Observe(obs.HMarchMaxActive, int64(st.MaxActive))
	sh.Observe(obs.HMarchVisited, int64(st.TotalVisited))
	sh.Count(obs.CDuplications, int64(st.Duplications))
	sh.EndTrace(sp, obs.SpanMarch, int64(len(cross)))
	if st.Aborted {
		return false
	}
	// Candidate insertion is a pure distance loop; resolve the d-specialized
	// kernel once (bit-identical to ps.Dist2).
	dist2 := vec.Dist2Kernel(ps.Dim)
	for _, h := range hits {
		lists[h.BallID].Insert(h.Point, dist2(ps.At(h.BallID), ps.At(h.Point)))
	}
	// k-selection of the discovered candidates: one primitive over the hits
	// (the paper's SCAN-based closest-point selection; O(log log k) steps
	// for k > 1, absorbed into the constant here and noted in DESIGN.md).
	ctx.PrimK(2, len(hits))
	tl.add(func(s *Stats) {
		s.CandidatePairs += len(hits)
		s.FastCorrections++
	})
	sh.Count(obs.CFastCorrections, 1)
	sh.Count(obs.CCandidatePairs, int64(len(hits)))
	return true
}

// queryCorrect is the punt path (and the Section-5 baseline's only path):
// build the Section-3 search structure over the crossing balls of one side
// and query every point of the other side against it, offering each
// covering (ball, point) pair to the ball's list.
//
// Two kinds of ball are corrected by direct scan over the other side
// instead: unbounded balls (points whose lists are not full), which the
// search structure cannot hold, and every ball of a punt with at most
// directScanPairs (ball, point) pairs, which the structure cannot pay for.
func queryCorrect(ps *pts.PointSet, lists []*topk.List, cross []int, otherPts []int,
	g *xrand.RNG, opts *Options, ctx *vm.Ctx, tl *tally, sh *obs.Shard, cc canceller, cs *corrScratch) {

	if len(cross) == 0 || len(otherPts) == 0 || cc.cancelled() {
		return
	}
	sp := sh.Begin()
	defer func() { sh.EndTrace(sp, obs.SpanQueryCorrect, int64(len(cross))) }()
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
	// four-point kernel call.
	dist2 := vec.Dist2Kernel(ps.Dim)
	batch4 := vec.Dist2Batch4Kernel(ps.Dim)
	// directScan offers every other-side point to the lists of balls, and
	// charges the scan as the all-pairs distance primitive plus the
	// selection — the same rule as fastCorrect's candidate insertion.
	directScan := func(balls []int) {
		for _, i := range balls {
			pi := ps.At(i)
			l := lists[i]
			k := 0
			for ; k+4 <= len(otherPts); k += 4 {
				j0, j1, j2, j3 := otherPts[k], otherPts[k+1], otherPts[k+2], otherPts[k+3]
				da, db, dc, dd := batch4(pi, ps.At(j0), ps.At(j1), ps.At(j2), ps.At(j3))
				l.Insert(j0, da)
				l.Insert(j1, db)
				l.Insert(j2, dc)
				l.Insert(j3, dd)
			}
			for ; k < len(otherPts); k++ {
				l.Insert(otherPts[k], dist2(pi, ps.At(otherPts[k])))
			}
		}
		pairs := len(balls) * len(otherPts)
		ctx.PrimK(2, pairs)
		tl.add(func(s *Stats) { s.CandidatePairs += pairs })
		sh.Count(obs.CCandidatePairs, int64(pairs))
	}
	// A small punt scans all its balls at once; a large one scans only
	// the unbounded balls and builds the structure over the rest.
	if len(finite)*len(otherPts) <= directScanPairs {
		directScan(cross)
		tl.add(func(s *Stats) { s.QueryCorrections++ })
		sh.Count(obs.CQueryCorrections, 1)
		return
	}
	if len(unbounded) > 0 {
		directScan(unbounded)
	}

	// Build the query structure over the finite crossing balls, and
	// freeze it: the punt queries run on the same flat engine as serving.
	tree, err := septree.Build(puntSystem(ps, lists, finite, opts.k()), g.Split(), &septree.Options{Sep: opts.sep(), Done: cc.done})
	var frozen *septree.Frozen
	if err == nil {
		frozen, err = septree.Freeze(tree)
	}
	if err != nil {
		if cc.cancelled() {
			// The structure build was cut short by cancellation; the punt
			// correction is moot because the lists are being discarded.
			return
		}
		// Degenerate system (e.g. all centers identical): fall back to the
		// direct scan, still exact.
		directScan(finite)
		tl.add(func(s *Stats) { s.QueryCorrections++ })
		sh.Count(obs.CQueryCorrections, 1)
		return
	}
	ctx.Charge(tree.Stats.Cost)
	tl.add(func(s *Stats) { s.SeparatorTrials += tree.Stats.SeparatorTrials })
	sh.Count(obs.CSeparatorTrials, int64(tree.Stats.SeparatorTrials))
	sh.Count(obs.CSeptreeBuilds, 1)
	sh.Count(obs.CSeptreeStored, int64(tree.Stats.TotalStored))

	// Query every other-side point, conceptually all in parallel (Theorem
	// 3.1's query phase): steps = the deepest query path plus distributing
	// the queries and packing the results, work = the total nodes visited
	// plus the balls reported.
	var covered []int
	deepest, work, hits := 0, 0, 0
	for _, j := range otherPts {
		var visited int
		covered, visited, _ = frozen.CoveringClosed(ps.At(j), covered[:0])
		deepest = max(deepest, visited)
		work += visited + len(covered)
		for _, b := range covered {
			i := finite[b]
			lists[i].Insert(j, dist2(ps.At(i), ps.At(j)))
		}
		hits += len(covered)
	}
	ctx.Charge(vm.Cost{Steps: int64(deepest) + 2, Work: int64(work)})
	tl.add(func(s *Stats) {
		s.CandidatePairs += hits
		s.QueryCorrections++
	})
	sh.Count(obs.CCandidatePairs, int64(hits))
	sh.Count(obs.CQueryCorrections, 1)
}

// puntSystem is the ball system a large punt builds its search structure
// over: the finite crossing balls at their current k-th neighbor radii.
func puntSystem(ps *pts.PointSet, lists []*topk.List, finite []int, k int) *nbrsys.System {
	centers := make([]vec.Vec, len(finite))
	radii := make([]float64, len(finite))
	for j, i := range finite {
		r2, _ := lists[i].Radius2()
		centers[j] = ps.At(i)
		// Inflate, and bump past squared-distance underflow: never lose a tie.
		radii[j] = math.Sqrt(math.Nextafter(r2, math.Inf(1))) * (1 + 1e-12)
	}
	return &nbrsys.System{Centers: centers, Radii: radii, K: k}
}
