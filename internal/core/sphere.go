package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"

	"sepdc/internal/brute"
	"sepdc/internal/march"
	"sepdc/internal/obs"
	"sepdc/internal/pts"
	"sepdc/internal/separator"
	"sepdc/internal/topk"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// SphereDNC computes the exact k-nearest-neighbor lists of pv with the
// paper's Section-6 algorithm: sphere-separator divide and conquer with
// Fast Correction and punting. See the package comment for the outline.
// It is a validating wrapper over SphereDNCFlat.
func SphereDNC(pv []vec.Vec, g *xrand.RNG, opts *Options) (*Result, error) {
	ps, err := validate(pv)
	if err != nil {
		return nil, err
	}
	return SphereDNCFlat(ps, g, opts)
}

// SphereDNCFlat is SphereDNC over flat contiguous point storage — the hot
// entry point. Points must be finite and are not modified.
func SphereDNCFlat(ps *pts.PointSet, g *xrand.RNG, opts *Options) (*Result, error) {
	return SphereDNCFlatContext(context.Background(), ps, g, opts)
}

// SphereDNCFlatContext is SphereDNCFlat under a context: cancellation (or
// deadline expiry) is observed at every recursion node and at the
// correction-phase boundaries, the partial build is abandoned, and
// cx.Err() is returned. The probe is a single channel poll per node, so
// context.Background costs one nil comparison on the hot path.
func SphereDNCFlatContext(cx context.Context, ps *pts.PointSet, g *xrand.RNG, opts *Options) (*Result, error) {
	return run(cx, ps, g, opts, sphereSplit)
}

// HyperplaneDNC computes the same lists with the Section-5 baseline:
// median-hyperplane splits and query-structure correction at every node.
func HyperplaneDNC(pv []vec.Vec, g *xrand.RNG, opts *Options) (*Result, error) {
	ps, err := validate(pv)
	if err != nil {
		return nil, err
	}
	return HyperplaneDNCFlat(ps, g, opts)
}

// HyperplaneDNCFlat is HyperplaneDNC over flat contiguous point storage.
func HyperplaneDNCFlat(ps *pts.PointSet, g *xrand.RNG, opts *Options) (*Result, error) {
	return HyperplaneDNCFlatContext(context.Background(), ps, g, opts)
}

// HyperplaneDNCFlatContext is HyperplaneDNCFlat under a context, with the
// same cancellation semantics as SphereDNCFlatContext.
func HyperplaneDNCFlatContext(cx context.Context, ps *pts.PointSet, g *xrand.RNG, opts *Options) (*Result, error) {
	return run(cx, ps, g, opts, hyperplaneSplit)
}

// canceller is the cancellation probe threaded through every strand of one
// run. It is a value (no lock, no allocation); a nil done channel — the
// context.Background case — makes cancelled a single comparison.
type canceller struct {
	done <-chan struct{}
}

func (c canceller) cancelled() bool {
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

func validate(pv []vec.Vec) (*pts.PointSet, error) {
	if len(pv) == 0 {
		return nil, errors.New("core: no points")
	}
	for _, p := range pv {
		if len(p) != len(pv[0]) || !vec.IsFinite(p) {
			return nil, errors.New("core: points must be finite and share one dimension")
		}
	}
	return pts.FromVecs(pv), nil
}

// splitFunc produces a separator for a subproblem, reporting the trial
// count and whether corrections must always take the query path. sub is
// the node's gathered (contiguous) subset, and interior receives the
// separator's side of each of its points; depth is the recursion depth,
// which Bentley's rule uses to cycle dimensions.
type splitFunc func(sub *pts.PointSet, interior []bool, depth int, g *xrand.RNG, opts *Options) (sep separator.Result, alwaysQuery bool, err error)

func sphereSplit(sub *pts.PointSet, interior []bool, _ int, g *xrand.RNG, opts *Options) (separator.Result, bool, error) {
	res, err := separator.FindGoodSides(sub, interior, g, opts.sep())
	return res, false, err
}

// hyperplaneSplit is Bentley's oblivious rule: the median hyperplane
// orthogonal to dimension depth mod d, without looking at the data's
// shape. This is the faithful Section-5 baseline — and the reason the
// baseline can be forced to cross Ω(n) balls by inputs concentrated along
// a cutting hyperplane. When the cycled dimension has zero spread the
// widest-dimension median is used so the recursion still progresses.
func hyperplaneSplit(sub *pts.PointSet, interior []bool, depth int, g *xrand.RNG, opts *Options) (separator.Result, bool, error) {
	d := sub.Dim
	sep, err := separator.FixedHyperplaneFlat(sub, depth%d)
	if err != nil {
		sep, err = separator.MedianHyperplaneFlat(sub)
		if err != nil {
			return separator.Result{}, true, err
		}
	}
	res := separator.Result{Sep: sep, Stats: separator.EvaluateFlat(sep, sub, interior), Trials: 1}
	return res, true, nil
}

func run(cx context.Context, ps *pts.PointSet, g *xrand.RNG, opts *Options, split splitFunc) (*Result, error) {
	n := ps.N()
	if n == 0 {
		return nil, errors.New("core: no points")
	}
	if err := cx.Err(); err != nil {
		return nil, err
	}
	k := opts.k()
	// One arena allocation backs every point's k-NN list; the recursion's
	// base cases and corrections insert into the lists in place.
	lists := topk.NewArena(n, k).Lists()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	tl := &tally{}
	ctx := opts.machine().NewCtx()
	base := opts.baseSize(n)
	cc := canceller{done: cx.Done()}
	if cc.done != nil {
		// Carry cancellation into every separator search, the node's own
		// and those of the punts' query structures.
		o := Options{}
		if opts != nil {
			o = *opts
		}
		o.Sep = o.Sep.WithDone(cc.done)
		opts = &o
	}
	sh := opts.rec().Root()
	sp := sh.Begin()
	tree := rec(ps, idx, lists, 0, g, opts, split, base, ctx, tl, sh, cc)
	sh.EndTrace(sp, obs.SpanBuild, int64(n))
	tl.s.Cost = ctx.Cost()
	sh.Count(obs.CSimSteps, tl.s.Cost.Steps)
	sh.Count(obs.CSimWork, tl.s.Cost.Work)
	sh.Release()
	if cc.cancelled() {
		// The recursion collapsed early; the partially filled lists are
		// not a k-NN graph. Abandon them.
		return nil, cx.Err()
	}
	return &Result{Lists: lists, Tree: tree, Stats: tl.s}, nil
}

// baseCase brute-forces the subset into the points' own lists: the paper's
// "deterministically compute the neighborhood system in m time using m
// processors by testing all pairs" (Section 6.1).
func baseCase(ps *pts.PointSet, idx []int, lists []*topk.List, depth int, ctx *vm.Ctx, tl *tally, sh *obs.Shard) *march.PNode {
	sp := sh.Begin()
	brute.AllKNNSubsetInto(ps, idx, lists)
	ctx.PrimK(len(idx), len(idx))
	tl.add(func(s *Stats) {
		s.BaseCases++
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
	})
	sh.Count(obs.CBaseCases, 1)
	sh.End(sp, obs.PhaseBase, obs.SpanBase, int64(len(idx)))
	return &march.PNode{Pts: idx}
}

func rec(ps *pts.PointSet, idx []int, lists []*topk.List, depth int, g *xrand.RNG, opts *Options,
	split splitFunc, base int, ctx *vm.Ctx, tl *tally, sh *obs.Shard, cc canceller) *march.PNode {

	if cc.cancelled() {
		// The build is being abandoned: stop descending (and inserting)
		// immediately so the whole tree collapses in one flag check per
		// pending node. The partial tree is discarded by run.
		return nil
	}
	m := len(idx)
	if m <= base {
		return baseCase(ps, idx, lists, depth, ctx, tl, sh)
	}

	spDiv := sh.Begin()
	// The divide step materializes the node's subset contiguously: one
	// gather into pooled scratch, after which every separator trial
	// streams cache-friendly. No separator keeps a reference to the
	// subset, so the scratch goes back once the partition below has read
	// the accepted separator's sides.
	ds := divPool.Get().(*divScratch)
	ds.sub.Data = slices.Grow(ds.sub.Data[:0], m*ps.Dim)[:m*ps.Dim]
	ds.sub.Dim = ps.Dim
	ds.interior = slices.Grow(ds.interior[:0], m)[:m]
	ps.GatherInto(ds.sub.Data, idx)
	res, alwaysQuery, err := split(&ds.sub, ds.interior, depth, g.Split(), opts)
	if err != nil {
		divPool.Put(ds)
		if cc.cancelled() {
			// The separator search stopped on cancellation, not on an
			// unsplittable subset: abandon the node like any other.
			return nil
		}
		// Unsplittable subset (all points identical): brute force it.
		sh.End(spDiv, obs.PhaseDivide, obs.SpanDivide, int64(m))
		return baseCase(ps, idx, lists, depth, ctx, tl, sh)
	}
	tl.add(func(s *Stats) {
		s.Nodes++
		s.SeparatorTrials += res.Trials
		if res.Punted {
			s.SeparatorPunts++
		}
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
	})
	sh.Count(obs.CNodes, 1)
	sh.Count(obs.CSeparatorTrials, int64(res.Trials))
	sh.Observe(obs.HSeparatorTrials, int64(res.Trials))
	sh.Observe(obs.HNodeSize, int64(m))
	if res.Punted {
		sh.Count(obs.CSeparatorPunts, 1)
	}
	ctx.PrimK(res.Trials, m) // each Unit Time Separator trial: O(1) steps over m points

	// Partition by the search's sides into one exact-size slice: interior
	// (Side <= 0) from the front, exterior from the back. Reversing the
	// exterior part restores idx order on both sides.
	part := make([]int, m)
	lo, hi := 0, m
	for i, j := range idx {
		if ds.interior[i] {
			part[lo] = j
			lo++
		} else {
			hi--
			part[hi] = j
		}
	}
	divPool.Put(ds)
	inIdx, exIdx := part[:lo:lo], part[lo:]
	slices.Reverse(exIdx)
	ctx.PrimK(2, m) // classify + pack
	sh.End(spDiv, obs.PhaseDivide, obs.SpanDivide, int64(m))
	if len(inIdx) == 0 || len(exIdx) == 0 {
		// A vacuous split (possible for hyperplanes on pathological data):
		// brute force rather than recurse without progress.
		return baseCase(ps, idx, lists, depth, ctx, tl, sh)
	}

	// Recurse on the two sides in parallel. The left branch may run on
	// another worker, so it records into a forked shard; the right branch
	// runs on this strand (vm.Ctx.Fork executes the last branch inline)
	// and keeps ours. The recurse phase is charged only with fork-join
	// overhead: inclusive fork time minus both children's run time (whose
	// own divide/correct/base spans account for the remainder), floored at
	// zero — when the branches truly overlap the fork's wall time is less
	// than the durations' sum and the overhead rounds down to nothing.
	node := &march.PNode{Sep: res.Sep}
	gl, gr := g.Split(), g.Split()
	if sh == nil {
		// Disabled-observability fork: no duration captures. The branch
		// exists so the hot path does not pay the two per-node heap cells
		// the timed variant's shared durL/durR variables escape into.
		ctx.Fork(
			func(c *vm.Ctx) { node.Left = rec(ps, inIdx, lists, depth+1, gl, opts, split, base, c, tl, nil, cc) },
			func(c *vm.Ctx) { node.Right = rec(ps, exIdx, lists, depth+1, gr, opts, split, base, c, tl, nil, cc) },
		)
	} else {
		shL := sh.Fork()
		spRec := sh.Begin()
		var durL, durR int64
		ctx.Fork(
			func(c *vm.Ctx) {
				t0 := shL.Now()
				node.Left = rec(ps, inIdx, lists, depth+1, gl, opts, split, base, c, tl, shL, cc)
				durL = shL.Now() - t0
				shL.Release()
			},
			func(c *vm.Ctx) {
				t0 := sh.Now()
				node.Right = rec(ps, exIdx, lists, depth+1, gr, opts, split, base, c, tl, sh, cc)
				durR = sh.Now() - t0
			},
		)
		sh.EndAdjusted(spRec, obs.PhaseRecurse, obs.SpanRecurse, int64(m), durL+durR)
	}
	if cc.cancelled() {
		// Skip the correction phase outright: the lists are being thrown
		// away, and corrections are the expensive part of a node.
		return node
	}

	// Correction phase (Section 6.1's Correction / Section 5's step 3).
	spCor := sh.Begin()
	cs := corrPool.Get().(*corrScratch)
	defer corrPool.Put(cs)
	cs.crossIn = crossing(cs.crossIn[:0], ps, lists, inIdx, res.Sep, ctx)
	cs.crossEx = crossing(cs.crossEx[:0], ps, lists, exIdx, res.Sep, ctx)
	crossIn, crossEx := cs.crossIn, cs.crossEx
	crossed := len(crossIn) + len(crossEx)
	sh.Observe(obs.HCrossingBalls, int64(crossed))

	gq := g.Split()
	if alwaysQuery {
		queryCorrect(ps, lists, crossIn, exIdx, gq, opts, ctx, tl, sh, cc, cs)
		queryCorrect(ps, lists, crossEx, inIdx, gq, opts, ctx, tl, sh, cc, cs)
		sh.End(spCor, obs.PhaseCorrect, obs.SpanCorrect, int64(crossed))
		return node
	}

	// Punt threshold: attempt the fast path only when the crossing set is
	// small (ι_{B_I}(S) + ι_{B_E}(S) < m^μ). The chaos injector can force
	// the punt at selected depths — the Punting Lemma's bad-luck event on
	// demand, with identical correction semantics.
	threshold := math.Pow(float64(m), opts.mu())
	if float64(crossed) >= threshold || opts.chaos().ForcePunt(depth) {
		tl.add(func(s *Stats) { s.ThresholdPunts++ })
		sh.Count(obs.CThresholdPunts, 1)
		queryCorrect(ps, lists, crossIn, exIdx, gq, opts, ctx, tl, sh, cc, cs)
		queryCorrect(ps, lists, crossEx, inIdx, gq, opts, ctx, tl, sh, cc, cs)
		sh.End(spCor, obs.PhaseCorrect, obs.SpanCorrect, int64(crossed))
		return node
	}

	// Fast Correction, each direction independently; an aborted march
	// punts only its own direction. A chaos-forced abort skips the march
	// entirely (as if it had flooded at level 0) and takes the same punt.
	activeLimit := int(activeFactor*threshold*math.Log2(float64(m))) + 16
	forceAbort := opts.chaos().ForceMarchAbort(depth)
	if forceAbort || !fastCorrect(ps, lists, crossIn, node.Right, activeLimit, opts, ctx, tl, sh, cs) {
		tl.add(func(s *Stats) { s.MarchAborts++ })
		sh.Count(obs.CMarchAborts, 1)
		queryCorrect(ps, lists, crossIn, exIdx, gq, opts, ctx, tl, sh, cc, cs)
	}
	if forceAbort || !fastCorrect(ps, lists, crossEx, node.Left, activeLimit, opts, ctx, tl, sh, cs) {
		tl.add(func(s *Stats) { s.MarchAborts++ })
		sh.Count(obs.CMarchAborts, 1)
		queryCorrect(ps, lists, crossEx, inIdx, gq, opts, ctx, tl, sh, cc, cs)
	}
	sh.End(spCor, obs.PhaseCorrect, obs.SpanCorrect, int64(crossed))
	return node
}

// divScratch is the divide step's pooled scratch: the node's contiguous
// subset and the accepted separator's side of each of its points.
type divScratch struct {
	sub      pts.PointSet
	interior []bool
}

var divPool = sync.Pool{New: func() any { return new(divScratch) }}
