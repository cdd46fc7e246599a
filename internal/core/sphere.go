package core

import (
	"context"
	"errors"
	"math"

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
// It validates pv and builds on its one flat copy; pv is not modified.
func SphereDNC(pv []vec.Vec, g *xrand.RNG, opts *Options) (*Result, error) {
	ps, err := validate(pv)
	if err != nil {
		return nil, err
	}
	return run(context.Background(), ps, g, opts, sphereSplit)
}

// SphereDNCFlatContext is SphereDNC over flat contiguous point storage —
// the hot entry point — under a context. Points must be finite. The
// build takes ps over: the recursion permutes its rows in place, so a
// caller that needs them afterwards passes a copy. Cancellation (or
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
	return run(context.Background(), ps, g, opts, hyperplaneSplit)
}

// HyperplaneDNCFlatContext is HyperplaneDNC over flat contiguous point
// storage under a context. Like SphereDNCFlatContext it takes ps over
// and permutes its rows, with the same cancellation semantics.
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
// the node's range of the working copy, and interior receives the
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

// builder is one run's shared state. The recursion works on a copy of
// the points that the run owns, permuted in place as it divides, so that
// every node's points are one contiguous range [lo, hi) of positions: the
// paper's per-node packed vector. Sibling strands own disjoint ranges,
// and each node records itself in the partition tree's slot for its
// split position or, for a leaf, its first position.
type builder struct {
	ps    *pts.PointSet // the working copy, in recursion order
	id    []int         // position → input index
	tree  *march.Tree   // over ps and id
	lists []*topk.List  // by position; entries carry input indices
	opts  *Options
	split splitFunc
	base  int
	tl    *tally
	cc    canceller

	// The divide step's scratch, by position like the points, so a node
	// uses its own range of it: the accepted separator's side of each
	// point, and the exterior rows and ids while the partition moves them.
	interior []bool
	exRows   []float64
	exIDs    []int
}

// run builds on ps, which it owns: the recursion permutes its rows.
func run(cx context.Context, ps *pts.PointSet, g *xrand.RNG, opts *Options, split splitFunc) (*Result, error) {
	n := ps.N()
	if n == 0 {
		return nil, errors.New("core: no points")
	}
	if err := cx.Err(); err != nil {
		return nil, err
	}
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
	// One arena allocation backs every point's k-NN list, in position
	// order; the recursion's base cases and corrections insert into the
	// lists in place.
	b := &builder{ps: ps, id: make([]int, n),
		lists: topk.NewArena(n, opts.k()).Lists(), opts: opts, split: split,
		base: opts.baseSize(n), tl: &tally{}, cc: cc,
		interior: make([]bool, n), exRows: make([]float64, len(ps.Data)), exIDs: make([]int, n)}
	for i := range b.id {
		b.id[i] = i
	}
	b.tree = &march.Tree{Rows: ps, ID: b.id, Nodes: make([]march.Node, n), Ends: make([]int32, n)}
	ctx := opts.machine().NewCtx()
	sh := opts.rec().Root()
	sp := sh.Begin()
	b.tree.Root = b.rec(0, n, 0, g, ctx, sh)
	sh.EndTrace(sp, obs.SpanBuild, int64(n))
	b.tl.s.Cost = ctx.Cost()
	sh.Release()
	if cc.cancelled() {
		// The recursion collapsed early; the partially filled lists are
		// not a k-NN graph. Abandon them.
		return nil, cx.Err()
	}
	// Hand back the input's order: list i is point i's.
	lists := make([]*topk.List, n)
	for p, i := range b.id {
		lists[i] = b.lists[p]
	}
	return &Result{Lists: lists, Tree: b.tree, Stats: b.tl.s}, nil
}

// rows returns the positions [lo, hi) of the working copy as a point set
// view.
func (b *builder) rows(lo, hi int) *pts.PointSet {
	d := b.ps.Dim
	return &pts.PointSet{Data: b.ps.Data[lo*d : hi*d : hi*d], Dim: d}
}

// baseCase brute-forces the range into the points' own lists: the paper's
// "deterministically compute the neighborhood system in m time using m
// processors by testing all pairs" (Section 6.1). The range is a leaf of
// the partition tree.
func (b *builder) baseCase(lo, hi, depth int, ctx *vm.Ctx, sh *obs.Shard) march.Ref {
	sp := sh.Begin()
	brute.AllKNNInto(b.rows(lo, hi), b.id[lo:hi], b.lists[lo:hi])
	ctx.PrimK(hi-lo, hi-lo)
	b.tl.add(func(s *Stats) {
		s.BaseCases++
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
	})
	sh.End(sp, obs.PhaseBase, obs.SpanBase, int64(hi-lo))
	b.tree.Ends[lo] = int32(hi)
	return march.LeafRef(lo)
}

// rec builds the subtree of the range [lo, hi) and returns its root.
func (b *builder) rec(lo, hi, depth int, g *xrand.RNG, ctx *vm.Ctx, sh *obs.Shard) march.Ref {
	if b.cc.cancelled() {
		// The build is being abandoned: stop descending (and inserting)
		// immediately so the whole tree collapses in one flag check per
		// pending node. The partial tree is discarded by run, and no
		// correction marches it.
		return march.LeafRef(lo)
	}
	m := hi - lo
	if m <= b.base {
		return b.baseCase(lo, hi, depth, ctx, sh)
	}

	spDiv := sh.Begin()
	// The node's points are already contiguous: every separator trial
	// streams its range of the working copy. No separator keeps a
	// reference to it, so the partition below may move its rows.
	res, alwaysQuery, err := b.split(b.rows(lo, hi), b.interior[lo:hi], depth, g.Split(), b.opts)
	if err != nil {
		if b.cc.cancelled() {
			// The separator search stopped on cancellation, not on an
			// unsplittable subset: abandon the node like any other.
			return march.LeafRef(lo)
		}
		// Unsplittable subset (all points identical): brute force it.
		sh.End(spDiv, obs.PhaseDivide, obs.SpanDivide, int64(m))
		return b.baseCase(lo, hi, depth, ctx, sh)
	}
	b.tl.add(func(s *Stats) {
		s.Nodes++
		s.SeparatorTrials += res.Trials
		if res.Punted {
			s.SeparatorPunts++
		}
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
	})
	sh.Observe(obs.HSeparatorTrials, int64(res.Trials))
	sh.Observe(obs.HNodeSize, int64(m))
	ctx.PrimK(res.Trials, m) // each Unit Time Separator trial: O(1) steps over m points

	mid := b.partition(lo, hi)
	ctx.PrimK(2, m) // classify + pack
	sh.End(spDiv, obs.PhaseDivide, obs.SpanDivide, int64(m))
	if mid == lo || mid == hi {
		// A vacuous split (possible for hyperplanes on pathological data):
		// brute force rather than recurse without progress.
		return b.baseCase(lo, hi, depth, ctx, sh)
	}

	// Recurse on the two sides in parallel. The left branch may run on
	// another worker, so it records into a forked shard; the right branch
	// runs on this strand (vm.Ctx.Fork executes the last branch inline)
	// and keeps ours. The recurse phase is charged only with fork-join
	// overhead: inclusive fork time minus both children's run time (whose
	// own divide/correct/base spans account for the remainder), floored at
	// zero — when the branches truly overlap the fork's wall time is less
	// than the durations' sum and the overhead rounds down to nothing.
	// The node's slot is its split position. Each child strand writes its
	// subtree's root into its own field of the slot.
	node := &b.tree.Nodes[mid]
	node.Sep = res.Sep
	gl, gr := g.Split(), g.Split()
	if sh == nil {
		// Disabled-observability fork: no duration captures. The branch
		// exists so the hot path does not pay the two per-node heap cells
		// the timed variant's shared durL/durR variables escape into.
		ctx.Fork(
			func(c *vm.Ctx) { node.Left = b.rec(lo, mid, depth+1, gl, c, nil) },
			func(c *vm.Ctx) { node.Right = b.rec(mid, hi, depth+1, gr, c, nil) },
		)
	} else {
		shL := sh.Fork()
		spRec := sh.Begin()
		var durL, durR int64
		ctx.Fork(
			func(c *vm.Ctx) {
				t0 := shL.Now()
				node.Left = b.rec(lo, mid, depth+1, gl, c, shL)
				durL = shL.Now() - t0
				shL.Release()
			},
			func(c *vm.Ctx) {
				t0 := sh.Now()
				node.Right = b.rec(mid, hi, depth+1, gr, c, sh)
				durR = sh.Now() - t0
			},
		)
		sh.EndAdjusted(spRec, obs.PhaseRecurse, obs.SpanRecurse, int64(m), durL+durR)
	}
	if b.cc.cancelled() {
		// Skip the correction phase outright: the lists are being thrown
		// away, and corrections are the expensive part of a node.
		return march.Ref(mid)
	}

	// Correction phase (Section 6.1's Correction / Section 5's step 3).
	spCor := sh.Begin()
	cs := corrPool.Get().(*corrScratch)
	defer corrPool.Put(cs)
	cs.crossIn = b.crossing(cs.crossIn[:0], lo, mid, res.Sep, ctx)
	cs.crossEx = b.crossing(cs.crossEx[:0], mid, hi, res.Sep, ctx)
	crossIn, crossEx := cs.crossIn, cs.crossEx
	crossed := len(crossIn) + len(crossEx)
	sh.Observe(obs.HCrossingBalls, int64(crossed))

	gq := g.Split()
	if alwaysQuery {
		b.queryCorrect(crossIn, mid, hi, gq, ctx, sh, cs)
		b.queryCorrect(crossEx, lo, mid, gq, ctx, sh, cs)
		sh.End(spCor, obs.PhaseCorrect, obs.SpanCorrect, int64(crossed))
		return march.Ref(mid)
	}

	// Punt threshold: attempt the fast path only when the crossing set is
	// small (ι_{B_I}(S) + ι_{B_E}(S) < m^μ). The chaos injector can force
	// the punt at selected depths — the Punting Lemma's bad-luck event on
	// demand, with identical correction semantics.
	threshold := math.Pow(float64(m), b.opts.mu())
	if float64(crossed) >= threshold || b.opts.chaos().ForcePunt(depth) {
		b.tl.add(func(s *Stats) { s.ThresholdPunts++ })
		b.queryCorrect(crossIn, mid, hi, gq, ctx, sh, cs)
		b.queryCorrect(crossEx, lo, mid, gq, ctx, sh, cs)
		sh.End(spCor, obs.PhaseCorrect, obs.SpanCorrect, int64(crossed))
		return march.Ref(mid)
	}

	// Fast Correction, each direction independently; an aborted march
	// punts only its own direction. A chaos-forced abort skips the march
	// entirely (as if it had flooded at level 0) and takes the same punt.
	activeLimit := int(activeFactor*threshold*math.Log2(float64(m))) + 16
	forceAbort := b.opts.chaos().ForceMarchAbort(depth)
	if forceAbort || !b.fastCorrect(crossIn, node.Right, activeLimit, ctx, sh, cs) {
		b.tl.add(func(s *Stats) { s.MarchAborts++ })
		b.queryCorrect(crossIn, mid, hi, gq, ctx, sh, cs)
	}
	if forceAbort || !b.fastCorrect(crossEx, node.Left, activeLimit, ctx, sh, cs) {
		b.tl.add(func(s *Stats) { s.MarchAborts++ })
		b.queryCorrect(crossEx, lo, mid, gq, ctx, sh, cs)
	}
	sh.End(spCor, obs.PhaseCorrect, obs.SpanCorrect, int64(crossed))
	return march.Ref(mid)
}

// partition reorders the range [lo, hi) by b.interior's sides and
// returns the first exterior position: interior rows first, then exterior
// rows, each side in its previous order, which is input order because
// every node's range starts out that way. The lists of the range are
// still empty, so only rows and ids move. Exterior rows wait in the
// scratch while the interior ones compact.
func (b *builder) partition(lo, hi int) int {
	d := b.ps.Dim
	data, id := b.ps.Data, b.id
	mid, ex := lo, lo
	for p := lo; p < hi; p++ {
		if !b.interior[p] {
			copy(b.exRows[ex*d:(ex+1)*d], data[p*d:(p+1)*d])
			b.exIDs[ex] = id[p]
			ex++
			continue
		}
		if mid != p {
			copy(data[mid*d:(mid+1)*d], data[p*d:(p+1)*d])
			id[mid] = id[p]
		}
		mid++
	}
	copy(data[mid*d:hi*d], b.exRows[lo*d:ex*d])
	copy(id[mid:hi], b.exIDs[lo:ex])
	return mid
}
