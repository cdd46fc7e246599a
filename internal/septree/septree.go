// Package septree implements the separator-based search structure for the
// neighborhood query problem (Section 3 of the paper): a binary tree whose
// internal nodes store sphere separators and whose leaves store ball
// subsets, supporting "which balls cover point p" queries in
// O(k + log n) time with O(n) space.
//
// Construction follows Parallel Neighborhood Querying (Section 3.3):
//
//  1. If m <= m0, emit a leaf holding all balls. m0 is fixed once per
//     tree from d, the system's k and its size n (see leafSize).
//  2. Otherwise iterate the Unit Time Sphere Separator Algorithm until a
//     good separator S is found.
//  3. B_0 = B_I(S) ∪ B_O(S), B_1 = B_E(S) ∪ B_O(S) — crossing balls are
//     duplicated into both children.
//  4. Recurse on B_0 and B_1 in parallel.
//
// The tree has one representation, the flat Frozen layout. The build
// writes a draft in build order, reserving each split's two children as
// adjacent slots, and one permutation then lays it out in the
// cache-blocked order queries descend. Every split forks a vm.Ctx, so
// the build accrues the simulated vector-model cost of the paper's
// parallel recursion. On a parallel Options.Machine the forks also run
// in parallel: the left subtree is built on a worker when one is free,
// appending to the same draft under its lock. The tree, its statistics
// and its simulated cost do not depend on the machine. The number of
// separator trials on the deepest root–leaf path is the quantity
// Theorem 3.1 bounds by O(log n).
package septree

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"sepdc/internal/geom"
	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/pts"
	"sepdc/internal/separator"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// Options configures construction.
type Options struct {
	// Sep configures the separator search at each node.
	Sep *separator.Options
	// Done aborts the build when closed (typically a context's Done
	// channel): the recursion stops descending and Build returns
	// context.Canceled. Nil disables the probe.
	Done <-chan struct{}
	// Machine runs the recursion's forks on its worker pool. Nil builds
	// on the calling goroutine alone.
	Machine *vm.Machine
}

func (o *Options) cancelled() bool {
	if o == nil || o.Done == nil {
		return false
	}
	select {
	case <-o.Done:
		return true
	default:
		return false
	}
}

// retriesOnNoProgress is how many times a node reruns the separator
// search when duplication of crossing balls prevents both children from
// shrinking. After the budget the node becomes an oversized leaf
// (recorded in Stats.ForcedLeaves).
const retriesOnNoProgress = 3

// leafSize returns the paper's m0 for a system of n balls of neighborhood
// size k in R^d: subsets of at most this size become leaves. Two
// constraints set it:
//
//   - Theorem 3.1's query budget: a query scans one leaf whole, so a leaf
//     may hold the O(k + log n) candidates a query is allowed; the
//     constant is the audit's queryCandsC = 4.
//   - Lemma 3.1's space bound: a leaf-sized subproblem's crossing set,
//     O(k^{1/d}·m^{(d−1)/d}) by Theorem 2.1, must be a small fraction of
//     it, so m0 grows with k. At d ≤ 3 the query budget already meets
//     this; the floor 32·2^max(0, d−3) keeps the larger leaves that
//     higher dimensions need.
func leafSize(d, k, n int) int {
	return max(4*(max(k, 1)+bits.Len(uint(n))), 32<<uint(max(0, d-3)))
}

func (o *Options) sep() *separator.Options {
	if o == nil {
		return nil
	}
	return o.Sep
}

// BuildStats describes the constructed tree.
type BuildStats struct {
	Height          int     // nodes on the deepest root–leaf path
	Leaves          int     // number of leaves
	TotalStored     int     // Σ over leaves of stored balls; the space bound is O(n)
	SeparatorTrials int     // total separator candidates across all nodes
	CriticalTrials  int     // max Σ of trials along any root–leaf path (Thm 3.1's quantity)
	Punts           int     // nodes whose separator search fell back to a hyperplane
	ForcedLeaves    int     // oversized leaves created after repeated no-progress
	Cost            vm.Cost // simulated vector-model cost of the build
}

// Build constructs the search structure over sys. The recursion writes
// a draft in build order, with sibling pairs adjacent and leaf slots
// numbered in creation order, and layout then lays it out in blocked
// order, which depends on the tree's shape alone; so does every
// statistic, and each branch draws from an RNG split before the fork,
// so the result is the same on any Options.Machine. A build whose
// Options.Done channel closes mid-recursion is abandoned and returns
// context.Canceled.
func Build(sys *nbrsys.System, g *xrand.RNG, opts *Options) (*Frozen, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	n := sys.Len()
	if n == 0 {
		return nil, errors.New("septree: empty neighborhood system")
	}
	if opts != nil && opts.Done != nil && (opts.Sep == nil || opts.Sep.Done != opts.Done) {
		// Forward cancellation into every node's separator search.
		o := *opts
		o.Sep = opts.Sep.WithDone(opts.Done)
		opts = &o
	}
	d := len(sys.Centers[0])
	m := vm.Sequential()
	if opts != nil && opts.Machine != nil {
		m = opts.Machine
	}
	// The draft's root is an unwritten slot.
	t := &draft{nstride: d + 3, kind: []uint8{kindLeaf}, child: []int32{0},
		punted: []bool{false}, sep: make([]float64, d+3)}
	b := &builder{t: t, sys: sys, dim: d, m0: leafSize(d, sys.K, n), opts: opts,
		scr: &scratchPool{}}
	ctx := m.NewCtx()
	b.build(0, allBalls(n), g, ctx, 1, 0)
	if opts.cancelled() {
		// Cancellation leaves subtrees unbuilt; the partial tree is
		// unusable, so report the abort.
		return nil, context.Canceled
	}
	f := t.layout(sys, d, blockedOrder(t.kind, t.child))
	st := &f.stats
	st.Leaves, st.TotalStored, st.Cost = f.NumLeaves(), f.StoredBalls(), ctx.Cost()
	if obs.On() {
		obs.Add(obs.GSeptreeBuilds, 1)
		obs.Add(obs.GSeptreeForced, int64(st.ForcedLeaves))
	}
	return f, nil
}

// Freeze returns f unchanged. Build already returns the flat query
// layout; Freeze exists only so that the perfbench module, which times
// a build-then-freeze sequence, keeps compiling.
func Freeze(f *Frozen) (*Frozen, error) { return f, nil }

// allBalls returns the ids 0..n-1, the root's ball list.
func allBalls(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// partition splits the balls idx by separator s: l gets those not wholly
// outside s, r those not wholly inside, so crossing balls go to both
// (Section 3.2). Both keep idx's order and are allocated at their exact
// size; rel is scratch of at least len(idx).
func partition(sys *nbrsys.System, s geom.Separator, idx []int32, rel []int8) (l, r []int32) {
	nl, nr := 0, 0
	for i, j := range idx {
		c := s.ClassifyBall(sys.Centers[j], sys.Radii[j])
		rel[i] = int8(c)
		if c != geom.Exterior {
			nl++
		}
		if c != geom.Interior {
			nr++
		}
	}
	l, r = make([]int32, 0, nl), make([]int32, 0, nr)
	for i, j := range idx {
		if rel[i] != int8(geom.Exterior) {
			l = append(l, j)
		}
		if rel[i] != int8(geom.Interior) {
			r = append(r, j)
		}
	}
	return l, r
}

// scratch is one node's working memory while it is split: its centers,
// the separator search's input, and its balls' classifications.
type scratch struct {
	ps  []float64
	rel []int8
}

// scratchPool lends node scratch to one build. A node holds its
// scratch only through its separator search and partition, so a build
// keeps about one buffer per strand. A node no free buffer can hold
// replaces one with a buffer of exactly its size, so a strand's scratch
// is sized to its own subproblem. The pool dies with the build, before
// layout.
type scratchPool struct {
	mu   sync.Mutex
	free []*scratch
}

func (p *scratchPool) get(m, dim int) *scratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i, s := range p.free {
		if len(s.rel) >= m && (best < 0 || len(s.rel) < len(p.free[best].rel)) {
			best = i
		}
	}
	if best < 0 {
		if len(p.free) > 0 {
			p.free = p.free[1:]
		}
		return &scratch{ps: make([]float64, m*dim), rel: make([]int8, m)}
	}
	s := p.free[best]
	p.free = append(p.free[:best], p.free[best+1:]...)
	return s
}

func (p *scratchPool) put(s *scratch) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// draft is a tree as the recursion writes it, in build order: each
// split appends its two children as adjacent slots, and each leaf keeps
// the ball-id slice its parent's partition allocated, so no id is
// copied until layout. Strands append under mu, so on a parallel
// machine the ids interleave by schedule; layout renumbers by shape.
type draft struct {
	mu      sync.Mutex
	nstride int
	kind    []uint8
	child   []int32   // internal: left child id; leaf: index into leaves
	sep     []float64 // per node: nstride floats of separator geometry
	punted  []bool
	leaves  [][]int32 // per leaf slot, its ascending ball ids
	stats   BuildStats
}

// builder runs the recursion, writing into the draft t.
type builder struct {
	t    *draft
	sys  *nbrsys.System
	dim  int
	m0   int
	opts *Options
	scr  *scratchPool
}

// count folds node id into the build statistics; t.mu is held.
func (b *builder) count(id int32, depth, trials int, punted bool) {
	st := &b.t.stats
	st.Height = max(st.Height, depth)
	st.SeparatorTrials += trials
	if punted {
		st.Punts++
		b.t.punted[id] = true
	}
}

// leaf writes node id as a leaf holding idx, whose ids are ascending.
func (b *builder) leaf(id int32, idx []int32, depth, trials, trialSum int, punted, forced bool) {
	t := b.t
	t.mu.Lock()
	defer t.mu.Unlock()
	b.count(id, depth, trials, punted)
	t.child[id] = int32(len(t.leaves))
	t.leaves = append(t.leaves, idx)
	st := &t.stats
	st.CriticalTrials = max(st.CriticalTrials, trialSum+trials)
	if forced {
		st.ForcedLeaves++
	}
}

// split writes node id as an internal node with separator s and
// appends its two children as adjacent unwritten slots, returning the
// left one's id.
func (b *builder) split(id int32, s geom.Separator, depth, trials int, punted bool) (left int32) {
	t, dim, ns := b.t, b.dim, b.t.nstride
	t.mu.Lock()
	defer t.mu.Unlock()
	b.count(id, depth, trials, punted)
	left = int32(len(t.kind))
	t.kind = append(t.kind, kindLeaf, kindLeaf)
	t.child = append(t.child, 0, 0)
	t.punted = append(t.punted, false, false)
	t.sep = append(t.sep, make([]float64, 2*ns)...)
	t.child[id] = left
	rec := t.sep[int(id)*ns : int(id+1)*ns]
	switch s := s.(type) {
	case geom.Sphere:
		t.kind[id] = kindSphere
		copy(rec, s.Center)
		rec[dim] = s.Radius
		rec[dim+1], rec[dim+2] = sqrtFreeBand(s.Radius)
	case geom.Halfspace:
		t.kind[id] = kindHalf
		copy(rec, s.Normal)
		rec[dim] = s.Offset
	default:
		panic(fmt.Sprintf("septree: unsupported separator type %T", s))
	}
	return left
}

// build fills node id with the subtree over the balls idx (ascending).
// depth is the node's depth (the root's is 1) and trialSum the separator
// trials spent on its proper ancestors.
func (b *builder) build(id int32, idx []int32, g *xrand.RNG, ctx *vm.Ctx, depth, trialSum int) {
	if b.opts.cancelled() {
		return
	}
	m := len(idx)
	if m <= b.m0 {
		ctx.Prim(m) // emit leaf: one vector write
		b.leaf(id, idx, depth, 0, trialSum, false, false)
		return
	}
	sys, dim := b.sys, b.dim
	scr := b.scr.get(m, dim)
	ps := &pts.PointSet{Data: scr.ps[:m*dim], Dim: dim}
	for i, j := range idx {
		copy(ps.Data[i*dim:], sys.Centers[j])
	}
	trials, punted := 0, false
	for attempt := 0; ; attempt++ {
		res, err := separator.FindGoodFlat(ps, g.Split(), b.opts.sep())
		if err != nil {
			b.scr.put(scr)
			if b.opts.cancelled() {
				return
			}
			// Degenerate subset (e.g. all centers identical): leaf out.
			ctx.Prim(m)
			b.leaf(id, idx, depth, trials, trialSum, false, true)
			return
		}
		trials += res.Trials
		punted = punted || res.Punted
		// Each candidate trial is O(1) vector steps over the node's points.
		ctx.PrimK(res.Trials, m)

		// Classify the node's balls against the separator; crossing balls
		// are duplicated into both children.
		l, r := partition(sys, res.Sep, idx, scr.rel)
		ctx.PrimK(2, m) // classify + pack

		// Progress guard: crossing-ball duplication must not be allowed to
		// shrink children by a hair per level, or the recursion blows up
		// exponentially (duplication outpaces the split). Lemma 3.1's
		// recurrence needs |child| ≤ δ₁·m + m^μ; we enforce the practical
		// version "both children at least 5% smaller" and retry (then leaf
		// out) otherwise — the paper's requirement that m0 be large
		// enough for d and k (see leafSize) plays the same role in the
		// analysis.
		limit := m - 1
		if m >= 40 {
			limit = m - m/20
		}
		if len(l) <= limit && len(r) <= limit && len(l) > 0 && len(r) > 0 {
			left := b.split(id, res.Sep, depth, trials, punted)
			b.scr.put(scr)
			b.fork(left, l, r, g, ctx, depth+1, trialSum+trials)
			return
		}
		if attempt >= retriesOnNoProgress {
			// Crossing-ball duplication defeated the split repeatedly
			// (legitimately possible when ball radii are huge relative to
			// the subset's extent). An oversized leaf keeps queries correct
			// at O(m) leaf-scan cost.
			b.scr.put(scr)
			ctx.Prim(m)
			b.leaf(id, idx, depth, trials, trialSum, punted, true)
			return
		}
	}
}

// fork builds the sibling pair left, left+1 over the balls l and r.
func (b *builder) fork(left int32, l, r []int32, g *xrand.RNG, ctx *vm.Ctx, depth, trialSum int) {
	// Split the RNG before forking so the stream handed to each branch
	// does not depend on execution order. Each branch takes its list out
	// of the closure, so the list dies once its node is partitioned
	// rather than when the fork returns.
	gl, gr := g.Split(), g.Split()
	ctx.Fork(
		func(c *vm.Ctx) {
			idx := l
			l = nil
			b.build(left, idx, gl, c, depth, trialSum)
		},
		func(c *vm.Ctx) {
			idx := r
			r = nil
			b.build(left+1, idx, gr, c, depth, trialSum)
		},
	)
}
