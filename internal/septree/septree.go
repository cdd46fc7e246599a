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
// writes its node, separator and leaf arrays directly, reserving each
// split's two children as adjacent slots, and one permutation then
// renumbers the nodes into the cache-blocked order queries descend.
// The recursion runs on one goroutine; each split still forks a
// vm.Ctx, so the build accrues the simulated vector-model cost of the
// paper's parallel recursion. The number of separator trials on the
// deepest root–leaf path is the quantity Theorem 3.1 bounds by O(log n).
package septree

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"sepdc/internal/geom"
	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/pts"
	"sepdc/internal/separator"
	"sepdc/internal/vec"
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
// the tree in build order, with sibling pairs adjacent and leaf slots
// numbered in creation order, and permute then lays it out in blocked
// order. A build whose Options.Done channel closes mid-recursion is
// abandoned and returns context.Canceled.
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
	b := &builder{
		f: &Frozen{dim: d, stride: d + 1, nstride: d + 3, sys: sys,
			kind: []uint8{kindLeaf}, child: []int32{0}, punted: []bool{false},
			sep: make([]float64, d+3), leafOff: []int32{0}},
		m0:   leafSize(d, sys.K, n),
		opts: opts,
		ps:   pts.PointSet{Data: make([]float64, n*d), Dim: d},
		rel:  make([]geom.Relation, n),
	}
	ctx := vm.Sequential().NewCtx()
	b.build(0, allBalls(n), g, ctx, 1, 0)
	if opts.cancelled() {
		// Cancellation leaves subtrees unbuilt; the partial tree is
		// unusable, so report the abort.
		return nil, context.Canceled
	}
	st := &b.f.stats
	st.Leaves, st.TotalStored, st.Cost = b.f.NumLeaves(), b.f.StoredBalls(), ctx.Cost()
	if obs.On() {
		obs.Add(obs.GSeptreeBuilds, 1)
		obs.Add(obs.GSeptreeForced, int64(st.ForcedLeaves))
	}
	return b.f.permute(blockedOrder(b.f)), nil
}

// Freeze returns f unchanged. Build already returns the flat query
// layout; Freeze exists only so that the perfbench module, which times
// a build-then-freeze sequence, keeps compiling.
func Freeze(f *Frozen) (*Frozen, error) { return f, nil }

// BuildContext is Build under a context: the context's Done channel is
// installed as Options.Done and a cancelled build returns ctx.Err().
func BuildContext(cx context.Context, sys *nbrsys.System, g *xrand.RNG, opts *Options) (*Frozen, error) {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	o.Done = cx.Done()
	f, err := Build(sys, g, &o)
	if err != nil && cx.Err() != nil {
		return nil, cx.Err()
	}
	return f, err
}

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
func partition(sys *nbrsys.System, s geom.Separator, idx []int32, rel []geom.Relation) (l, r []int32) {
	nl, nr := 0, 0
	for i, j := range idx {
		rel[i] = s.ClassifyBall(sys.Centers[j], sys.Radii[j])
		if rel[i] != geom.Exterior {
			nl++
		}
		if rel[i] != geom.Interior {
			nr++
		}
	}
	l, r = make([]int32, 0, nl), make([]int32, 0, nr)
	for i, j := range idx {
		if rel[i] != geom.Exterior {
			l = append(l, j)
		}
		if rel[i] != geom.Interior {
			r = append(r, j)
		}
	}
	return l, r
}

// builder holds one build's output and its per-node scratch. The
// recursion is sequential, so a node's scratch is free again by the
// time its children run.
type builder struct {
	f    *Frozen // the tree in build order, stats accumulated as it grows
	m0   int
	opts *Options
	ps   pts.PointSet    // the node's centers, the separator search's input
	rel  []geom.Relation // the node's ball classifications
}

// count folds node id into the build statistics.
func (b *builder) count(id int32, depth, trials int, punted bool) {
	st := &b.f.stats
	st.Height = max(st.Height, depth)
	st.SeparatorTrials += trials
	if punted {
		st.Punts++
		b.f.punted[id] = true
	}
}

// leaf writes node id as a leaf holding idx, whose ids are ascending.
func (b *builder) leaf(id int32, idx []int32, depth, trials, trialSum int, punted, forced bool) {
	b.count(id, depth, trials, punted)
	f := b.f
	f.child[id] = int32(len(f.leafOff) - 1)
	f.leafBalls = append(f.leafBalls, idx...)
	f.leafOff = append(f.leafOff, int32(len(f.leafBalls)))
	st := &f.stats
	st.CriticalTrials = max(st.CriticalTrials, trialSum+trials)
	if forced {
		st.ForcedLeaves++
	}
}

// split writes node id as an internal node with separator s and
// appends its two children as adjacent unwritten slots, returning the
// left one's id.
func (b *builder) split(id int32, s geom.Separator, depth, trials int, punted bool) (left int32) {
	b.count(id, depth, trials, punted)
	f := b.f
	left = int32(len(f.kind))
	f.kind = append(f.kind, kindLeaf, kindLeaf)
	f.child = append(f.child, 0, 0)
	f.punted = append(f.punted, false, false)
	f.sep = append(f.sep, make([]float64, 2*f.nstride)...)
	f.child[id] = left
	rec := f.sep[int(id)*f.nstride : int(id+1)*f.nstride]
	switch s := s.(type) {
	case geom.Sphere:
		f.kind[id] = kindSphere
		copy(rec, s.Center)
		rec[f.dim] = s.Radius
		rec[f.dim+1], rec[f.dim+2] = sqrtFreeBand(s.Radius)
	case geom.Halfspace:
		f.kind[id] = kindHalf
		copy(rec, s.Normal)
		rec[f.dim] = s.Offset
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
	sys, dim := b.f.sys, b.f.dim
	ps := &pts.PointSet{Data: b.ps.Data[:m*dim], Dim: dim}
	for i, j := range idx {
		copy(ps.Data[i*dim:], sys.Centers[j])
	}
	trials, punted := 0, false
	for attempt := 0; ; attempt++ {
		res, err := separator.FindGoodFlat(ps, g.Split(), b.opts.sep())
		if err != nil {
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
		l, r := partition(sys, res.Sep, idx, b.rel)
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
			// Split the RNG before forking so the stream handed to each
			// branch does not depend on execution order.
			gl, gr := g.Split(), g.Split()
			ctx.Fork(
				func(c *vm.Ctx) { b.build(left, l, gl, c, depth+1, trialSum+trials) },
				func(c *vm.Ctx) { b.build(left+1, r, gr, c, depth+1, trialSum+trials) },
			)
			return
		}
		if attempt >= retriesOnNoProgress {
			// Crossing-ball duplication defeated the split repeatedly
			// (legitimately possible when ball radii are huge relative to
			// the subset's extent). An oversized leaf keeps queries correct
			// at O(m) leaf-scan cost.
			ctx.Prim(m)
			b.leaf(id, idx, depth, trials, trialSum, punted, true)
			return
		}
	}
}

// Validate checks the structural invariants the correctness proof and
// the flat descent rely on, for tests and debugging:
//
//  1. shape: every node is reached from the root 0 exactly once, so
//     sibling pairs neither overlap nor share; every internal node's
//     children left, left+1 are in range; every leaf slot belongs to
//     exactly one leaf;
//  2. leaf order: every leaf's ball ids are strictly ascending, and its
//     inlined records hold each ball's center and r² bit for bit;
//  3. containment and completeness: every leaf stores exactly the balls
//     its ancestors' separators admit (the interior side for left
//     subtrees, the exterior side for right, crossing balls on both), so
//     no ball is stored outside its region and none is missing from a
//     leaf its geometry reaches; every ball is stored somewhere.
func (f *Frozen) Validate() error {
	nn, sys := len(f.kind), f.sys
	if nn == 0 || len(f.child) != nn || len(f.punted) != nn || len(f.sep) != nn*f.nstride ||
		len(f.leafRecs) != len(f.leafBalls)*f.stride {
		return errors.New("septree: arrays disagree in length")
	}
	seen, slots, stored := make([]bool, nn), make([]bool, f.NumLeaves()), make([]bool, sys.Len())
	rel := make([]geom.Relation, sys.Len())
	leaves := 0
	// walk checks that the subtree at node i stores exactly the balls
	// idx, the ones its ancestors admit.
	var walk func(i int32, idx []int32) error
	walk = func(i int32, idx []int32) error {
		if seen[i] {
			return fmt.Errorf("septree: node %d reached twice", i)
		}
		seen[i] = true
		c := f.child[i]
		if f.kind[i] != kindLeaf {
			if c <= 0 || int(c)+1 >= nn {
				return fmt.Errorf("septree: node %d has children %d,%d out of range", i, c, c+1)
			}
			sep, _, _ := f.Node(i)
			l, r := partition(sys, sep, idx, rel)
			if err := walk(c, l); err != nil {
				return err
			}
			return walk(c+1, r)
		}
		if c < 0 || int(c) >= len(slots) || slots[c] {
			return fmt.Errorf("septree: leaf %d has slot %d out of range or shared", i, c)
		}
		slots[c] = true
		leaves++
		lo, hi := f.leafOff[c], f.leafOff[c+1]
		if lo > hi || int(hi) > len(f.leafBalls) || int(hi-lo) != len(idx) {
			return fmt.Errorf("septree: leaf %d stores balls [%d,%d), its region admits %d", i, lo, hi, len(idx))
		}
		for k, b := range f.leafBalls[lo:hi] {
			if k > 0 && f.leafBalls[int(lo)+k-1] >= b {
				return fmt.Errorf("septree: leaf %d ids not ascending at %d", i, k)
			}
			if b != idx[k] {
				return fmt.Errorf("septree: leaf %d stores ball %d where its region admits ball %d", i, b, idx[k])
			}
			rec, r := f.leafRecs[(int(lo)+k)*f.stride:][:f.stride], sys.Radii[b]
			if !vec.Equal(rec[:f.dim], sys.Centers[b]) || rec[f.dim] != r*r {
				return fmt.Errorf("septree: leaf %d record of ball %d disagrees with the system", i, b)
			}
			stored[b] = true
		}
		return nil
	}
	if err := walk(0, allBalls(sys.Len())); err != nil {
		return err
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("septree: node %d unreachable from the root", i)
		}
	}
	if leaves != len(slots) {
		return fmt.Errorf("septree: %d leaves for %d leaf slots", leaves, len(slots))
	}
	for i, ok := range stored {
		if !ok {
			return fmt.Errorf("septree: ball %d not stored in any leaf", i)
		}
	}
	return nil
}
