// Package septree implements the separator-based search structure for the
// neighborhood query problem (Section 3 of the paper): a binary tree whose
// internal nodes store sphere separators and whose leaves store ball
// subsets, supporting "which balls cover point p" queries in
// O(k + log n) time with O(n) space.
//
// Construction follows Parallel Neighborhood Querying (Section 3.3):
//
//  1. If m <= m0, emit a leaf holding all balls. m0 is fixed once per
//     tree from d, the system's k and its size n (see Options.LeafSize).
//  2. Otherwise iterate the Unit Time Sphere Separator Algorithm until a
//     good separator S is found.
//  3. B_0 = B_I(S) ∪ B_O(S), B_1 = B_E(S) ∪ B_O(S) — crossing balls are
//     duplicated into both children.
//  4. Recurse on B_0 and B_1 in parallel.
//
// The recursion is executed fork-join on a vm.Machine, which both runs the
// two subtrees on goroutines and records the simulated vector-model cost;
// the number of separator trials on the deepest root–leaf path is the
// quantity Theorem 3.1 bounds by O(log n).
package septree

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"sepdc/internal/geom"
	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/separator"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// Node is a search-tree node. Internal nodes have Sep != nil and two
// children; leaves have Balls.
type Node struct {
	Sep    geom.Separator
	Left   *Node
	Right  *Node
	Balls  []int // leaf payload: indices into the neighborhood system
	Trials int   // separator candidates consumed at this node
	Punted bool  // separator search fell back to a median hyperplane
	Forced bool  // oversized leaf created after repeated no-progress
}

// IsLeaf reports whether n stores balls directly.
func (n *Node) IsLeaf() bool { return n.Sep == nil }

// Options configures construction.
type Options struct {
	// LeafSize is the paper's m0: subsets of at most this size become
	// leaves. Zero derives it from the system: max(4·(k + bits.Len(n)),
	// 32·2^max(0, d−3)) for a system of n balls of neighborhood size k
	// in R^d.
	LeafSize int
	// Sep configures the separator search at each node.
	Sep *separator.Options
	// Machine runs the two recursive builds in parallel and accrues the
	// simulated cost. Nil selects a sequential machine.
	Machine *vm.Machine
	// RetriesOnNoProgress is how many times a node reruns the separator
	// search when duplication of crossing balls prevents both children
	// from shrinking. After the budget the node becomes an oversized leaf
	// (recorded in Stats.ForcedLeaves). Zero selects 3.
	RetriesOnNoProgress int
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

// leafSize returns the paper's m0 for a system of n balls of neighborhood
// size k in R^d. Two constraints set it:
//
//   - Theorem 3.1's query budget: a query scans one leaf whole, so a leaf
//     may hold the O(k + log n) candidates a query is allowed; the
//     constant is the audit's default (QueryCandsC = 4).
//   - Lemma 3.1's space bound: a leaf-sized subproblem's crossing set,
//     O(k^{1/d}·m^{(d−1)/d}) by Theorem 2.1, must be a small fraction of
//     it, so m0 grows with k. At d ≤ 3 the query budget already meets
//     this; the floor 32·2^max(0, d−3) keeps the larger leaves that
//     higher dimensions need.
func (o *Options) leafSize(d, k, n int) int {
	if o != nil && o.LeafSize > 0 {
		return o.LeafSize
	}
	return max(4*(max(k, 1)+bits.Len(uint(n))), 32<<uint(max(0, d-3)))
}

func (o *Options) retries() int {
	if o == nil || o.RetriesOnNoProgress <= 0 {
		return 3
	}
	return o.RetriesOnNoProgress
}

func (o *Options) machine() *vm.Machine {
	if o == nil || o.Machine == nil {
		return vm.Sequential()
	}
	return o.Machine
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

// Tree is the query structure over a neighborhood system.
type Tree struct {
	Sys   *nbrsys.System
	Root  *Node
	Stats BuildStats
}

// Build constructs the search structure. A build whose Options.Done
// channel closes mid-recursion is abandoned and returns context.Canceled.
func Build(sys *nbrsys.System, g *xrand.RNG, opts *Options) (*Tree, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if sys.Len() == 0 {
		return nil, errors.New("septree: empty neighborhood system")
	}
	if opts != nil && opts.Done != nil && (opts.Sep == nil || opts.Sep.Done != opts.Done) {
		// Forward cancellation into every node's separator search.
		o := *opts
		o.Sep = opts.Sep.WithDone(opts.Done)
		opts = &o
	}
	t := &Tree{Sys: sys}
	idx := make([]int, sys.Len())
	for i := range idx {
		idx[i] = i
	}
	m0 := opts.leafSize(len(sys.Centers[0]), sys.K, sys.Len())
	ctx := opts.machine().NewCtx()
	t.Root = build(sys, idx, m0, g, opts, ctx)
	if opts.cancelled() {
		// Cancellation collapses subtrees to nil nodes; the partial tree
		// is unusable, so report the abort rather than summarize it.
		return nil, context.Canceled
	}
	t.Stats = summarize(t.Root)
	t.Stats.Cost = ctx.Cost()
	if obs.On() {
		obs.Add(obs.GSeptreeBuilds, 1)
		obs.Add(obs.GSeptreeForced, int64(t.Stats.ForcedLeaves))
	}
	return t, nil
}

// BuildContext is Build under a context: the context's Done channel is
// installed as Options.Done and a cancelled build returns ctx.Err().
func BuildContext(cx context.Context, sys *nbrsys.System, g *xrand.RNG, opts *Options) (*Tree, error) {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	o.Done = cx.Done()
	t, err := Build(sys, g, &o)
	if err != nil {
		if cerr := cx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	return t, nil
}

func build(sys *nbrsys.System, idx []int, m0 int, g *xrand.RNG, opts *Options, ctx *vm.Ctx) *Node {
	if opts.cancelled() {
		return nil
	}
	m := len(idx)
	if m <= m0 {
		ctx.Prim(m) // emit leaf: one vector write
		return &Node{Balls: idx}
	}
	centers := make([]vec.Vec, m)
	for i, j := range idx {
		centers[i] = sys.Centers[j]
	}
	trials, punted := 0, false
	for attempt := 0; ; attempt++ {
		res, err := separator.FindGood(centers, g.Split(), opts.sep())
		if err != nil {
			if opts.cancelled() {
				return nil
			}
			// Degenerate subset (e.g. all centers identical): leaf out.
			ctx.Prim(m)
			return &Node{Balls: idx, Trials: trials, Forced: true}
		}
		trials += res.Trials
		punted = punted || res.Punted
		// Each candidate trial is O(1) vector steps over the node's points.
		ctx.PrimK(res.Trials, m)

		// Classify the node's balls against the separator; crossing balls
		// are duplicated into both children (Section 3.2).
		var left, right []int
		for _, j := range idx {
			switch res.Sep.ClassifyBall(sys.Centers[j], sys.Radii[j]) {
			case geom.Interior:
				left = append(left, j)
			case geom.Exterior:
				right = append(right, j)
			default:
				left = append(left, j)
				right = append(right, j)
			}
		}
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
		if len(left) <= limit && len(right) <= limit && len(left) > 0 && len(right) > 0 {
			node := &Node{Sep: res.Sep, Trials: trials, Punted: punted}
			// Split the RNG before forking so the stream handed to each
			// branch does not depend on execution interleaving.
			gl, gr := g.Split(), g.Split()
			ctx.Fork(
				func(c *vm.Ctx) { node.Left = build(sys, left, m0, gl, opts, c) },
				func(c *vm.Ctx) { node.Right = build(sys, right, m0, gr, opts, c) },
			)
			return node
		}
		if attempt >= opts.retries() {
			// Crossing-ball duplication defeated the split repeatedly
			// (legitimately possible when ball radii are huge relative to
			// the subset's extent). An oversized leaf keeps queries correct
			// at O(m) leaf-scan cost.
			ctx.Prim(m)
			return &Node{Balls: idx, Trials: trials, Punted: punted, Forced: true}
		}
	}
}

func summarize(root *Node) BuildStats {
	var st BuildStats
	var walk func(n *Node, depth, trialSum int)
	walk = func(n *Node, depth, trialSum int) {
		trialSum += n.Trials
		if depth > st.Height {
			st.Height = depth
		}
		st.SeparatorTrials += n.Trials
		if n.Punted {
			st.Punts++
		}
		if n.Forced {
			st.ForcedLeaves++
		}
		if n.IsLeaf() {
			st.Leaves++
			st.TotalStored += len(n.Balls)
			if trialSum > st.CriticalTrials {
				st.CriticalTrials = trialSum
			}
			return
		}
		walk(n.Left, depth+1, trialSum)
		walk(n.Right, depth+1, trialSum)
	}
	walk(root, 1, 0)
	return st
}

// Query returns, in ascending order, the indices of all balls whose open
// interior contains p, by descending the tree (interior side on Side <= 0,
// per the paper's rule of sending on-sphere points left) and scanning one
// leaf. nodesVisited is returned for the query-cost experiment.
func (t *Tree) Query(p vec.Vec) (balls []int, nodesVisited int) {
	n := t.Root
	for n != nil && !n.IsLeaf() {
		nodesVisited++
		if n.Sep.Side(p) <= 0 {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	if n == nil {
		return nil, nodesVisited
	}
	nodesVisited++
	for _, j := range n.Balls {
		r := t.Sys.Radii[j]
		if vec.Dist2(p, t.Sys.Centers[j]) < r*r {
			balls = append(balls, j)
		}
	}
	sort.Ints(balls)
	return balls, nodesVisited
}

// Validate checks the structural invariants the correctness proof relies
// on, for tests and debugging:
//
//  1. every internal node has two children and a separator; every leaf has
//     a (possibly oversized) ball list and no children;
//  2. ball containment: a ball stored in a subtree is admitted there by
//     every ancestor separator (interior side for left subtrees, exterior
//     for right, crossing for both);
//  3. completeness: every ball of the system is stored in at least one
//     leaf, and in *every* leaf whose region its geometry reaches.
func (t *Tree) Validate() error {
	stored := make(map[int]bool, t.Sys.Len())
	var walk func(n *Node, admits func(i int) bool) error
	walk = func(n *Node, admits func(i int) bool) error {
		if n == nil {
			return errors.New("septree: nil node")
		}
		if n.IsLeaf() {
			if n.Left != nil || n.Right != nil {
				return errors.New("septree: leaf with children")
			}
			for _, i := range n.Balls {
				if !admits(i) {
					return fmt.Errorf("septree: ball %d stored outside its admissible region", i)
				}
				stored[i] = true
			}
			return nil
		}
		if n.Left == nil || n.Right == nil {
			return errors.New("septree: internal node missing a child")
		}
		sep := n.Sep
		leftAdmits := func(i int) bool {
			return admits(i) && sep.ClassifyBall(t.Sys.Centers[i], t.Sys.Radii[i]) != geom.Exterior
		}
		rightAdmits := func(i int) bool {
			return admits(i) && sep.ClassifyBall(t.Sys.Centers[i], t.Sys.Radii[i]) != geom.Interior
		}
		if err := walk(n.Left, leftAdmits); err != nil {
			return err
		}
		return walk(n.Right, rightAdmits)
	}
	if err := walk(t.Root, func(int) bool { return true }); err != nil {
		return err
	}
	for i := 0; i < t.Sys.Len(); i++ {
		if !stored[i] {
			return fmt.Errorf("septree: ball %d not stored in any leaf", i)
		}
	}
	return nil
}

// QueryBatchClosed answers a closed-ball covering query for every point,
// conceptually all in parallel: the returned cost has steps equal to the
// deepest single query (plus the reporting primitive) and work equal to
// the total nodes visited plus balls reported — the accounting of
// Theorem 3.1's query phase. Execution parallelism follows the machine m
// (nil for sequential).
func (t *Tree) QueryBatchClosed(pts []vec.Vec, m *vm.Machine) ([][]int, vm.Cost) {
	out := make([][]int, len(pts))
	if len(pts) == 0 {
		return out, vm.Cost{}
	}
	if m == nil {
		m = vm.Sequential()
	}
	ctx := m.NewCtx()
	visited := make([]int, len(pts))
	ctx.ForkN(len(pts), func(i int, c *vm.Ctx) {
		out[i], visited[i] = t.QueryClosed(pts[i])
		c.Charge(vm.Cost{Steps: int64(visited[i]), Work: int64(visited[i] + len(out[i]))})
	})
	cost := ctx.Cost()
	cost.Steps += 2 // distribute queries + pack results
	return out, cost
}

// QueryClosed is Query with closed-ball membership (boundary included);
// the divide-and-conquer correction uses closed balls so that candidate
// neighbors at exactly the current k-th distance are not lost.
func (t *Tree) QueryClosed(p vec.Vec) (balls []int, nodesVisited int) {
	n := t.Root
	for n != nil && !n.IsLeaf() {
		nodesVisited++
		if n.Sep.Side(p) <= 0 {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	if n == nil {
		return nil, nodesVisited
	}
	nodesVisited++
	for _, j := range n.Balls {
		r := t.Sys.Radii[j]
		if vec.Dist2(p, t.Sys.Centers[j]) <= r*r+geom.Eps {
			balls = append(balls, j)
		}
	}
	sort.Ints(balls)
	return balls, nodesVisited
}
