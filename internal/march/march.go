// Package march implements Section 6.2 of the paper: marching the crossing
// balls of one side of a sphere separator down the partition tree of the
// other side to find, for each ball B, the set of points contained in B —
// the Fast Correction's candidate-discovery step.
//
// Reachability (the paper's recursive definition) is:
//
//	– the root is reachable;
//	– if v is reachable and B intersects S_v or its interior, the left
//	  child is reachable;
//	– if v is reachable and B intersects S_v or its exterior, the right
//	  child is reachable.
//
// A ball crossing S_v is therefore *duplicated* into both children. The
// march proceeds level-synchronously; Lemma 6.2 promises that with high
// probability the number of active (ball, node) pairs at every level stays
// sublinear (≤ m^{1−η}), and Lemma 6.4 bounds the duplications per level.
// When the bound is violated the march aborts and the caller punts to the
// query-structure correction.
//
// Cost accounting: by Lemma 6.3 the reachable leaves of a whole tree are
// computed in O(1) steps (label every node in parallel, then one AND-scan
// per root-leaf path) given h·2^h processors, and the paper marches the
// remaining levels in a constant number of such chunks once the active-
// ball bound holds. The simulated charge is therefore a constant number of
// steps per march with work equal to the total (ball, node) pairs visited
// plus the leaf scans — the quantities the active-ball bound keeps at
// O(m). The Go execution is level-synchronous (the natural sequential
// realization); the charge reflects the PRAM algorithm.
package march

import (
	"math"

	"sepdc/internal/chaos"
	"sepdc/internal/geom"
	"sepdc/internal/pts"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
)

// Tree is a partition tree: the by-product of the sphere divide-and-
// conquer recursion over a point set. The recursion leaves the points in
// an order where every node owns a contiguous range [lo, hi) of Rows, so
// the tree is laid out flat over those rows. The internal node that
// splits its range at row mid, the first row of its right child, is
// Nodes[mid]; the leaf [lo, hi) is recorded as Ends[lo] = hi. No two
// internal nodes split at one row and no two leaves start at one, so the
// strands of a parallel build fill disjoint slots without a lock.
type Tree struct {
	Rows  *pts.PointSet // the points, in the recursion's order
	ID    []int         // row → the point's input index
	Nodes []Node        // internal nodes, by split row
	Ends  []int32       // leaf ends, by first row
	Root  Ref
}

// Node is an internal node of a Tree: the separator of its recursion step
// and its two children. The left child owns the rows below the node's
// split row, the right child the rest.
type Node struct {
	Sep         geom.Separator
	Left, Right Ref
}

// Ref names a node of a Tree: an internal node by its split row, a leaf
// by the bitwise complement of its first row. Rows fit in an int32.
type Ref int32

// LeafRef returns the Ref of the leaf whose first row is lo.
func LeafRef(lo int) Ref { return Ref(^lo) }

// IsLeaf reports whether r names a leaf.
func (r Ref) IsLeaf() bool { return r < 0 }

// Leaf returns the rows [lo, hi) of the leaf r.
func (t *Tree) Leaf(r Ref) (lo, hi int) {
	lo = int(^r)
	return lo, int(t.Ends[lo])
}

// Height returns the height of the subtree at r (a lone leaf has height
// 1).
func (t *Tree) Height(r Ref) int {
	if r.IsLeaf() {
		return 1
	}
	n := &t.Nodes[r]
	return 1 + max(t.Height(n.Left), t.Height(n.Right))
}

// Ball is one marching ball: its geometry plus the caller's identifier
// (typically the index of the point whose k-neighborhood ball it is).
//
// Radius drives tree descent (separator classification) and Radius2 drives
// the exact leaf containment test. Callers that compute the radius from a
// squared distance should pass a slightly inflated Radius together with
// the exact Radius2: over-descending only duplicates work, while the exact
// squared test guarantees no tie candidate is lost to sqrt rounding.
type Ball struct {
	ID      int
	Center  vec.Vec
	Radius  float64
	Radius2 float64
}

// NewBall builds a marching ball from an exact squared radius, with the
// descent radius inflated by InflatedRadius.
func NewBall(id int, center vec.Vec, radius2 float64) Ball {
	return Ball{ID: id, Center: center, Radius: InflatedRadius(radius2), Radius2: radius2}
}

// InflatedRadius is the radius of squared radius r2 inflated by about one
// part in 10^12 to absorb sqrt rounding, so that no test against it loses
// a tie. The pre-sqrt Nextafter bump covers subnormal underflow: points
// within ~1.5e-162 of each other have squared distance 0, so a radius² of
// 0 still means "ties possible out to sqrt(minSubnormal)", not "ties
// impossible".
func InflatedRadius(r2 float64) float64 {
	return math.Sqrt(math.Nextafter(r2, posInf)) * (1 + 1e-12)
}

// posInf is a variable rather than a math.Inf call so that InflatedRadius
// stays within the inlining budget of its callers' hot loops.
var posInf = math.Inf(1)

// Stats describes one march.
type Stats struct {
	Levels       int   // tree levels traversed
	MaxActive    int   // max (ball, node) pairs active at any level
	TotalVisited int   // Σ active over levels: the work of the reachability kernel
	Duplications int   // crossing-ball duplications (Lemma 6.4's quantity)
	ActivePerLvl []int // full per-level profile for experiment E8
	Aborted      bool  // true when MaxActive exceeded the caller's limit
}

// item is one active (ball, node) pair of the frontier.
type item struct {
	node Ref
	ball int32 // index into balls
}

// Scratch is a march's storage: the two frontier levels (which swap roles
// every level), the hit list and the per-level profile. A march returns
// its hits and Stats.ActivePerLvl in it, valid until the next march with
// the same Scratch; reused, it lets a steady stream of marches allocate
// nothing. The zero value is ready to use.
type Scratch struct {
	cur, next []item
	hits      []Hit
	prof      []int
}

// Hit pairs a ball with a point found inside it: a row of the tree's
// Rows.
type Hit struct {
	BallID int
	Point  int
}

// marchSteps is the constant step charge of one march: node labeling, the
// per-chunk AND-scans, the pack of reached leaves, and the leaf scans —
// each a unit-time vector primitive on the paper's machine.
const marchSteps = 4

// DownFlatChaos marches balls down the subtree of t rooted at root. For
// every ball, every reachable leaf is scanned and the rows lying in the
// closed ball are reported as hits, in frontier order and each leaf's
// rows in order. activeLimit aborts the march when the number
// of active pairs at some level exceeds it (pass 0 for unlimited); on
// abort the returned hits are nil and Stats.Aborted is set — the caller
// must fall back to the query-structure correction (the paper's punt).
// A march that reaches a level the fault injector inj selects aborts the
// same way, driving the caller down the punt path deterministically; a
// nil injector injects nothing.
//
// The simulated cost charged to ctx follows Lemma 6.3: each level is a
// constant number of vector primitives whose width is the level's active
// pair count; the leaf scans charge one primitive per scanned point.
//
// The hits and Stats.ActivePerLvl live in sc until its next march.
func DownFlatChaos(t *Tree, root Ref, balls []Ball, activeLimit int, ctx *vm.Ctx, inj *chaos.Injector, sc *Scratch) ([]Hit, Stats) {
	var st Stats
	if len(balls) == 0 {
		return nil, st
	}
	frontier := sc.cur[:0]
	for i := range balls {
		frontier = append(frontier, item{node: root, ball: int32(i)})
	}
	next := sc.next[:0]
	hits := sc.hits[:0]
	st.ActivePerLvl = sc.prof[:0]
	// The leaf scan is the march's densest distance loop; resolve the
	// d-specialized kernels once for the whole march (bit-identical to
	// ps.Dist2To). The four-point form amortizes the ball-center load over
	// four leaf points per call.
	ps := t.Rows
	dist2 := vec.Dist2Kernel(ps.Dim)
	batch4 := vec.Dist2Batch4Kernel(ps.Dim)
	leafWork := 0
	for len(frontier) > 0 {
		st.Levels++
		st.ActivePerLvl = append(st.ActivePerLvl, len(frontier))
		if len(frontier) > st.MaxActive {
			st.MaxActive = len(frontier)
		}
		st.TotalVisited += len(frontier)
		if (activeLimit > 0 && len(frontier) > activeLimit) || inj.AbortMarchAtLevel(st.Levels) {
			st.Aborted = true
			break
		}
		next = next[:0]
		for _, it := range frontier {
			b := &balls[it.ball]
			if it.node.IsLeaf() {
				lo, hi := t.Leaf(it.node)
				leafWork += hi - lo
				r2 := b.Radius2
				// Four leaf rows per kernel call; lane results are tested
				// in row order, so hits appear exactly as the scalar loop
				// emits them.
				p := lo
				for ; p+4 <= hi; p += 4 {
					da, db, dc, dd := batch4(b.Center, ps.At(p), ps.At(p+1), ps.At(p+2), ps.At(p+3))
					if da <= r2 {
						hits = append(hits, Hit{BallID: b.ID, Point: p})
					}
					if db <= r2 {
						hits = append(hits, Hit{BallID: b.ID, Point: p + 1})
					}
					if dc <= r2 {
						hits = append(hits, Hit{BallID: b.ID, Point: p + 2})
					}
					if dd <= r2 {
						hits = append(hits, Hit{BallID: b.ID, Point: p + 3})
					}
				}
				for ; p < hi; p++ {
					if dist2(ps.At(p), b.Center) <= r2 {
						hits = append(hits, Hit{BallID: b.ID, Point: p})
					}
				}
				continue
			}
			n := &t.Nodes[it.node]
			switch n.Sep.ClassifyBall(b.Center, b.Radius) {
			case geom.Interior:
				next = append(next, item{node: n.Left, ball: it.ball})
			case geom.Exterior:
				next = append(next, item{node: n.Right, ball: it.ball})
			default: // Crossing: duplicate into both subtrees
				st.Duplications++
				next = append(next,
					item{node: n.Left, ball: it.ball},
					item{node: n.Right, ball: it.ball})
			}
		}
		frontier, next = next, frontier
	}
	sc.cur, sc.next, sc.hits, sc.prof = frontier[:0], next[:0], hits[:0], st.ActivePerLvl[:0]
	if ctx != nil {
		// Constant steps for the whole march (Lemma 6.3, chunked);
		// work = all (ball, node) pairs labeled plus the leaf scans.
		ctx.Charge(vm.Cost{Steps: marchSteps, Work: int64(st.TotalVisited + leafWork)})
	}
	if st.Aborted {
		return nil, st
	}
	return hits, st
}
