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
	"sync"

	"sepdc/internal/chaos"
	"sepdc/internal/geom"
	"sepdc/internal/pts"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
)

// PNode is a node of a partition tree: the by-product of the sphere
// divide-and-conquer recursion over a point set. Internal nodes carry the
// separator used at that recursion step; leaves carry point indices.
type PNode struct {
	Sep   geom.Separator
	Left  *PNode
	Right *PNode
	Pts   []int // leaf payload: the leaf's rows of the point set it is marched over
}

// IsLeaf reports whether the node is a leaf.
func (n *PNode) IsLeaf() bool { return n.Sep == nil }

// Height returns the height of the tree (a lone leaf has height 1).
func (n *PNode) Height() int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	l, r := n.Left.Height(), n.Right.Height()
	if l > r {
		return l + 1
	}
	return r + 1
}

// Leaves appends all leaf payloads (the points of the subtree) to dst.
func (n *PNode) Leaves(dst []int) []int {
	if n == nil {
		return dst
	}
	if n.IsLeaf() {
		return append(dst, n.Pts...)
	}
	dst = n.Left.Leaves(dst)
	return n.Right.Leaves(dst)
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

	buf *scratch // pooled storage behind the hits and ActivePerLvl
}

// Release hands the march's pooled storage back for reuse. The hits and
// ActivePerLvl the march returned alias that storage and must not be used
// afterwards. Calling Release is optional: an unreleased march's storage
// is simply garbage collected.
func (s *Stats) Release() {
	if s.buf == nil {
		return
	}
	s.buf.prof = s.ActivePerLvl[:0]
	scratchPool.Put(s.buf)
	s.buf, s.ActivePerLvl = nil, nil
}

// item is one active (ball, node) pair of the frontier.
type item struct {
	node *PNode
	ball int // index into balls
}

// scratch is one march's storage: the two frontier levels (which swap
// roles every level), the hit list and the per-level profile. Pooled so
// that a steady stream of marches allocates nothing.
type scratch struct {
	cur, next []item
	hits      []Hit
	prof      []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Hit pairs a ball with a point found inside it.
type Hit struct {
	BallID int
	Point  int
}

// marchSteps is the constant step charge of one march: node labeling, the
// per-chunk AND-scans, the pack of reached leaves, and the leaf scans —
// each a unit-time vector primitive on the paper's machine.
const marchSteps = 4

// Down marches balls down the partition tree rooted at root. It is a
// converting wrapper over DownFlat for []vec.Vec call sites.
func Down(root *PNode, pv []vec.Vec, balls []Ball, activeLimit int, ctx *vm.Ctx) ([]Hit, Stats) {
	if root == nil || len(balls) == 0 {
		return nil, Stats{}
	}
	return DownFlat(root, pts.FromVecs(pv), balls, activeLimit, ctx)
}

// DownFlat marches balls down the partition tree rooted at root. For every
// ball, every reachable leaf is scanned and the points lying in the closed
// ball are reported as hits. activeLimit aborts the march when the number
// of active pairs at some level exceeds it (pass 0 for unlimited); on
// abort the returned hits are nil and Stats.Aborted is set — the caller
// must fall back to the query-structure correction (the paper's punt).
//
// The point set is the flat contiguous storage of package pts; the leaf
// scans stream through its backing array without per-point indirection.
//
// The simulated cost charged to ctx follows Lemma 6.3: each level is a
// constant number of vector primitives whose width is the level's active
// pair count; the leaf scans charge one primitive per scanned point.
//
// The two frontier levels, the hits and Stats.ActivePerLvl live in pooled
// storage; Stats.Release recycles it once the caller is done with them.
func DownFlat(root *PNode, ps *pts.PointSet, balls []Ball, activeLimit int, ctx *vm.Ctx) ([]Hit, Stats) {
	return DownFlatChaos(root, ps, balls, activeLimit, ctx, nil)
}

// DownFlatChaos is DownFlat with a fault injector attached: a march that
// reaches a level the injector selects aborts exactly as an active-ball
// blow-up would (nil hits, Stats.Aborted set), driving the caller down the
// punt path deterministically. A nil injector is DownFlat.
func DownFlatChaos(root *PNode, ps *pts.PointSet, balls []Ball, activeLimit int, ctx *vm.Ctx, inj *chaos.Injector) ([]Hit, Stats) {
	var st Stats
	if root == nil || len(balls) == 0 {
		return nil, st
	}
	sc := scratchPool.Get().(*scratch)
	st.buf = sc
	frontier := sc.cur[:0]
	for i := range balls {
		frontier = append(frontier, item{node: root, ball: i})
	}
	next := sc.next[:0]
	hits := sc.hits[:0]
	st.ActivePerLvl = sc.prof[:0]
	// The leaf scan is the march's densest distance loop; resolve the
	// d-specialized kernels once for the whole march (bit-identical to
	// ps.Dist2To). The four-point form amortizes the ball-center load over
	// four leaf points per call.
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
			n := it.node
			if n.IsLeaf() {
				leafWork += len(n.Pts)
				r2 := b.Radius2
				// Four leaf points per kernel call; lane results are
				// tested in point order, so hits appear exactly as the
				// scalar loop emits them.
				k := 0
				for ; k+4 <= len(n.Pts); k += 4 {
					p0, p1, p2, p3 := n.Pts[k], n.Pts[k+1], n.Pts[k+2], n.Pts[k+3]
					da, db, dc, dd := batch4(b.Center, ps.At(p0), ps.At(p1), ps.At(p2), ps.At(p3))
					if da <= r2 {
						hits = append(hits, Hit{BallID: b.ID, Point: p0})
					}
					if db <= r2 {
						hits = append(hits, Hit{BallID: b.ID, Point: p1})
					}
					if dc <= r2 {
						hits = append(hits, Hit{BallID: b.ID, Point: p2})
					}
					if dd <= r2 {
						hits = append(hits, Hit{BallID: b.ID, Point: p3})
					}
				}
				for ; k < len(n.Pts); k++ {
					p := n.Pts[k]
					if dist2(ps.At(p), b.Center) <= r2 {
						hits = append(hits, Hit{BallID: b.ID, Point: p})
					}
				}
				continue
			}
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
	// Keep whatever the buffers grew to, with their node pointers cleared
	// so the pool does not pin this tree; no level was longer than
	// MaxActive. The hits and the profile stay the caller's until
	// Stats.Release.
	clear(frontier[:min(st.MaxActive, cap(frontier))])
	clear(next[:min(st.MaxActive, cap(next))])
	sc.cur, sc.next, sc.hits = frontier[:0], next[:0], hits[:0]
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
