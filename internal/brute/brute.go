// Package brute provides quadratic-time reference implementations of the
// k-nearest-neighbor primitives. They are the ground truth every other
// algorithm is tested against, and they serve as the paper's base case: the
// divide and conquer switches to "deterministically compute … by testing all
// pairs of points" once a subproblem has at most log n points (Section 6.1,
// step 1).
package brute

import (
	"sepdc/internal/pts"
	"sepdc/internal/topk"
	"sepdc/internal/vec"
)

// KNN returns the k nearest neighbors of pts[q] among pts, excluding q
// itself, in canonical (distance², index) order. When the set has fewer
// than k other points, all of them are returned.
func KNN(pts []vec.Vec, q, k int) *topk.List {
	l := topk.New(k)
	dist2 := vec.Dist2Kernel(len(pts[q]))
	for i, p := range pts {
		if i == q {
			continue
		}
		l.Insert(i, dist2(pts[q], p))
	}
	return l
}

// AllKNN returns the k-nearest-neighbor lists of every point, by testing
// all pairs. O(n²·d) time, O(n·k) space.
func AllKNN(pv []vec.Vec, k int) []*topk.List {
	if len(pv) == 0 {
		return make([]*topk.List, 0)
	}
	return AllKNNFlat(pts.FromVecs(pv), k)
}

// AllKNNFlat is AllKNN over flat contiguous point storage. The returned
// lists share one arena allocation (topk.NewArena) and the pair loop
// streams through the backing array.
func AllKNNFlat(ps *pts.PointSet, k int) []*topk.List {
	n := ps.N()
	lists := topk.NewArena(n, k).Lists()
	// The all-pairs loop is the library's purest distance workload; the
	// d-specialized kernels are resolved once for the n²/2 pairs
	// (bit-identical to ps.Dist2). The inner loop runs four j's per
	// four-point kernel call — one load of pi's coordinates amortized
	// over four candidate rows, which in flat storage are consecutive —
	// with Insert offers in the same (i,j) order as the scalar loop, so
	// list contents are unchanged.
	dist2 := vec.Dist2Kernel(ps.Dim)
	batch4 := vec.Dist2Batch4Kernel(ps.Dim)
	for i := 0; i < n; i++ {
		pi := ps.At(i)
		j := i + 1
		for ; j+4 <= n; j += 4 {
			da, db, dc, dd := batch4(pi, ps.At(j), ps.At(j+1), ps.At(j+2), ps.At(j+3))
			lists[i].Insert(j, da)
			lists[j].Insert(i, da)
			lists[i].Insert(j+1, db)
			lists[j+1].Insert(i, db)
			lists[i].Insert(j+2, dc)
			lists[j+2].Insert(i, dc)
			lists[i].Insert(j+3, dd)
			lists[j+3].Insert(i, dd)
		}
		for ; j < n; j++ {
			d2 := dist2(pi, ps.At(j))
			lists[i].Insert(j, d2)
			lists[j].Insert(i, d2)
		}
	}
	return lists
}

// AllKNNInto tests all pairs of rows and offers each pair to the rows'
// existing lists — the divide and conquer's base case over a node's
// contiguous range. Row a's list is lists[a], and it is offered as
// neighbor ids[a], so the lists hold the caller's point indices.
func AllKNNInto(rows *pts.PointSet, ids []int, lists []*topk.List) {
	dist2 := vec.Dist2Kernel(rows.Dim)
	batch4 := vec.Dist2Batch4Kernel(rows.Dim)
	n := rows.N()
	for a := 0; a < n; a++ {
		pa := rows.At(a)
		la, ia := lists[a], ids[a]
		b := a + 1
		// Four rows per kernel call, offered in scalar pair order.
		for ; b+4 <= n; b += 4 {
			da, db, dc, dd := batch4(pa, rows.At(b), rows.At(b+1), rows.At(b+2), rows.At(b+3))
			la.Insert(ids[b], da)
			lists[b].Insert(ia, da)
			la.Insert(ids[b+1], db)
			lists[b+1].Insert(ia, db)
			la.Insert(ids[b+2], dc)
			lists[b+2].Insert(ia, dc)
			la.Insert(ids[b+3], dd)
			lists[b+3].Insert(ia, dd)
		}
		for ; b < n; b++ {
			d2 := dist2(pa, rows.At(b))
			la.Insert(ids[b], d2)
			lists[b].Insert(ia, d2)
		}
	}
}

// PointsInBall returns the indices i with |pts[i] − center| ≤ r (closed
// ball), excluding the optional self index (pass −1 to keep all).
func PointsInBall(pts []vec.Vec, center vec.Vec, r float64, self int) []int {
	r2 := r * r
	var out []int
	dist2 := vec.Dist2Kernel(len(center))
	for i, p := range pts {
		if i == self {
			continue
		}
		if dist2(center, p) <= r2 {
			out = append(out, i)
		}
	}
	return out
}

// CountCoveringBalls returns how many of the balls (centers[i], radii[i])
// strictly contain p — the ply of p under the neighborhood system, computed
// by definition.
func CountCoveringBalls(centers []vec.Vec, radii []float64, p vec.Vec) int {
	count := 0
	dist2 := vec.Dist2Kernel(len(p))
	for i, c := range centers {
		if dist2(c, p) < radii[i]*radii[i] {
			count++
		}
	}
	return count
}
