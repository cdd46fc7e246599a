// Package scan implements the vector-model primitive the paper's
// reachability step rests on: "a unit time scan or prefix sum
// operation" (Section 1), here in its segmented form. Lemma 6.3 decides
// every leaf's reachability with one segmented AND-scan, and
// march.ReachableLeavesScan runs it literally with SegmentedInclusive
// over the flat partition tree.
//
// On the simulated machine (package vm) a scan is charged one time step
// and O(n) work, matching the paper's accounting.
package scan

// SegmentedInclusive computes an inclusive op-scan within each segment.
// The vector is partitioned into segments by flags (flags[i] true ⇒
// position i starts a new segment), and the scan restarts with id at
// each segment head. Segmented scans are the key primitive that lets a
// flat data-parallel machine run all nodes of a recursion level
// simultaneously — exactly how the paper's divide and conquer executes
// all subproblems of one level in O(1) SCAN steps.
func SegmentedInclusive[T any](xs []T, flags []bool, op func(T, T) T, id T) []T {
	if len(flags) != len(xs) {
		panic("scan: flags length mismatch")
	}
	out := make([]T, len(xs))
	acc := id
	for i, x := range xs {
		if flags[i] {
			acc = id
		}
		acc = op(acc, x)
		out[i] = acc
	}
	return out
}
