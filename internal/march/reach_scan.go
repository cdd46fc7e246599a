package march

import (
	"sepdc/internal/geom"
	"sepdc/internal/scan"
)

// This file implements Lemma 6.3 *literally*, as the paper states it:
//
//	"For each internal node v, if B intersects S_v or its interior, then
//	 label lc(v) 1 otherwise label lc(v) 0; if B intersects S_v or its
//	 exterior, then label rc(v) 1, otherwise label rc(v) 0. … a node v in
//	 T is reachable iff all nodes (including v) on the path from v to the
//	 root of T are labeled with 1. … if we assign each leaf h processors
//	 … Using the SCAN primitive, it can be decided in constant time
//	 whether all nodes on the path are labeled with 1."
//
// The data-parallel realization: flatten every root-to-leaf path into one
// segmented vector of labels (one segment per leaf, h·2^h entries total),
// run a single segmented AND-scan, and read each segment's last element.
// On the vector model this is O(1) steps with h·2^h work — the cost
// Lemma 6.3 claims. It is the oracle the level-synchronous DownFlatChaos
// is checked against (march_test.go); reach_scan_test.go checks it
// against a recursive walk that computes the same set with O(reached)
// work. The E10 experiment times DownFlatChaos.

// ReachableLeavesScan returns the reachable leaves of the tree for ball b,
// left to right, by the labeling + segmented-AND-scan formulation of
// Lemma 6.3.
func ReachableLeavesScan(t *Tree, b Ball) []Ref {
	if t == nil {
		return nil
	}
	// Pass 1 (one parallel vector op on the model): label every node.
	// label[v] is true when the parent's separator admits the ball on v's
	// side; the root is always labeled true.
	type entry struct {
		node  Ref
		label bool
	}
	var flat []entry      // nodes in DFS order
	var leafPaths [][]int // per leaf: indices into flat along its root path
	var path []int
	var walk func(n Ref, label bool)
	walk = func(n Ref, label bool) {
		flat = append(flat, entry{node: n, label: label})
		path = append(path, len(flat)-1)
		defer func() { path = path[:len(path)-1] }()
		if n.IsLeaf() {
			leafPaths = append(leafPaths, append([]int(nil), path...))
			return
		}
		v := &t.Nodes[n]
		rel := v.Sep.ClassifyBall(b.Center, b.Radius)
		walk(v.Left, rel != geom.Exterior)
		walk(v.Right, rel != geom.Interior)
	}
	walk(t.Root, true)

	// Pass 2: build the segmented label vector (h processors per leaf) and
	// run ONE segmented AND-scan.
	var labels []bool
	var flags []bool
	for _, p := range leafPaths {
		for i, idx := range p {
			labels = append(labels, flat[idx].label)
			flags = append(flags, i == 0)
		}
	}
	scanned := scan.SegmentedInclusive(labels, flags, func(a, b bool) bool { return a && b }, true)

	// Pass 3: a leaf is reachable iff its segment's last element is true.
	var out []Ref
	pos := 0
	for _, p := range leafPaths {
		pos += len(p)
		if scanned[pos-1] {
			out = append(out, flat[p[len(p)-1]].node)
		}
	}
	return out
}
