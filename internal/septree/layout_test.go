package septree

import (
	"testing"

	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// breadthFirst returns the tree's nodes in breadth-first order: a second
// sibling-adjacent ordering, distinct from blockedOrder, for checking
// that the frozen node order is a pure permutation of storage.
func breadthFirst(root *Node) []*Node {
	order := []*Node{root}
	for i := 0; i < len(order); i++ {
		if nd := order[i]; !nd.IsLeaf() {
			order = append(order, nd.Left, nd.Right)
		}
	}
	return order
}

// TestLayoutsBitIdentical freezes the same tree under the pair-blocked
// order Freeze emits and under a breadth-first order, and checks every
// query observable — ids, order, nodes visited, candidates scanned — is
// identical. The node order is a pure permutation of storage; any
// divergence here means the descent is following a child pointer to the
// wrong record.
func TestLayoutsBitIdentical(t *testing.T) {
	g := xrand.New(41)
	for _, d := range []int{1, 2, 3, 4, 5} {
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.Clustered, 1100, d, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 3)
		tree, err := Build(sys, g.Split(), nil)
		if err != nil {
			t.Fatal(err)
		}
		blocked, err := Freeze(tree)
		if err != nil {
			t.Fatalf("d=%d blocked: %v", d, err)
		}
		bfs, err := freezeOrder(tree, breadthFirst(tree.Root))
		if err != nil {
			t.Fatalf("d=%d bfs: %v", d, err)
		}
		if blocked.NumNodes() != bfs.NumNodes() || blocked.NumLeaves() != bfs.NumLeaves() ||
			blocked.StoredBalls() != bfs.StoredBalls() {
			t.Fatalf("d=%d: layouts disagree on shape: nodes %d/%d leaves %d/%d stored %d/%d",
				d, blocked.NumNodes(), bfs.NumNodes(), blocked.NumLeaves(), bfs.NumLeaves(),
				blocked.StoredBalls(), bfs.StoredBalls())
		}
		var bOut, fOut []int
		for qi, q := range queryMix(pts, d, 300, uint64(50+d)) {
			for _, closed := range []bool{false, true} {
				var bv, bs, fv, fs int
				if closed {
					bOut, bv, bs = blocked.CoveringClosed(q, bOut[:0])
					fOut, fv, fs = bfs.CoveringClosed(q, fOut[:0])
				} else {
					bOut, bv, bs = blocked.Covering(q, bOut[:0])
					fOut, fv, fs = bfs.Covering(q, fOut[:0])
				}
				if !equalInts(bOut, fOut) {
					t.Fatalf("d=%d q=%d closed=%v: blocked %v, bfs %v", d, qi, closed, bOut, fOut)
				}
				if bv != fv || bs != fs {
					t.Fatalf("d=%d q=%d closed=%v: counters (%d,%d) vs (%d,%d)",
						d, qi, closed, bv, bs, fv, fs)
				}
			}
		}
	}
}

// TestLayoutsBitIdenticalForcedLeaf covers the degenerate single-leaf
// tree (fewer points than m0 makes the root absorb everything) under both
// orders — the blocked traversal's singleton-root unit edge case.
func TestLayoutsBitIdenticalForcedLeaf(t *testing.T) {
	g := xrand.New(43)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 30, 2, g.Split()))
	sys := nbrsys.KNeighborhood(pts, 2)
	if m0 := leafSize(2, 2, len(pts)); len(pts) >= m0 {
		t.Fatalf("%d points do not fit one leaf of m0=%d", len(pts), m0)
	}
	tree, err := Build(sys, g.Split(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() {
		t.Fatal("root is not a leaf")
	}
	blocked, err := Freeze(tree)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := freezeOrder(tree, breadthFirst(tree.Root))
	if err != nil {
		t.Fatal(err)
	}
	var bOut, fOut []int
	for _, q := range queryMix(pts, 2, 100, 77) {
		bOut, _, _ = blocked.Covering(q, bOut[:0])
		fOut, _, _ = bfs.Covering(q, fOut[:0])
		if !equalInts(bOut, fOut) {
			t.Fatalf("forced-leaf: blocked %v, bfs %v", bOut, fOut)
		}
	}
}

// TestBlockedOrderPermutation checks blockedOrder visits every node of
// the tree exactly once — it is a permutation of a recursive walk of the
// pointer tree, nothing dropped, nothing doubled — with the root first
// and every sibling pair adjacent, the invariant the frozen descent's
// right = left+1 branch relies on.
func TestBlockedOrderPermutation(t *testing.T) {
	tree, _ := buildUniform(t, 1500, 3, 3, 19, nil)
	var walk []*Node
	var visit func(nd *Node)
	visit = func(nd *Node) {
		walk = append(walk, nd)
		if !nd.IsLeaf() {
			visit(nd.Left)
			visit(nd.Right)
		}
	}
	visit(tree.Root)
	blocked := blockedOrder(tree.Root)
	if len(walk) != len(blocked) {
		t.Fatalf("blocked order has %d nodes, tree walk %d", len(blocked), len(walk))
	}
	pos := make(map[*Node]int, len(blocked))
	for i, nd := range blocked {
		if _, dup := pos[nd]; dup {
			t.Fatal("blocked order visits a node twice")
		}
		pos[nd] = i
	}
	for _, nd := range walk {
		i, ok := pos[nd]
		if !ok {
			t.Fatal("blocked order drops a node")
		}
		if !nd.IsLeaf() && pos[nd.Right] != pos[nd.Left]+1 {
			t.Fatalf("node %d: children at %d and %d, not adjacent", i, pos[nd.Left], pos[nd.Right])
		}
	}
	if blocked[0] != tree.Root {
		t.Fatal("root is not node 0 in blocked order")
	}
}

// TestUseGenericKernels pins the generic-kernel freeze: a tree frozen
// under vec.TierGeneric (no batch or strided kernels captured, so every
// leaf candidate goes through the single-pair loop) changes no answer
// and no counter against the same tree frozen under the active tier, at
// the specialized dimensions and above the dispatch table.
func TestUseGenericKernels(t *testing.T) {
	g := xrand.New(47)
	for _, d := range []int{4, 6, 9} {
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 800, d, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 3)
		tree, err := Build(sys, g.Split(), nil)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Freeze(tree)
		if err != nil {
			t.Fatal(err)
		}
		prev := vec.SetActiveTier(vec.TierGeneric)
		ref, err := Freeze(tree)
		vec.SetActiveTier(prev)
		if err != nil {
			t.Fatal(err)
		}
		if ref.batch4 != nil || ref.strided8 != nil {
			t.Fatalf("d=%d: generic-tier freeze captured batch kernels", d)
		}
		var a, b []int
		for qi, q := range queryMix(pts, d, 200, uint64(90+d)) {
			var av, as, bv, bs int
			a, av, as = opt.CoveringClosed(q, a[:0])
			b, bv, bs = ref.CoveringClosed(q, b[:0])
			if !equalInts(a, b) || av != bv || as != bs {
				t.Fatalf("d=%d q=%d: kernels %v (%d,%d), generic %v (%d,%d)",
					d, qi, a, av, as, b, bv, bs)
			}
		}
	}
}
