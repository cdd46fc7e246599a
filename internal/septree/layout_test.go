package septree

import (
	"testing"

	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// breadthFirst returns f's node ids in breadth-first order: a second
// sibling-adjacent ordering, distinct from blockedOrder, for checking
// that the node order is a pure permutation of storage.
func breadthFirst(f *Frozen) []int32 {
	order := []int32{0}
	for i := 0; i < len(order); i++ {
		if nd := order[i]; f.kind[nd] != kindLeaf {
			order = append(order, f.child[nd], f.child[nd]+1)
		}
	}
	return order
}

// permute lays f out again with node order[i] as node i.
func permute(f *Frozen, order []int32) *Frozen {
	t := &draft{nstride: f.nstride, kind: f.kind, child: f.child, sep: f.sep, punted: f.punted, stats: f.stats}
	for s := range f.NumLeaves() {
		t.leaves = append(t.leaves, f.leafBalls[f.leafOff[s]:f.leafOff[s+1]])
	}
	return t.layout(f.sys, f.dim, order)
}

// TestLayoutsBitIdentical lays the same tree out in the pair-blocked
// order Build emits and in a breadth-first order, and checks every
// query observable — ids, order, nodes visited, candidates scanned — is
// identical. The node order is a pure permutation of storage; any
// divergence here means the descent is following a child pointer to the
// wrong record.
func TestLayoutsBitIdentical(t *testing.T) {
	g := xrand.New(41)
	for _, d := range []int{1, 2, 3, 4, 5} {
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.Clustered, 1100, d, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 3)
		blocked, err := Build(sys, g.Split(), nil)
		if err != nil {
			t.Fatal(err)
		}
		bfs := permute(blocked, breadthFirst(blocked))
		if err := bfs.Validate(); err != nil {
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
	blocked, err := Build(sys, g.Split(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if blocked.kind[0] != kindLeaf {
		t.Fatal("root is not a leaf")
	}
	bfs := permute(blocked, breadthFirst(blocked))
	var bOut, fOut []int
	for _, q := range queryMix(pts, 2, 100, 77) {
		bOut, _, _ = blocked.Covering(q, bOut[:0])
		fOut, _, _ = bfs.Covering(q, fOut[:0])
		if !equalInts(bOut, fOut) {
			t.Fatalf("forced-leaf: blocked %v, bfs %v", bOut, fOut)
		}
	}
}

// TestBlockedOrderPermutation lays a built tree out breadth-first and
// checks that blockedOrder over it visits every node exactly once — a
// permutation, nothing dropped, nothing doubled — with the root first
// and every sibling pair adjacent, the invariant the descent's
// right = left+1 branch relies on; that permuting by it restores
// exactly the tree Build returns; and that Build's tree is already in
// blocked order.
func TestBlockedOrderPermutation(t *testing.T) {
	f, _ := buildUniform(t, 1500, 3, 3, 19, nil)
	bfs := permute(f, breadthFirst(f))
	order := blockedOrder(bfs.kind, bfs.child)
	if len(order) != bfs.NumNodes() {
		t.Fatalf("blocked order has %d nodes, tree %d", len(order), bfs.NumNodes())
	}
	pos := make([]int, bfs.NumNodes())
	for i := range pos {
		pos[i] = -1
	}
	for i, nd := range order {
		if pos[nd] >= 0 {
			t.Fatal("blocked order visits a node twice")
		}
		pos[nd] = i
	}
	for nd, i := range pos {
		if i < 0 {
			t.Fatal("blocked order drops a node")
		}
		if c := bfs.child[nd]; bfs.kind[nd] != kindLeaf && pos[c+1] != pos[c]+1 {
			t.Fatalf("node %d: children at %d and %d, not adjacent", i, pos[c], pos[c+1])
		}
	}
	if order[0] != 0 {
		t.Fatal("root is not node 0 in blocked order")
	}
	if frozenHash(permute(bfs, order)) != frozenHash(f) {
		t.Fatal("permuting the breadth-first tree into blocked order does not give Build's tree")
	}
	for i, nd := range blockedOrder(f.kind, f.child) {
		if nd != int32(i) {
			t.Fatalf("Build's tree is not in blocked order: position %d holds node %d", i, nd)
		}
	}
}

// TestUseGenericKernels pins the generic-kernel build: a tree built
// under vec.TierGeneric (no batch or strided kernels captured, so every
// leaf candidate goes through the single-pair loop) has the same layout
// and changes no answer and no counter against the same tree built
// under the active tier, at the specialized dimensions and above the
// dispatch table.
func TestUseGenericKernels(t *testing.T) {
	g := xrand.New(47)
	for _, d := range []int{4, 6, 9} {
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 800, d, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 3)
		seed := g.Uint64()
		opt, err := Build(sys, xrand.New(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		prev := vec.SetActiveTier(vec.TierGeneric)
		ref, err := Build(sys, xrand.New(seed), nil)
		vec.SetActiveTier(prev)
		if err != nil {
			t.Fatal(err)
		}
		if ref.batch4 != nil || ref.strided8 != nil {
			t.Fatalf("d=%d: generic-tier build captured batch kernels", d)
		}
		if frozenHash(ref) != frozenHash(opt) {
			t.Fatalf("d=%d: generic-tier build laid the tree out differently", d)
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
