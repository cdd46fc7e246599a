// Package kdtree implements a median-split kd-tree with branch-and-bound
// k-nearest-neighbor search. It stands in for Vaidya's O(n log n)
// sequential all-nearest-neighbors algorithm as the sequential-work
// comparator of the reproduction (see DESIGN.md, substitutions), and it
// computes the k-neighborhood radii behind every query structure.
//
// The tree is flat: one node array, one box array and one permutation of
// the point indices, with each node owning a contiguous range of that
// permutation. The build partitions the ranges in place by quickselect on
// (coordinate, index), as ParGeo's kd-tree does, so it makes no per-node
// index copies or box allocations and runs in O(n log n) expected time.
package kdtree

import (
	"cmp"
	"slices"

	"sepdc/internal/geom"
	"sepdc/internal/pts"
	"sepdc/internal/topk"
	"sepdc/internal/vec"
)

// Tree is an immutable kd-tree over a point set. It stores indices into
// flat contiguous point storage (package pts); building from []vec.Vec
// flattens once up front.
type Tree struct {
	ps     *pts.PointSet
	nodes  []node    // nodes[0] is the root; empty for an empty tree
	box    []float64 // node i's box: lo at [2i·d, (2i+1)·d), hi after it
	perm   []int     // point indices in leaf order
	leafC  int       // leaf capacity used at build time
	height int
	dist2  vec.Dist2Func // d-specialized distance kernel, resolved at build
}

// node owns perm[lo:hi]. An internal node's left child holds the first
// ⌊m/2⌋ of its m points in (coord[dim], index) order, so every split makes
// progress even on coincident points. Pruning is exact by the boxes alone;
// split only picks the child searched first.
type node struct {
	lo, hi      int32
	left, right int32 // child node ids; −1 at a leaf
	dim         int32
	split       float64 // largest coord[dim] in the left child
}

// DefaultLeafSize is the leaf capacity below which brute force takes over.
const DefaultLeafSize = 16

// Build constructs a kd-tree over pv with the default leaf size.
func Build(pv []vec.Vec) *Tree { return BuildLeaf(pv, DefaultLeafSize) }

// BuildLeaf constructs a kd-tree with the given leaf capacity, flattening
// the points into contiguous storage first.
func BuildLeaf(pv []vec.Vec, leafSize int) *Tree {
	if len(pv) == 0 {
		return &Tree{leafC: max(leafSize, 1)}
	}
	return BuildFlat(pts.FromVecs(pv), leafSize)
}

// BuildFlat constructs a kd-tree directly over flat contiguous point
// storage. The PointSet is referenced, not copied; it must not be mutated
// while the tree is in use.
func BuildFlat(ps *pts.PointSet, leafSize int) *Tree {
	leafSize = max(leafSize, 1)
	n := ps.N()
	t := &Tree{ps: ps, leafC: leafSize, dist2: vec.Dist2Kernel(ps.Dim)}
	if n == 0 {
		return t
	}
	// Every leaf holds at least ⌈leafSize/2⌉ points, so this bounds the
	// node count and the arrays never grow.
	maxNodes := max(1, 2*n/((leafSize+1)/2))
	t.nodes = make([]node, 0, maxNodes)
	t.box = make([]float64, 0, 2*maxNodes*ps.Dim)
	t.perm = make([]int, n)
	for i := range t.perm {
		t.perm[i] = i
	}
	t.build(0, n, 1)
	return t
}

// build appends the node owning perm[lo:hi], then its subtrees in preorder,
// and returns its id.
func (t *Tree) build(lo, hi, depth int) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{lo: int32(lo), hi: int32(hi), left: -1, right: -1})
	t.height = max(t.height, depth)
	data, d := t.ps.Data, t.ps.Dim
	b := len(t.box)
	t.box = append(t.box, data[t.perm[lo]*d:(t.perm[lo]+1)*d]...)
	t.box = append(t.box, data[t.perm[lo]*d:(t.perm[lo]+1)*d]...)
	bl, bh := t.box[b:b+d], t.box[b+d:b+2*d]
	for _, j := range t.perm[lo+1 : hi] {
		for c, x := range data[j*d : (j+1)*d] {
			bl[c] = min(bl[c], x)
			bh[c] = max(bh[c], x)
		}
	}
	if hi-lo <= t.leafC {
		return id
	}
	dim := t.bounds(id).WidestDim()
	mid := lo + (hi-lo)/2
	t.selectRank(lo, hi, mid-1, dim)
	split := data[t.perm[mid-1]*d+dim]
	left := t.build(lo, mid, depth+1)
	right := t.build(mid, hi, depth+1)
	t.nodes[id].left, t.nodes[id].right = left, right
	t.nodes[id].dim, t.nodes[id].split = int32(dim), split
	return id
}

// selectRank reorders perm[lo:hi] by quickselect so that perm[r] holds the
// element of that rank in (coord[dim], index) order, with the smaller
// elements before it. Keys are distinct because indices are, so every
// partition round settles its pivot and shrinks the range. The expected
// work is O(m) for m points; a range still open after 8m elements have
// been scanned is sorted outright, which bounds the worst case by
// O(m log m).
func (t *Tree) selectRank(lo, hi, r, dim int) {
	data, d, perm := t.ps.Data, t.ps.Dim, t.perm
	less := func(a, b int) bool {
		ca, cb := data[a*d+dim], data[b*d+dim]
		return ca < cb || ca == cb && a < b
	}
	for budget := 8 * (hi - lo); hi-lo > 1; budget -= hi - lo {
		if budget < 0 {
			slices.SortFunc(perm[lo:hi], func(a, b int) int {
				if c := cmp.Compare(data[a*d+dim], data[b*d+dim]); c != 0 {
					return c
				}
				return a - b
			})
			return
		}
		m := lo + (hi-lo)/2 // the middle element is the pivot, parked at hi-1
		perm[m], perm[hi-1] = perm[hi-1], perm[m]
		pivot, store := perm[hi-1], lo
		for i := lo; i < hi-1; i++ {
			if less(perm[i], pivot) {
				perm[i], perm[store] = perm[store], perm[i]
				store++
			}
		}
		perm[store], perm[hi-1] = perm[hi-1], perm[store]
		switch {
		case r < store:
			hi = store
		case r > store:
			lo = store + 1
		default:
			return
		}
	}
}

// NumNodes returns the number of tree nodes; node 0 is the root, and every
// node's children follow it.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Node returns node id's bounding box, its points in leaf order, and its
// children, which are −1 at a leaf. The slices alias the tree.
func (t *Tree) Node(id int) (box geom.Bounds, points []int, left, right int) {
	n := &t.nodes[id]
	return t.bounds(int32(id)), t.perm[n.lo:n.hi], int(n.left), int(n.right)
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.ps.N() }

// Order returns the point indices in leaf order: each leaf's points are
// adjacent. Queries issued in this order follow nearby tree paths one
// after another. The slice aliases the tree; callers must not modify it.
func (t *Tree) Order() []int { return t.perm }

// KNNInto offers l the points nearest q, excluding self (pass −1 to
// exclude nothing). Afterwards l holds the l.K nearest of them together
// with whatever it held before, so pass an empty list for plain k-NN.
func (t *Tree) KNNInto(q vec.Vec, self int, l *topk.List) {
	if len(t.nodes) > 0 {
		t.knn(0, q, self, l)
	}
}

func (t *Tree) knn(id int32, q vec.Vec, self int, l *topk.List) {
	if worst, ok := l.WorstDist2(); ok && t.bounds(id).Dist2ToPoint(q) > worst {
		return
	}
	n := &t.nodes[id]
	if n.left < 0 {
		for _, j := range t.perm[n.lo:n.hi] {
			if j == self {
				continue
			}
			l.Insert(j, t.dist2(q, t.ps.At(j)))
		}
		return
	}
	// Visit the nearer child first to tighten the bound early.
	first, second := n.left, n.right
	if q[n.dim] > n.split {
		first, second = n.right, n.left
	}
	t.knn(first, q, self, l)
	t.knn(second, q, self, l)
}

// bounds returns node id's box as views into the box array.
func (t *Tree) bounds(id int32) geom.Bounds {
	d, o := t.ps.Dim, 2*int(id)*t.ps.Dim
	return geom.Bounds{Lo: t.box[o : o+d], Hi: t.box[o+d : o+2*d]}
}

// AllKNN computes the k-NN lists of all indexed points sequentially. This
// is the sequential-work comparator: one kd-tree query per point, issued
// in leaf order. The lists share one arena allocation.
func (t *Tree) AllKNN(k int) []*topk.List {
	out := topk.NewArena(t.Len(), k).Lists()
	for _, i := range t.perm {
		t.KNNInto(t.ps.At(i), i, out[i])
	}
	return out
}

// Height returns the height of the tree (a single leaf has height 1).
func (t *Tree) Height() int { return t.height }
