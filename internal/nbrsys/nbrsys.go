// Package nbrsys implements neighborhood systems (Section 2 of the paper):
// finite collections of balls B = {B_1, …, B_n} in R^d, the k-neighborhood
// system of a point set (B_i is the largest ball centered at p_i whose
// interior contains at most k−1 other points), ply computation, and the
// classification of a system against a sphere separator into the interior,
// exterior, and crossing subsets B_I(S), B_E(S), B_O(S) whose crossing
// cardinality ι_B(S) is the separator's intersection number.
package nbrsys

import (
	"fmt"
	"math"

	"sepdc/internal/geom"
	"sepdc/internal/kdtree"
	"sepdc/internal/vec"
)

// System is a neighborhood system: parallel slices of centers and radii.
// K is the neighborhood size the radii were derived from (the k of a
// k-neighborhood system); 0 is read as 1.
type System struct {
	Centers []vec.Vec
	Radii   []float64
	K       int
}

// Len returns the number of balls.
func (s *System) Len() int { return len(s.Centers) }

// Ball returns the i-th ball.
func (s *System) Ball(i int) geom.Ball {
	return geom.Ball{Center: s.Centers[i], Radius: s.Radii[i]}
}

// Validate checks structural invariants.
func (s *System) Validate() error {
	if len(s.Centers) != len(s.Radii) {
		return fmt.Errorf("nbrsys: %d centers but %d radii", len(s.Centers), len(s.Radii))
	}
	for i, r := range s.Radii {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("nbrsys: ball %d has invalid radius %v", i, r)
		}
		if !vec.IsFinite(s.Centers[i]) {
			return fmt.Errorf("nbrsys: ball %d has non-finite center", i)
		}
	}
	return nil
}

// KNeighborhood builds the k-neighborhood system of pts: each B_i has
// radius equal to the distance from p_i to its k-th nearest neighbor, so
// the open interior contains at most k−1 points (exactly k−1 in general
// position). Points with fewer than k other points get the distance to
// their farthest neighbor.
func KNeighborhood(pts []vec.Vec, k int) *System {
	tree := kdtree.Build(pts)
	radii := make([]float64, len(pts))
	for i := range pts {
		r2, _ := tree.KNN(pts[i], k, i).Radius2()
		radii[i] = math.Sqrt(r2)
	}
	return &System{Centers: pts, Radii: radii, K: k}
}

// Partition classifies every ball against sep, returning index sets for
// B_I(S), B_E(S), and B_O(S) (Section 2.1). The intersection number
// ι_B(S) is len(crossing).
func (s *System) Partition(sep geom.Separator) (interior, exterior, crossing []int) {
	for i := range s.Centers {
		switch sep.ClassifyBall(s.Centers[i], s.Radii[i]) {
		case geom.Interior:
			interior = append(interior, i)
		case geom.Exterior:
			exterior = append(exterior, i)
		default:
			crossing = append(crossing, i)
		}
	}
	return interior, exterior, crossing
}

// IntersectionNumber returns ι_B(S): the number of balls crossing sep.
func (s *System) IntersectionNumber(sep geom.Separator) int {
	count := 0
	for i := range s.Centers {
		if sep.ClassifyBall(s.Centers[i], s.Radii[i]) == geom.Crossing {
			count++
		}
	}
	return count
}

// SplitPoints classifies the ball centers (not the balls) against sep: the
// paper's separator algorithm splits by centers, with on-surface points
// assigned to the interior (Section 3.2, query case 3).
func SplitPoints(pts []vec.Vec, sep geom.Separator) (interior, exterior []int) {
	for i, p := range pts {
		if sep.Side(p) <= 0 {
			interior = append(interior, i)
		} else {
			exterior = append(exterior, i)
		}
	}
	return interior, exterior
}

// PlyAt returns the number of balls whose open interior contains p,
// using a radius-annotated kd-tree over the centers for pruning.
func (s *System) PlyAt(p vec.Vec, idx *BallIndex) int {
	return len(idx.Covering(p))
}

// MaxPlyAtCenters returns max over all ball centers of the ply at that
// center — the empirical quantity bounded by the Density Lemma (τ_d·k).
func (s *System) MaxPlyAtCenters() int {
	idx := NewBallIndex(s)
	maxPly := 0
	for _, c := range s.Centers {
		if ply := len(idx.Covering(c)); ply > maxPly {
			maxPly = ply
		}
	}
	return maxPly
}

// KissingNumber returns the kissing number τ_d for small d (the known
// exact values; d ≤ 4 are proven, 8 and 24 are proven, others are the best
// known lower bounds, adequate for experiment reporting).
func KissingNumber(d int) int {
	switch d {
	case 1:
		return 2
	case 2:
		return 6
	case 3:
		return 12
	case 4:
		return 24
	case 5:
		return 40
	case 6:
		return 72
	case 7:
		return 126
	case 8:
		return 240
	default:
		// Grows exponentially; return a conservative lower bound.
		return 240 << (2 * (d - 8))
	}
}

// BallIndex answers "which balls cover point p" queries. It is a kd-tree
// over ball centers whose nodes carry the maximum ball radius in their
// subtree, pruning subtrees that cannot reach p. For k-ply systems the
// query cost is close to that of a point location.
type BallIndex struct {
	sys  *System
	root *biNode
}

type biNode struct {
	bounds    geom.Bounds
	maxRadius float64
	idx       []int // leaf
	left      *biNode
	right     *biNode
}

const ballIndexLeaf = 16

// NewBallIndex builds the index in O(n log n).
func NewBallIndex(s *System) *BallIndex {
	bi := &BallIndex{sys: s}
	if s.Len() == 0 {
		return bi
	}
	idx := make([]int, s.Len())
	for i := range idx {
		idx[i] = i
	}
	bi.root = bi.build(idx)
	return bi
}

func (bi *BallIndex) build(idx []int) *biNode {
	pts := make([]vec.Vec, len(idx))
	maxR := 0.0
	for i, j := range idx {
		pts[i] = bi.sys.Centers[j]
		if bi.sys.Radii[j] > maxR {
			maxR = bi.sys.Radii[j]
		}
	}
	n := &biNode{bounds: geom.NewBounds(pts), maxRadius: maxR}
	if len(idx) <= ballIndexLeaf {
		n.idx = idx
		return n
	}
	dim := n.bounds.WidestDim()
	// Partition around the midpoint of the widest dimension; guaranteed to
	// make progress unless all coordinates coincide, in which case leaf out.
	mid := (n.bounds.Lo[dim] + n.bounds.Hi[dim]) / 2
	var lo, hi []int
	for _, j := range idx {
		if bi.sys.Centers[j][dim] <= mid {
			lo = append(lo, j)
		} else {
			hi = append(hi, j)
		}
	}
	if len(lo) == 0 || len(hi) == 0 {
		n.idx = idx
		return n
	}
	n.left = bi.build(lo)
	n.right = bi.build(hi)
	return n
}

// Covering returns the indices of balls whose open interior contains p,
// in ascending order of index.
func (bi *BallIndex) Covering(p vec.Vec) []int {
	var out []int
	var walk func(n *biNode)
	walk = func(n *biNode) {
		if n == nil {
			return
		}
		r := n.maxRadius
		if n.bounds.Dist2ToPoint(p) >= r*r {
			return
		}
		if n.idx != nil {
			for _, j := range n.idx {
				rj := bi.sys.Radii[j]
				if vec.Dist2(p, bi.sys.Centers[j]) < rj*rj {
					out = append(out, j)
				}
			}
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(bi.root)
	// The tree can emit out-of-order leaves; sort for deterministic output.
	insertionSortInts(out)
	return out
}

func insertionSortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
