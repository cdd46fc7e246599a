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
	"slices"

	"sepdc/internal/geom"
	"sepdc/internal/kdtree"
	"sepdc/internal/pts"
	"sepdc/internal/topk"
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

// KNeighborhood builds the k-neighborhood system of points: each B_i has
// radius equal to the distance from p_i to its k-th nearest neighbor, so
// the open interior contains at most k−1 points (exactly k−1 in general
// position). Points with fewer than k other points get the distance to
// their farthest neighbor. The centers alias points.
func KNeighborhood(points []vec.Vec, k int) *System {
	radii := []float64{}
	if len(points) > 0 {
		radii = kRadii(pts.FromVecs(points), k)
	}
	return &System{Centers: points, Radii: radii, K: k}
}

// KNeighborhoodFlat is KNeighborhood over flat point storage; the centers
// are views into ps.
func KNeighborhoodFlat(ps *pts.PointSet, k int) *System {
	return &System{Centers: ps.Vecs(), Radii: kRadii(ps, k), K: k}
}

// kRadii returns each point's distance to its k-th nearest neighbor. The
// searches run in the kd-tree's leaf order, so consecutive ones walk
// nearby paths, and share one top-k list.
func kRadii(ps *pts.PointSet, k int) []float64 {
	tree := kdtree.BuildFlat(ps, kdtree.DefaultLeafSize)
	radii := make([]float64, ps.N())
	l := topk.New(k)
	for _, i := range tree.Order() {
		l.Reset()
		tree.KNNInto(ps.At(i), i, l)
		r2, _ := l.Radius2()
		radii[i] = math.Sqrt(r2)
	}
	return radii
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
// over ball centers, annotated with the maximum ball radius under each
// node, pruning subtrees that cannot reach p. For k-ply systems the query
// cost is close to that of a point location.
type BallIndex struct {
	sys  *System
	tree *kdtree.Tree
	maxR []float64 // per tree node: the largest radius of its balls
}

// NewBallIndex builds the index in O(n log n).
func NewBallIndex(s *System) *BallIndex {
	bi := &BallIndex{sys: s, tree: kdtree.Build(s.Centers)}
	bi.maxR = make([]float64, bi.tree.NumNodes())
	for id := range bi.maxR {
		_, points, _, _ := bi.tree.Node(id)
		for _, j := range points {
			bi.maxR[id] = max(bi.maxR[id], s.Radii[j])
		}
	}
	return bi
}

// Covering returns the indices of balls whose open interior contains p,
// in ascending order of index.
func (bi *BallIndex) Covering(p vec.Vec) []int {
	var out []int
	var walk func(id int)
	walk = func(id int) {
		box, points, left, right := bi.tree.Node(id)
		if r := bi.maxR[id]; box.Dist2ToPoint(p) >= r*r {
			return
		}
		if left >= 0 {
			walk(left)
			walk(right)
			return
		}
		for _, j := range points {
			rj := bi.sys.Radii[j]
			if vec.Dist2(p, bi.sys.Centers[j]) < rj*rj {
				out = append(out, j)
			}
		}
	}
	if bi.tree.NumNodes() > 0 {
		walk(0)
	}
	// Leaves hold indices in tree order; sort for deterministic output.
	slices.Sort(out)
	return out
}
