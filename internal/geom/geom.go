// Package geom provides the geometric primitives of the separator library:
// spheres, balls, halfspaces, the classification of balls against a
// separator (interior / exterior / crossing, Section 2.1 of the paper), and
// the stereographic machinery used by the Miller–Teng–Thurston–Vavasis
// sphere-separator algorithm.
//
// Conventions:
//
//   - A Sphere is the (d-1)-dimensional boundary surface; a ball is the
//     solid region, passed as a center and a radius. The paper's
//     separator S is a Sphere; the neighborhood system's B_i are balls.
//   - Side returns -1 for the interior / negative halfspace, +1 for the
//     exterior / positive halfspace, and 0 for points within Eps of the
//     surface. The paper sends on-sphere points to the interior subtree, so
//     callers treat 0 as "inside".
package geom

import (
	"fmt"
	"math"

	"sepdc/internal/vec"
)

// Eps is the tolerance for on-surface classification. It is zero: Side
// reports 0 only for exact surface membership. Exactness matters — the
// correctness proof of the search structure needs "p on S ⇒ every ball
// containing p crosses S", which holds for exact comparisons (triangle
// inequality) but can be violated by a nonzero tolerance band.
const Eps = 0

// Relation classifies a ball against a separator surface.
type Relation int

const (
	// Interior: the ball lies strictly inside (negative side of) the separator.
	Interior Relation = iota - 1
	// Crossing: the ball intersects the separator surface. Crossing balls
	// form the separator set B_O(S) of the paper.
	Crossing
	// Exterior: the ball lies strictly outside (positive side of) the separator.
	Exterior
)

func (r Relation) String() string {
	switch r {
	case Interior:
		return "interior"
	case Crossing:
		return "crossing"
	case Exterior:
		return "exterior"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Separator is a surface that splits R^d into two regions. Both the
// (d-1)-sphere used by the paper's algorithms and the hyperplane used by the
// Bentley/Cole–Goodrich baseline implement it.
type Separator interface {
	// Side reports where p lies: -1 interior/negative, 0 on the surface
	// (within Eps), +1 exterior/positive.
	Side(p vec.Vec) int
	// ClassifyBall reports the relation of the closed ball (center, radius)
	// to the surface.
	ClassifyBall(center vec.Vec, radius float64) Relation
	// Dim returns the ambient dimension d.
	Dim() int
	// String renders the separator for diagnostics.
	String() string
}

// Sphere is the surface {x : |x - Center| = Radius} in R^d.
type Sphere struct {
	Center vec.Vec
	Radius float64
}

// NewSphere validates and builds a sphere.
func NewSphere(center vec.Vec, radius float64) (Sphere, error) {
	if radius <= 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return Sphere{}, fmt.Errorf("geom: invalid sphere radius %v", radius)
	}
	if !vec.IsFinite(center) {
		return Sphere{}, fmt.Errorf("geom: non-finite sphere center")
	}
	return Sphere{Center: center, Radius: radius}, nil
}

// Side implements Separator. -1 means strictly inside the sphere.
func (s Sphere) Side(p vec.Vec) int {
	d := vec.Dist(p, s.Center) - s.Radius
	switch {
	case d < -Eps:
		return -1
	case d > Eps:
		return 1
	default:
		return 0
	}
}

// ClassifyBall implements Separator. The closed ball crosses the sphere
// exactly when the center's distance to the sphere surface is at most the
// ball radius.
func (s Sphere) ClassifyBall(center vec.Vec, radius float64) Relation {
	dist := vec.Dist(center, s.Center)
	switch {
	case dist+radius < s.Radius:
		return Interior
	case dist-radius > s.Radius:
		return Exterior
	default:
		return Crossing
	}
}

// Dim implements Separator.
func (s Sphere) Dim() int { return len(s.Center) }

func (s Sphere) String() string {
	return fmt.Sprintf("Sphere(center=%v, r=%.6g)", []float64(s.Center), s.Radius)
}

// Halfspace is the region {x : Normal·x <= Offset} (its negative side),
// bounded by the hyperplane {x : Normal·x = Offset}. Normal is unit length.
type Halfspace struct {
	Normal vec.Vec
	Offset float64
}

// NewHalfspace normalizes the normal and builds a halfspace separator.
func NewHalfspace(normal vec.Vec, offset float64) (Halfspace, error) {
	n := vec.Norm(normal)
	if n < 1e-300 || math.IsNaN(n) || math.IsInf(n, 0) {
		return Halfspace{}, fmt.Errorf("geom: degenerate hyperplane normal")
	}
	return Halfspace{Normal: vec.Scale(1/n, normal), Offset: offset / n}, nil
}

// Side implements Separator. -1 means the open negative halfspace.
func (h Halfspace) Side(p vec.Vec) int {
	d := vec.Dot(h.Normal, p) - h.Offset
	switch {
	case d < -Eps:
		return -1
	case d > Eps:
		return 1
	default:
		return 0
	}
}

// ClassifyBall implements Separator.
func (h Halfspace) ClassifyBall(center vec.Vec, radius float64) Relation {
	d := vec.Dot(h.Normal, center) - h.Offset
	switch {
	case d < -radius:
		return Interior
	case d > radius:
		return Exterior
	default:
		return Crossing
	}
}

// Dim implements Separator.
func (h Halfspace) Dim() int { return len(h.Normal) }

func (h Halfspace) String() string {
	return fmt.Sprintf("Halfspace(n=%v, b=%.6g)", []float64(h.Normal), h.Offset)
}

// Bounds is an axis-aligned box, used by the kd-tree baseline and the
// workload generators.
type Bounds struct {
	Lo, Hi vec.Vec
}

// NewBounds computes the bounding box of a nonempty point set.
func NewBounds(pts []vec.Vec) Bounds {
	if len(pts) == 0 {
		panic("geom: bounds of empty point set")
	}
	lo := pts[0].Clone()
	hi := pts[0].Clone()
	for _, p := range pts[1:] {
		for i, x := range p {
			if x < lo[i] {
				lo[i] = x
			}
			if x > hi[i] {
				hi[i] = x
			}
		}
	}
	return Bounds{Lo: lo, Hi: hi}
}

// Dist2ToPoint returns the squared distance from p to the box (0 if inside).
func (b Bounds) Dist2ToPoint(p vec.Vec) float64 {
	var s float64
	for i, x := range p {
		if x < b.Lo[i] {
			d := b.Lo[i] - x
			s += d * d
		} else if x > b.Hi[i] {
			d := x - b.Hi[i]
			s += d * d
		}
	}
	return s
}

// WidestDim returns the index of the dimension with the largest extent.
func (b Bounds) WidestDim() int {
	best, bestExt := 0, -1.0
	for i := range b.Lo {
		if ext := b.Hi[i] - b.Lo[i]; ext > bestExt {
			best, bestExt = i, ext
		}
	}
	return best
}
