package geom

import (
	"errors"
	"math"

	"sepdc/internal/vec"
)

// This file implements the stereographic/conformal machinery of the
// Miller–Teng–Thurston–Vavasis separator construction:
//
//	R^d  --Lift-->  S^d ⊂ R^{d+1}  --conformal maps-->  S^d  --great circle-->
//	plane section of S^d  --CircleToSeparator-->  sphere (or hyperplane) in R^d
//
// Lift is the inverse stereographic projection from the north pole
// N = (0,…,0,1): a point x ∈ R^d maps to
//
//	Π(x) = ( 2x, |x|²−1 ) / ( |x|²+1 )  ∈ S^d.
//
// Circles on S^d are represented as plane sections {z : n·z = c} with unit
// normal n ∈ R^{d+1} and |c| < 1 (PlaneSection). Conformal maps of the
// sphere send circles to circles, so the entire separator pipeline can be
// carried out on (n, c) pairs in closed form; no point resampling is needed.

// Lift maps x ∈ R^d to the unit sphere S^d ⊂ R^{d+1} by inverse
// stereographic projection from the north pole.
func Lift(x vec.Vec) vec.Vec {
	return LiftTo(make(vec.Vec, len(x)+1), x)
}

// LiftTo is Lift into caller-provided storage: dst must have length
// len(x)+1 and must not alias x. It is the allocation-free form for the
// separator's per-trial sample loop.
func LiftTo(dst, x vec.Vec) vec.Vec {
	n2 := vec.Norm2(x)
	denom := n2 + 1
	for i, v := range x {
		dst[i] = 2 * v / denom
	}
	dst[len(x)] = (n2 - 1) / denom
	return dst
}

// Unlift maps z ∈ S^d back to R^d by stereographic projection from the
// north pole. ok is false when z is (numerically) the north pole, whose
// image is the point at infinity.
func Unlift(z vec.Vec) (x vec.Vec, ok bool) {
	d := len(z) - 1
	h := z[d]
	denom := 1 - h
	if denom < 1e-12 {
		return nil, false
	}
	x = make(vec.Vec, d)
	for i := 0; i < d; i++ {
		x[i] = z[i] / denom
	}
	return x, true
}

// PlaneSection is the circle {z ∈ S^d : Normal·z = Offset}, with Normal a
// unit vector in R^{d+1} and |Offset| < 1. Offset 0 is a great circle.
type PlaneSection struct {
	Normal vec.Vec
	Offset float64
}

// NewPlaneSection normalizes the normal and validates |offset| < 1 (after
// normalization), so that the section actually meets the sphere.
func NewPlaneSection(normal vec.Vec, offset float64) (PlaneSection, error) {
	n := vec.Norm(normal)
	if n < 1e-300 {
		return PlaneSection{}, errors.New("geom: zero plane-section normal")
	}
	c := offset / n
	if math.Abs(c) >= 1 {
		return PlaneSection{}, errors.New("geom: plane section misses the sphere")
	}
	return PlaneSection{Normal: vec.Scale(1/n, normal), Offset: c}, nil
}

// ConformalDilation is the MTTV dilatation D_a = Π ∘ (x ↦ a·x) ∘ Π⁻¹, a
// conformal self-map of S^d. With a = sqrt((1−r)/(1+r)) it maps the
// latitude circle at height r to the equator, "centering" a point set whose
// centerpoint sits at height r on the projection axis.
type ConformalDilation struct {
	A float64 // the planar scaling factor, > 0
}

// NewDilationForHeight returns the dilation that maps the latitude at
// height r ∈ (−1, 1) to the equator.
func NewDilationForHeight(r float64) (ConformalDilation, error) {
	if r <= -1 || r >= 1 || math.IsNaN(r) {
		return ConformalDilation{}, errors.New("geom: dilation height must be in (-1,1)")
	}
	return ConformalDilation{A: math.Sqrt((1 - r) / (1 + r))}, nil
}

// Apply maps a point z ∈ S^d through the dilation. The north pole is a
// fixed point and is handled explicitly.
func (d ConformalDilation) Apply(z vec.Vec) vec.Vec {
	x, ok := Unlift(z)
	if !ok {
		return z.Clone() // north pole is fixed
	}
	return Lift(vec.Scale(d.A, x))
}

// Inverse returns the dilation undoing d.
func (d ConformalDilation) Inverse() ConformalDilation {
	return ConformalDilation{A: 1 / d.A}
}

// PullBackSection returns the plane section P' such that z ∈ P' iff
// D(z) ∈ P. Derivation: write z = (z', h) ∈ S^d; then D(z) = Π(a z'/(1−h))
// and the condition u·D(z) = c becomes, after clearing the positive
// denominators,
//
//	(2a·u₁ + c····) — concretely:
//	2a u₁·z' + [u_{d+1}(a²+1) − c(a²−1)]·h  =  c(a²+1) − u_{d+1}(a²−1)
//
// where u₁ are the first d coordinates of u and u_{d+1} the last. The
// returned section has that normal (normalized) and right-hand side.
func (d ConformalDilation) PullBackSection(p PlaneSection) (PlaneSection, error) {
	a := d.A
	dd := len(p.Normal) - 1
	u1 := p.Normal[:dd]
	ud := p.Normal[dd]
	c := p.Offset
	a2 := a * a

	n := make(vec.Vec, dd+1)
	for i, v := range u1 {
		n[i] = 2 * a * v
	}
	n[dd] = ud*(a2+1) - c*(a2-1)
	rhs := c*(a2+1) - ud*(a2-1)
	return NewPlaneSection(n, rhs)
}

// PullBackSectionReflect returns the plane section P' such that z ∈ P' iff
// H(z) ∈ P for a Householder reflection H. Reflections are symmetric
// orthogonal maps, so u·H(z) = (H u)·z and the pullback just reflects the
// normal.
func PullBackSectionReflect(h vec.Householder, p PlaneSection) PlaneSection {
	return PlaneSection{Normal: h.Apply(p.Normal), Offset: p.Offset}
}

// ErrDegenerateSection is returned when a plane section's stereographic
// preimage is (numerically) a point or empty, which happens only when the
// section passes through the north pole in a tangential way.
var ErrDegenerateSection = errors.New("geom: plane section has degenerate preimage")

// SectionToSeparator computes the stereographic preimage of the circle
// {z : n·z = c} as a separator in R^d. Substituting Π(x) into n·z = c and
// clearing the positive denominator |x|²+1 yields
//
//	(n_{d+1} − c)·|x|² + 2 n₁·x − (n_{d+1} + c) = 0 ,
//
// a sphere when n_{d+1} ≠ c and a hyperplane when n_{d+1} = c (the circle
// passes through the north pole). Note the preimage's interior may
// correspond to either side of the original circle; the paper's algorithms
// only need a two-sided partition, so orientation is not canonicalized.
func SectionToSeparator(p PlaneSection) (Separator, error) {
	d := len(p.Normal) - 1
	n1 := vec.Vec(p.Normal[:d]).Clone()
	nd := p.Normal[d]
	c := p.Offset
	a := nd - c

	if math.Abs(a) < 1e-9 {
		// Hyperplane: 2 n₁·x = n_{d+1} + c.
		return NewHalfspace(n1, (nd+c)/2)
	}
	// Sphere: |x + n₁/a|² = |n₁|²/a² + (n_{d+1}+c)/a.
	center := vec.Scale(-1/a, n1)
	r2 := vec.Norm2(n1)/(a*a) + (nd+c)/a
	if r2 <= Eps {
		return nil, ErrDegenerateSection
	}
	return NewSphere(center, math.Sqrt(r2))
}
