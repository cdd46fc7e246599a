// Package vec provides dense d-dimensional vector arithmetic for the
// geometric kernels of the separator-based divide-and-conquer library.
//
// Vectors are plain []float64 slices so that point sets can be stored as
// [][]float64 and shared with callers without copying. All operations are
// dimension-checked in debug builds via panics with descriptive messages;
// the hot-path operations (Dot, Dist2) avoid allocation entirely.
package vec

import (
	"fmt"
	"math"
)

// Vec is a point or direction in R^d represented by its coordinates.
type Vec []float64

// New returns a zero vector of dimension d.
func New(d int) Vec { return make(Vec, d) }

// Of returns a vector with the given coordinates. It copies its arguments.
func Of(coords ...float64) Vec {
	v := make(Vec, len(coords))
	copy(v, coords)
	return v
}

// Dim returns the dimension of v.
func (v Vec) Dim() int { return len(v) }

// Clone returns a fresh copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// assertSameDim panics unless a and b have equal dimension.
func assertSameDim(a, b Vec) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(a), len(b)))
	}
}

// Add returns a + b as a new vector.
func Add(a, b Vec) Vec {
	assertSameDim(a, b)
	c := make(Vec, len(a))
	for i := range a {
		c[i] = a[i] + b[i]
	}
	return c
}

// Sub returns a - b as a new vector.
func Sub(a, b Vec) Vec {
	assertSameDim(a, b)
	c := make(Vec, len(a))
	for i := range a {
		c[i] = a[i] - b[i]
	}
	return c
}

// Scale returns s*a as a new vector.
func Scale(s float64, a Vec) Vec {
	c := make(Vec, len(a))
	for i := range a {
		c[i] = s * a[i]
	}
	return c
}

// AddTo sets dst = a + b and returns dst. dst may alias a or b.
func AddTo(dst, a, b Vec) Vec {
	assertSameDim(a, b)
	assertSameDim(dst, a)
	for i := range a {
		dst[i] = a[i] + b[i]
	}
	return dst
}

// SubTo sets dst = a - b and returns dst. dst may alias a or b.
func SubTo(dst, a, b Vec) Vec {
	assertSameDim(a, b)
	assertSameDim(dst, a)
	for i := range a {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// ScaleTo sets dst = s*a and returns dst. dst may alias a.
func ScaleTo(dst Vec, s float64, a Vec) Vec {
	assertSameDim(dst, a)
	for i := range a {
		dst[i] = s * a[i]
	}
	return dst
}

// AXPY sets dst += s*a and returns dst.
func AXPY(dst Vec, s float64, a Vec) Vec {
	assertSameDim(dst, a)
	for i := range a {
		dst[i] += s * a[i]
	}
	return dst
}

// Dot returns the inner product of a and b.
func Dot(a, b Vec) float64 {
	assertSameDim(a, b)
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the squared Euclidean norm of v.
func Norm2(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v Vec) float64 { return math.Sqrt(Norm2(v)) }

// Dist2 returns the squared Euclidean distance between a and b.
func Dist2(a, b Vec) float64 {
	assertSameDim(a, b)
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b Vec) float64 { return math.Sqrt(Dist2(a, b)) }

// Dist2Flat is Dist2 on raw coordinate slices (flat point storage). The
// lengths must match; the bounds hint lets the compiler drop the per-index
// checks in the hot loop. Arithmetic order is identical to Dist2.
func Dist2Flat(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// DotFlat is Dot on raw coordinate slices.
func DotFlat(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Equal reports whether a and b agree exactly in every coordinate.
func Equal(a, b Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether every coordinate of a and b agrees within tol.
func ApproxEqual(a, b Vec, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every coordinate is finite (no NaN or Inf).
func IsFinite(v Vec) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Centroid returns the arithmetic mean of the points. It panics on an empty
// input because the centroid of nothing is undefined.
func Centroid(pts []Vec) Vec {
	if len(pts) == 0 {
		panic("vec: centroid of empty point set")
	}
	return CentroidTo(make(Vec, len(pts[0])), pts)
}

// CentroidTo computes the centroid into caller-provided storage dst
// (length = point dimension), with arithmetic identical to Centroid.
func CentroidTo(dst Vec, pts []Vec) Vec {
	for i := range dst {
		dst[i] = 0
	}
	for _, p := range pts {
		AXPY(dst, 1, p)
	}
	return ScaleTo(dst, 1/float64(len(pts)), dst)
}

// Basis returns the i-th standard basis vector of dimension d.
func Basis(d, i int) Vec {
	if i < 0 || i >= d {
		panic(fmt.Sprintf("vec: basis index %d out of range for dimension %d", i, d))
	}
	e := make(Vec, d)
	e[i] = 1
	return e
}
