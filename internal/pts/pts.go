// Package pts provides the library's flat contiguous point storage.
//
// The paper's vector model operates on dense coordinate vectors; the
// natural Go realization is one flat []float64 backing array with a
// dimension stride, not a [][]float64 of separately heap-allocated rows.
// Flat storage removes one pointer indirection from every distance
// computation, keeps the divide-and-conquer's working sets contiguous in
// cache, and makes gather (the divide step) a single memmove-friendly
// loop. ParGeo's point sequences follow the same layout for the same
// reasons.
//
// A PointSet's individual points are still addressable as vec.Vec views
// (zero-copy sub-slices of the backing array), so the existing geometric
// kernels interoperate without conversion.
package pts

import (
	"errors"
	"fmt"
	"math"

	"sepdc/internal/vec"
)

// PointSet stores n points of R^d contiguously: point i occupies
// Data[i*Dim : (i+1)*Dim]. The zero value is an empty set of dimension 0.
type PointSet struct {
	Data []float64 // len = n*Dim
	Dim  int
}

// New returns an all-zero point set of n points in R^d.
func New(n, d int) *PointSet {
	if n < 0 || d <= 0 {
		panic(fmt.Sprintf("pts: invalid shape n=%d d=%d", n, d))
	}
	return &PointSet{Data: make([]float64, n*d), Dim: d}
}

// FromSlices flattens points (validated: non-empty, one shared dimension,
// finite coordinates) into a fresh PointSet. The input is copied; callers
// keep ownership of their rows.
func FromSlices(points [][]float64) (*PointSet, error) {
	if len(points) == 0 {
		return nil, errors.New("pts: no points")
	}
	d := len(points[0])
	if d == 0 {
		return nil, errors.New("pts: zero-dimensional points")
	}
	ps := &PointSet{Data: make([]float64, 0, len(points)*d), Dim: d}
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("pts: point %d has dimension %d, want %d", i, len(p), d)
		}
		for _, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("pts: point %d has a non-finite coordinate", i)
			}
		}
		ps.Data = append(ps.Data, p...)
	}
	return ps, nil
}

// FromVecs flattens a []vec.Vec into a fresh PointSet without validation
// (the vec-based call sites validated already). Panics on mixed dimensions.
func FromVecs(points []vec.Vec) *PointSet {
	if len(points) == 0 {
		panic("pts: no points")
	}
	d := len(points[0])
	ps := &PointSet{Data: make([]float64, 0, len(points)*d), Dim: d}
	for i, p := range points {
		if len(p) != d {
			panic(fmt.Sprintf("pts: point %d has dimension %d, want %d", i, len(p), d))
		}
		ps.Data = append(ps.Data, p...)
	}
	return ps
}

// N returns the number of points.
func (p *PointSet) N() int {
	if p == nil || p.Dim == 0 {
		return 0
	}
	return len(p.Data) / p.Dim
}

// At returns point i as a zero-copy view into the backing array. The full
// three-index slice expression pins cap to Dim so an append through the
// view cannot clobber point i+1.
func (p *PointSet) At(i int) vec.Vec {
	o := i * p.Dim
	return vec.Vec(p.Data[o : o+p.Dim : o+p.Dim])
}

// Vecs returns views of all points; the slice of headers is allocated but
// the coordinates are shared with p.
func (p *PointSet) Vecs() []vec.Vec {
	out := make([]vec.Vec, p.N())
	for i := range out {
		out[i] = p.At(i)
	}
	return out
}

// Dist2 returns the squared Euclidean distance between points i and j.
func (p *PointSet) Dist2(i, j int) float64 {
	return vec.Dist2Flat(p.Data[i*p.Dim:(i+1)*p.Dim], p.Data[j*p.Dim:(j+1)*p.Dim])
}

// GatherInto copies the points selected by idx, in order, into dst, which
// must have length len(idx)*Dim — the divide step's subset
// materialization, into caller scratch so arenas can be reused.
func (p *PointSet) GatherInto(dst []float64, idx []int) {
	d := p.Dim
	if len(dst) != len(idx)*d {
		panic(fmt.Sprintf("pts: gather dst length %d, want %d", len(dst), len(idx)*d))
	}
	for i, j := range idx {
		copy(dst[i*d:(i+1)*d], p.Data[j*d:(j+1)*d])
	}
}

// Clone returns a deep copy.
func (p *PointSet) Clone() *PointSet {
	return &PointSet{Data: append([]float64(nil), p.Data...), Dim: p.Dim}
}

// Centroid computes the arithmetic mean of the points into dst (length
// Dim), accumulating in point order — bit-identical to vec.Centroid over
// the same points. Panics on an empty set.
func (p *PointSet) Centroid(dst []float64) {
	n := p.N()
	if n == 0 {
		panic("pts: centroid of empty point set")
	}
	d := p.Dim
	for c := range dst {
		dst[c] = 0
	}
	for i := 0; i < n; i++ {
		row := p.Data[i*d : (i+1)*d]
		for c, x := range row {
			dst[c] += x
		}
	}
	inv := 1 / float64(n)
	for c := range dst {
		dst[c] *= inv
	}
}
