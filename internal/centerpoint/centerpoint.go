// Package centerpoint computes approximate centerpoints by the iterated
// Radon-point method (Clarkson, Eppstein, Miller, Sturtivant, Teng), the
// ingredient of the Miller–Teng–Thurston–Vavasis separator construction
// that the paper's "Unit Time Separator Algorithm" relies on.
//
// A centerpoint of a set P in R^D is a point c such that every halfspace
// containing c contains at least |P|/(D+1) points of P. Iterated Radon
// replacement on a constant-size random sample yields a point with
// Ω(|P|/(D+1)²)-depth with constant probability, which is all the
// separator theorem needs; the constant sample size is what makes the
// separator algorithm run in O(1) parallel time.
package centerpoint

import (
	"errors"
	"sync"

	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// ErrDegenerate is returned when a Radon partition cannot be computed from
// the supplied points (they are affinely degenerate beyond repair).
var ErrDegenerate = errors.New("centerpoint: degenerate point configuration")

// RadonPoint computes a Radon point of exactly D+2 points in R^D: a point
// lying in the convex hulls of both classes of a Radon partition. It finds
// a nonzero affine dependence Σλ_i p_i = 0, Σλ_i = 0 and returns
// Σ_{λ_i>0} λ_i p_i / Σ_{λ_i>0} λ_i.
func RadonPoint(pts []vec.Vec) (vec.Vec, error) {
	if len(pts) == 0 {
		return nil, errors.New("centerpoint: no points")
	}
	d := len(pts[0])
	if len(pts) != d+2 {
		return nil, errors.New("centerpoint: RadonPoint needs exactly d+2 points")
	}
	// Homogeneous system: D coordinate rows plus the Σλ = 0 row; D+1
	// equations in D+2 unknowns always has a nontrivial kernel.
	A := make([][]float64, d+1)
	for r := 0; r < d; r++ {
		row := make([]float64, d+2)
		for c, p := range pts {
			row[c] = p[r]
		}
		A[r] = row
	}
	ones := make([]float64, d+2)
	for c := range ones {
		ones[c] = 1
	}
	A[d] = ones
	lambda, err := vec.NullVector(A)
	if err != nil {
		return nil, ErrDegenerate
	}
	point := vec.New(d)
	var posSum float64
	for i, l := range lambda {
		if l > 0 {
			vec.AXPY(point, l, pts[i])
			posSum += l
		}
	}
	if posSum <= 1e-12 {
		// The dependence is one-sided only if numerics failed; Σλ=0 with a
		// nonzero λ guarantees both signs exist mathematically.
		return nil, ErrDegenerate
	}
	return vec.ScaleTo(point, 1/posSum, point), nil
}

// SampleSize caps the Radon tournament, which draws min(SampleSize,
// 2·|input|) entries (at least D+2) with replacement: O(1) in n, with good
// empirical depth. Inputs of SampleSize/2 points or more all run the same
// tournament; a smaller one gets twice its size (DESIGN §7). The separator
// search lifts at most SampleSize points.
const SampleSize = 256

// scratch holds the per-call buffers of Approx: the Radon linear system,
// its solution, and the survivor storage of the tournament. The buffers
// are pooled — the divide and conquer calls Approx once per separator
// trial, and without pooling the iterated Radon dominated the whole
// algorithm's allocation profile.
type scratch struct {
	rows     [][]float64 // (d+1) × (d+2) homogeneous system, row views into rowBuf
	rowBuf   []float64
	lambda   []float64 // affine dependence, length d+2
	pivotCol []int
	isPivot  []bool
	work     []int32   // tournament entrants / survivors, as offsets into buf
	buf      []float64 // entrant + survivor coordinates (bump-allocated)
	dim      int
	ss       int
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func (sc *scratch) ensure(d, ss int) {
	if sc.dim != d || sc.ss < ss {
		m, n := d+1, d+2
		sc.rowBuf = make([]float64, m*n)
		sc.rows = make([][]float64, m)
		for r := range sc.rows {
			sc.rows[r] = sc.rowBuf[r*n : (r+1)*n]
		}
		sc.lambda = make([]float64, n)
		sc.pivotCol = make([]int, 0, m)
		sc.isPivot = make([]bool, n)
		sc.work = make([]int32, ss)
		// Entrants occupy the first ss·d floats; survivors (fewer than
		// ss/(groupSize−1) of them in total) bump-allocate after that.
		sc.buf = make([]float64, 2*ss*d)
		sc.dim, sc.ss = d, ss
	}
}

// at returns the point stored at byte offset off (in float64 units) of the
// scratch coordinate buffer.
func (sc *scratch) at(off int32) vec.Vec {
	return vec.Vec(sc.buf[off : int(off)+sc.dim : int(off)+sc.dim])
}

// radonPointInto is RadonPoint writing into dst using pooled scratch, with
// arithmetic identical to RadonPoint (same system, same elimination, same
// accumulation order). group holds the buffer offsets of exactly d+2 points
// of R^d. Working with offsets rather than []vec.Vec keeps the tournament's
// shuffles and survivor lists free of pointer writes (and hence of GC write
// barriers), which were a measurable cost at this call frequency.
func radonPointInto(sc *scratch, dst vec.Vec, group []int32) error {
	if err := radonLambda(sc, group); err != nil {
		return ErrDegenerate
	}
	for i := range dst {
		dst[i] = 0
	}
	var posSum float64
	for i, l := range sc.lambda {
		if l > 0 {
			vec.AXPY(dst, l, sc.at(group[i]))
			posSum += l
		}
	}
	if posSum <= 1e-12 {
		return ErrDegenerate
	}
	vec.ScaleTo(dst, 1/posSum, dst)
	return nil
}

// radonLambda solves the group's homogeneous system into sc.lambda. The
// lifted dimension of d=3 input (D=4) takes the fixed-size solver, which
// is bit-identical to NullVectorInPlace.
func radonLambda(sc *scratch, group []int32) error {
	d := sc.dim
	if d == 4 {
		var w [5][6]float64
		for c, off := range group {
			o := int(off)
			w[0][c], w[1][c], w[2][c], w[3][c], w[4][c] = sc.buf[o], sc.buf[o+1], sc.buf[o+2], sc.buf[o+3], 1
		}
		var x [6]float64
		err := vec.NullVector5x6(&w, &x)
		copy(sc.lambda, x[:])
		return err
	}
	for r := 0; r < d; r++ {
		row := sc.rows[r]
		for c, off := range group {
			row[c] = sc.buf[int(off)+r]
		}
	}
	ones := sc.rows[d]
	for c := range ones {
		ones[c] = 1
	}
	return vec.NullVectorInPlace(sc.rows, sc.lambda, sc.pivotCol, sc.isPivot)
}

// centroidInto mirrors vec.CentroidTo over buffer offsets: zero, accumulate
// in order, scale by 1/n. Bit-identical to the []vec.Vec version.
func centroidInto(sc *scratch, dst vec.Vec, group []int32) {
	for i := range dst {
		dst[i] = 0
	}
	for _, off := range group {
		vec.AXPY(dst, 1, sc.at(off))
	}
	vec.ScaleTo(dst, 1/float64(len(group)), dst)
}

// Approx returns an approximate centerpoint of pts by a Radon tournament
// (Clarkson–Eppstein–Miller–Sturtivant–Teng): a random sample (see
// SampleSize) is shuffled and partitioned into groups of d+2, each group
// is replaced by its Radon point, and the process repeats on the survivors
// until few remain; the depth of the survivors ratchets up geometrically
// per level. Degenerate groups fall back to their centroid, so the
// function always returns a finite point; for fully degenerate inputs
// (all points equal) that is the exact centerpoint.
//
// All intermediate storage comes from a pooled scratch arena; only the
// returned point is freshly allocated (it must outlive the call).
func Approx(pts []vec.Vec, g *xrand.RNG) vec.Vec {
	if len(pts) == 0 {
		panic("centerpoint: empty input")
	}
	d := len(pts[0])
	groupSize := d + 2
	ss := max(min(SampleSize, 2*len(pts)), groupSize)
	sc := scratchPool.Get().(*scratch)
	sc.ensure(d, ss)
	// Sample with replacement: cheap, unbiased, and safe for small inputs.
	// The sampled coordinates are copied by value into the scratch buffer so
	// the tournament below only ever moves int32 offsets around.
	work := sc.work[:ss]
	for i := range work {
		copy(sc.buf[i*d:(i+1)*d], pts[g.IntN(len(pts))])
		work[i] = int32(i * d)
	}
	used := ss * d // bump allocator over sc.buf; one Approx never reuses a region
	for len(work) >= groupSize {
		g.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
		next := work[:0]
		for i := 0; i+groupSize <= len(work); i += groupSize {
			group := work[i : i+groupSize]
			rp := vec.Vec(sc.buf[used : used+d : used+d])
			if err := radonPointInto(sc, rp, group); err != nil {
				centroidInto(sc, rp, group)
			}
			next = append(next, int32(used))
			used += d
		}
		if len(next) == 0 {
			break
		}
		work = next
	}
	// Average the handful of deep survivors into the (escaping) result.
	out := make(vec.Vec, d)
	centroidInto(sc, out, work)
	scratchPool.Put(sc)
	return out
}
