package vec

import (
	"errors"
	"math"
)

// ErrSingular is returned by NullVector when elimination finds no usable
// null vector: the system has full column rank, or the solution
// overflows or vanishes.
var ErrSingular = errors.New("vec: singular linear system")

// NullVector returns a nontrivial solution of the homogeneous system
// A x = 0 for an m×n matrix with m < n (more unknowns than equations),
// using column-pivoted elimination. The returned vector has unit infinity
// norm. It is used to find the affine dependence underlying a Radon
// partition.
func NullVector(A [][]float64) ([]float64, error) {
	m := len(A)
	if m == 0 {
		return nil, errors.New("vec: empty homogeneous system")
	}
	n := len(A[0])
	if n <= m {
		return nil, errors.New("vec: homogeneous system needs more unknowns than equations")
	}
	// Row-reduce a working copy.
	w := make([][]float64, m)
	for i := range A {
		if len(A[i]) != n {
			return nil, errors.New("vec: ragged homogeneous system")
		}
		w[i] = append([]float64(nil), A[i]...)
	}
	x := make([]float64, n)
	if err := NullVectorInPlace(w, x, make([]int, 0, m), make([]bool, n)); err != nil {
		return nil, err
	}
	return x, nil
}

// NullVectorInPlace is NullVector over caller-owned scratch, for
// allocation-free hot loops (the iterated-Radon centerpoint): it destroys
// the m×n system w and writes the solution into x (length n). pivotCol
// (capacity ≥ m) and isPivot (length n) are scratch. The elimination is
// operation-for-operation identical to NullVector's.
func NullVectorInPlace(w [][]float64, x []float64, pivotCol []int, isPivot []bool) error {
	m := len(w)
	if m == 0 {
		return errors.New("vec: empty homogeneous system")
	}
	n := len(w[0])
	if n <= m {
		return errors.New("vec: homogeneous system needs more unknowns than equations")
	}
	pivotCol = pivotCol[:0]
	for i := range isPivot {
		isPivot[i] = false
	}
	row := 0
	for col := 0; col < n && row < m; col++ {
		piv, best := -1, 1e-12
		for r := row; r < m; r++ {
			if a := math.Abs(w[r][col]); a > best {
				piv, best = r, a
			}
		}
		if piv < 0 {
			continue // free column
		}
		w[row], w[piv] = w[piv], w[row]
		wrow := w[row]
		inv := 1 / wrow[col]
		for c := col; c < n; c++ {
			wrow[c] *= inv
		}
		for r := 0; r < m; r++ {
			wr := w[r]
			if r == row || wr[col] == 0 {
				continue
			}
			f := wr[col]
			for c := col; c < n; c++ {
				wr[c] -= f * wrow[c]
			}
		}
		pivotCol = append(pivotCol, col)
		isPivot[col] = true
		row++
	}
	// Choose the first free column and back-substitute.
	free := -1
	for c := 0; c < n; c++ {
		if !isPivot[c] {
			free = c
			break
		}
	}
	if free < 0 {
		return ErrSingular
	}
	for i := range x {
		x[i] = 0
	}
	x[free] = 1
	for r := len(pivotCol) - 1; r >= 0; r-- {
		pc := pivotCol[r]
		s := 0.0
		for c := pc + 1; c < n; c++ {
			s += w[r][c] * x[c]
		}
		x[pc] = -s
	}
	// Normalize to unit infinity norm for numerical comparability.
	max := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	if max == 0 || math.IsNaN(max) || math.IsInf(max, 0) {
		return ErrSingular
	}
	for i := range x {
		x[i] /= max
	}
	return nil
}
