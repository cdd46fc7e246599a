package vec

import "math"

// A fixed-size form of NullVectorInPlace for the Radon system the
// centerpoint tournament solves after the stereographic lift of d=3 input:
// 5 equations in 6 unknowns. The rows are arrays, and the row operations
// and back-substitution sums are written out column by column, entered at
// the pivot column through a fallthrough switch, so no inner loop control
// or bounds check is left. Pivot choice, elimination order and every
// floating-point operation match NullVectorInPlace exactly (each statement
// keeps its expression shape, so a compiler that fuses multiply-adds, as
// arm64's does, fuses both forms alike), and the results are
// bit-identical. The isolated gain on the n=10⁵, d=3, k=4 build is about
// 5% of wall time. Other dimensions use NullVectorInPlace.

// NullVector5x6 is NullVectorInPlace for a 5×6 system (lifted D=4, input
// d=3). It destroys w and writes the unit-infinity-norm solution into x.
func NullVector5x6(w *[5][6]float64, x *[6]float64) error {
	const m, n = 5, 6
	var pivotCol [m]int
	var isPivot [n]bool
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
		if piv != row {
			w[row], w[piv] = w[piv], w[row]
		}
		wrow := &w[row]
		inv := 1 / wrow[col]
		scale6From(wrow, inv, col)
		for r := 0; r < m; r++ {
			wr := &w[r]
			if r == row || wr[col] == 0 {
				continue
			}
			subScaled6From(wr, wr[col], wrow, col)
		}
		pivotCol[row] = col
		isPivot[col] = true
		row++
	}
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
	*x = [n]float64{}
	x[free] = 1
	for r := row - 1; r >= 0; r-- {
		pc := pivotCol[r]
		x[pc] = -dot6From(&w[r], x, pc+1)
	}
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

// The row operations of the elimination, over columns col..n-1 only.

func scale6From(row *[6]float64, inv float64, col int) {
	switch col {
	case 0:
		row[0] *= inv
		fallthrough
	case 1:
		row[1] *= inv
		fallthrough
	case 2:
		row[2] *= inv
		fallthrough
	case 3:
		row[3] *= inv
		fallthrough
	case 4:
		row[4] *= inv
		fallthrough
	case 5:
		row[5] *= inv
	}
}

func subScaled6From(dst *[6]float64, f float64, src *[6]float64, col int) {
	switch col {
	case 0:
		dst[0] -= f * src[0]
		fallthrough
	case 1:
		dst[1] -= f * src[1]
		fallthrough
	case 2:
		dst[2] -= f * src[2]
		fallthrough
	case 3:
		dst[3] -= f * src[3]
		fallthrough
	case 4:
		dst[4] -= f * src[4]
		fallthrough
	case 5:
		dst[5] -= f * src[5]
	}
}

// dot6From is Σ row[c]·x[c] over c = from..5, accumulated in ascending c
// from 0, as the back-substitution loop sums.
func dot6From(row, x *[6]float64, from int) float64 {
	s := 0.0
	switch from {
	case 1:
		s += row[1] * x[1]
		fallthrough
	case 2:
		s += row[2] * x[2]
		fallthrough
	case 3:
		s += row[3] * x[3]
		fallthrough
	case 4:
		s += row[4] * x[4]
		fallthrough
	case 5:
		s += row[5] * x[5]
	}
	return s
}
