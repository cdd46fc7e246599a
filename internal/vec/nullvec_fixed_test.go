package vec

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// genericNull solves the m×n system rows with NullVectorInPlace on a
// copy, the reference the fixed-size forms must match bit for bit.
func genericNull(rows [][]float64) ([]float64, error) {
	m, n := len(rows), len(rows[0])
	w := make([][]float64, m)
	for i := range rows {
		w[i] = append([]float64(nil), rows[i]...)
	}
	x := make([]float64, n)
	err := NullVectorInPlace(w, x, make([]int, 0, m), make([]bool, n))
	return x, err
}

// fixedNull solves the 5×6 system rows with NullVector5x6.
func fixedNull(rows [][]float64) ([]float64, error) {
	var w [5][6]float64
	for r := range w {
		copy(w[r][:], rows[r])
	}
	var x [6]float64
	err := NullVector5x6(&w, &x)
	return x[:], err
}

// checkFixedMatchesGeneric fails unless both solvers return the same error
// and, on success, bit-identical solutions.
func checkFixedMatchesGeneric(t *testing.T, label string, rows [][]float64) {
	t.Helper()
	want, werr := genericNull(rows)
	got, gerr := fixedNull(rows)
	if werr != gerr {
		t.Fatalf("%s: fixed err %v, generic err %v (rows %v)", label, gerr, werr, rows)
	}
	if werr != nil {
		return
	}
	for i := range want {
		if !bitsEq(got[i], want[i]) {
			t.Fatalf("%s: x[%d] = %x, generic %x (rows %v)", label, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]), rows)
		}
	}
}

// radonRows builds the homogeneous Radon system of D+2 points in R^D: D
// coordinate rows plus the all-ones row, as the centerpoint code does.
func radonRows(pts [][]float64) [][]float64 {
	d := len(pts[0])
	rows := make([][]float64, d+1)
	for r := 0; r < d; r++ {
		rows[r] = make([]float64, d+2)
		for c, p := range pts {
			rows[r][c] = p[r]
		}
	}
	rows[d] = make([]float64, d+2)
	for c := range rows[d] {
		rows[d][c] = 1
	}
	return rows
}

func randPoints(r *rand.Rand, count, d int) [][]float64 {
	pts := make([][]float64, count)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = r.Float64()*2 - 1
		}
	}
	return pts
}

// The lifted dimension the fixed-size form serves: 5 equations in 6
// unknowns.
const fixedD = 4

func TestNullVectorFixedMatchesGenericRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 42))
	for trial := 0; trial < 4000; trial++ {
		rows := radonRows(randPoints(r, fixedD+2, fixedD))
		checkFixedMatchesGeneric(t, "random radon", rows)
		// Fully random systems too: no all-ones row.
		for i := range rows[fixedD] {
			rows[fixedD][i] = r.NormFloat64()
		}
		checkFixedMatchesGeneric(t, "random dense", rows)
	}
}

// Repeated points make the system rank-deficient: elimination meets
// columns with no usable pivot and takes the free-column path.
func TestNullVectorFixedMatchesGenericRankDeficient(t *testing.T) {
	r := rand.New(rand.NewPCG(43, 44))
	for trial := 0; trial < 1000; trial++ {
		pts := randPoints(r, fixedD+2, fixedD)
		// Copy 1..D+1 points over others.
		for k := r.IntN(fixedD+1) + 1; k > 0; k-- {
			copy(pts[r.IntN(fixedD+2)], pts[r.IntN(fixedD+2)])
		}
		checkFixedMatchesGeneric(t, "repeated points", radonRows(pts))
	}
	// Every point identical: only the ones row survives.
	same := make([][]float64, fixedD+2)
	for i := range same {
		same[i] = make([]float64, fixedD)
		for j := range same[i] {
			same[i][j] = 0.25
		}
	}
	checkFixedMatchesGeneric(t, "all identical", radonRows(same))
	// An all-zero system has no pivot at all: every column is free.
	zero := radonRows(same)
	for _, row := range zero {
		clear(row)
	}
	checkFixedMatchesGeneric(t, "all zero", zero)
}

// Column entries just below, at and just above the 1e-12 pivot threshold
// decide whether a column is free; both forms must decide alike.
func TestNullVectorFixedMatchesGenericPivotThreshold(t *testing.T) {
	r := rand.New(rand.NewPCG(45, 46))
	near := []float64{
		math.Nextafter(1e-12, 0), 1e-12, math.Nextafter(1e-12, 1),
		-math.Nextafter(1e-12, 0), -1e-12, -math.Nextafter(1e-12, 1),
		5e-13, 2e-12, 0,
	}
	for trial := 0; trial < 1000; trial++ {
		rows := radonRows(randPoints(r, fixedD+2, fixedD))
		col := r.IntN(fixedD + 2)
		for _, row := range rows {
			row[col] = near[r.IntN(len(near))]
		}
		// Sometimes shrink a whole row as well.
		if r.IntN(2) == 0 {
			row := rows[r.IntN(fixedD+1)]
			for c := range row {
				row[c] = near[r.IntN(len(near))]
			}
		}
		checkFixedMatchesGeneric(t, "pivot threshold", rows)
	}
}

// FuzzNullVectorFixed feeds arbitrary float64 bit patterns (NaN, Inf,
// subnormals included) to both forms.
func FuzzNullVectorFixed(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0xbf, 0xe0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x3d, 0x71, 0x99, 0x4a, 0x38, 0x2e, 0x27, 0x77}) // ~1e-12 (big-endian view)
	f.Add(make([]byte, 30*8))
	f.Fuzz(func(t *testing.T, data []byte) {
		const m, n = fixedD + 1, fixedD + 2
		if len(data) == 0 {
			data = []byte{0}
		}
		var buf [8]byte
		rows := make([][]float64, m)
		for r := range rows {
			rows[r] = make([]float64, n)
			for c := range rows[r] {
				i := r*n + c
				for j := range buf {
					buf[j] = data[(i*8+j)%len(data)]
				}
				rows[r][c] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
			}
		}
		checkFixedMatchesGeneric(t, "fuzz", rows)
	})
}

// BenchmarkNullVector times the generic solve at D=3 and D=4 and the
// fixed-size form at D=4, over the same Radon systems.
func BenchmarkNullVector(b *testing.B) {
	r := rand.New(rand.NewPCG(47, 48))
	for _, D := range []int{3, 4} {
		const systems = 64
		sys := make([][][]float64, systems)
		for i := range sys {
			sys[i] = radonRows(randPoints(r, D+2, D))
		}
		m, n := D+1, D+2
		b.Run("generic/D="+string(rune('0'+D)), func(b *testing.B) {
			w := make([][]float64, m)
			for i := range w {
				w[i] = make([]float64, n)
			}
			x := make([]float64, n)
			pivotCol, isPivot := make([]int, 0, m), make([]bool, n)
			for i := 0; i < b.N; i++ {
				src := sys[i%systems]
				for r := range w {
					copy(w[r], src[r])
				}
				if err := NullVectorInPlace(w, x, pivotCol, isPivot); err != nil {
					b.Fatal(err)
				}
			}
		})
		if D != fixedD {
			continue
		}
		b.Run("fixed/D="+string(rune('0'+D)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := sys[i%systems]
				var w [5][6]float64
				for r := range w {
					copy(w[r][:], src[r])
				}
				var x [6]float64
				if err := NullVector5x6(&w, &x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
