package vec

import (
	"fmt"
	"math"
	"testing"
)

// kernelCases produces adversarial coordinate pairs per dimension:
// random magnitudes, exact ties, negative zeros, subnormals (including
// the smallest), huge/tiny mixes. Every specialized kernel must agree
// bit-for-bit with the generic forms on all of them.
func kernelCases(d int) [][2][]float64 {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.25,
		1e300, -1e300, 1e-300, -1e-300,
		5e-324, -5e-324, 1e-310, -1e-310, // subnormals, incl. the smallest
		math.MaxFloat64 / 4, -math.MaxFloat64 / 4,
		3.141592653589793, -2.718281828459045,
		1.0000000000000002, 0.9999999999999999} // 1 ± 1 ulp: catches reassociation
	var cases [][2][]float64
	// Deterministic LCG so the table is stable without pulling in xrand.
	state := uint64(12345 + d)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return vals[state>>33%uint64(len(vals))]
	}
	for c := 0; c < 300; c++ {
		a := make([]float64, d)
		b := make([]float64, d)
		for i := 0; i < d; i++ {
			a[i], b[i] = next(), next()
		}
		cases = append(cases, [2][]float64{a, b})
	}
	// Structured edges: all negative zeros (the dot kernels' sign trap),
	// exact coincidence, and a lone subnormal difference.
	nz := make([]float64, d)
	for i := range nz {
		nz[i] = math.Copysign(0, -1)
	}
	cases = append(cases, [2][]float64{nz, make([]float64, d)})
	cases = append(cases, [2][]float64{nz, append([]float64(nil), nz...)})
	sub := make([]float64, d)
	sub[d-1] = 5e-324
	cases = append(cases, [2][]float64{sub, make([]float64, d)})
	return cases
}

// TestDist2KernelBitIdentical cross-checks every dispatch-table entry —
// the unrolled d = 2..8 forms and the generic fallback on both sides of
// that range — against Dist2Flat on the adversarial table.
func TestDist2KernelBitIdentical(t *testing.T) {
	for d := 1; d <= 16; d++ {
		kern := Dist2Kernel(d)
		for i, c := range kernelCases(d) {
			got := kern(c[0], c[1])
			want := Dist2Flat(c[0], c[1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d case %d: Dist2Kernel=%v (bits %x), Dist2Flat=%v (bits %x)",
					d, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			// And against the vec.Vec path used elsewhere in the library.
			if v := Dist2(Vec(c[0]), Vec(c[1])); math.Float64bits(v) != math.Float64bits(got) {
				t.Fatalf("d=%d case %d: kernel diverges from Dist2", d, i)
			}
		}
	}
}

func TestDotKernelBitIdentical(t *testing.T) {
	for d := 1; d <= 16; d++ {
		kern := DotKernel(d)
		for i, c := range kernelCases(d) {
			got := kern(c[0], c[1])
			want := DotFlat(c[0], c[1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d case %d: DotKernel=%v (bits %x), DotFlat=%v (bits %x)",
					d, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestDotKernelNegativeZero pins the 0.0-seeded accumulation: a dot of
// all-negative-zero operand pairs is +0, matching the generic loop.
// (Folding the first product into the initial value would return −0.)
func TestDotKernelNegativeZero(t *testing.T) {
	for d := 1; d <= 16; d++ {
		a := make([]float64, d)
		b := make([]float64, d)
		for i := range a {
			a[i] = math.Copysign(0, -1)
			b[i] = 1
		}
		got := DotKernel(d)(a, b)
		want := DotFlat(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("d=%d: all-negative-zero dot: kernel %x, flat %x",
				d, math.Float64bits(got), math.Float64bits(want))
		}
		if math.Signbit(want) != math.Signbit(got) {
			t.Fatalf("d=%d: negative-zero sign diverges", d)
		}
	}
}

// TestDist2Batch4KernelBitIdentical checks every lane of the four-point
// kernels — specialized and fallback — against Dist2Flat, in both
// orientations (q as query vs q as candidate; the squared distance is
// bitwise symmetric).
func TestDist2Batch4KernelBitIdentical(t *testing.T) {
	for d := 1; d <= 16; d++ {
		kern := Dist2Batch4Kernel(d)
		cases := kernelCases(d)
		for i := 0; i+4 < len(cases); i += 5 {
			q := cases[i][0]
			a, b, c, dd := cases[i+1][0], cases[i+2][1], cases[i+3][0], cases[i+4][1]
			la, lb, lc, ld := kern(q, a, b, c, dd)
			for lane, pair := range [][2]float64{
				{la, Dist2Flat(q, a)}, {lb, Dist2Flat(q, b)},
				{lc, Dist2Flat(q, c)}, {ld, Dist2Flat(q, dd)},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("d=%d case %d lane %d: batch4 %v (bits %x), Dist2Flat %v (bits %x)",
						d, i, lane, pair[0], math.Float64bits(pair[0]), pair[1], math.Float64bits(pair[1]))
				}
			}
			// Reversed orientation: dist²(x, q) is bit-identical to dist²(q, x).
			ra, _, _, _ := kern(a, q, q, q, q)
			if math.Float64bits(ra) != math.Float64bits(Dist2Flat(q, a)) {
				t.Fatalf("d=%d case %d: batch4 orientation asymmetry", d, i)
			}
		}
	}
}

// TestKernelLongerSlices checks the kernels tolerate operands longer than
// d (the generic forms truncate to len of the first argument; the
// unrolled forms index only [0, d)) — the shape the CSR leaf-record scans
// and flat point views hand them.
func TestKernelLongerSlices(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5, 99}
	if got, want := Dist2Kernel(2)(a, b), 13.0; got != want {
		t.Fatalf("d=2 over-long b: got %v want %v", got, want)
	}
	if got, want := DotKernel(2)(a, b), 13.0; got != want {
		t.Fatalf("dot d=2 over-long b: got %v want %v", got, want)
	}
	ba, bb, bc, bd := Dist2Batch4Kernel(2)(a, b, b, b, b)
	for _, v := range []float64{ba, bb, bc, bd} {
		if v != 13.0 {
			t.Fatalf("batch4 d=2 over-long operands: got %v want 13", v)
		}
	}
}

var kernelBenchDims = []int{2, 3, 4, 5, 6, 7, 8}

func benchPoints(d, n int) [][]float64 {
	pts := make([][]float64, n)
	state := uint64(99 + d)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			state = state*6364136223846793005 + 1442695040888963407
			p[j] = float64(state>>11) / float64(1<<53)
		}
		pts[i] = p
	}
	return pts
}

// BenchmarkDist2Kernel measures the specialized single-pair kernels.
// Compare against BenchmarkDist2Generic for the unroll win.
func BenchmarkDist2Kernel(b *testing.B) {
	for _, d := range kernelBenchDims {
		kern := Dist2Kernel(d)
		pts := benchPoints(d, 64)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += kern(pts[i&63], pts[(i+1)&63])
			}
			_ = s
		})
	}
}

// BenchmarkDist2Generic is the pre-dispatch fallback (Dist2Flat through
// an indirect call, as every d ≥ 4 call site ran before the table was
// widened) on the same operands as BenchmarkDist2Kernel.
func BenchmarkDist2Generic(b *testing.B) {
	for _, d := range kernelBenchDims {
		kern := Dist2Func(Dist2Flat)
		pts := benchPoints(d, 64)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += kern(pts[i&63], pts[(i+1)&63])
			}
			_ = s
		})
	}
}

// BenchmarkDist2Batch4 measures the four-point kernels; one iteration
// produces four distances, so compare 4× its per-op figure against the
// single-pair kernels.
func BenchmarkDist2Batch4(b *testing.B) {
	for _, d := range kernelBenchDims {
		kern := Dist2Batch4Kernel(d)
		pts := benchPoints(d, 64)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				da, db, dc, dd := kern(pts[i&63], pts[(i+1)&63], pts[(i+2)&63], pts[(i+3)&63], pts[(i+4)&63])
				s += da + db + dc + dd
			}
			_ = s
		})
	}
}

func BenchmarkDotKernel(b *testing.B) {
	for _, d := range kernelBenchDims {
		kern := DotKernel(d)
		pts := benchPoints(d, 64)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += kern(pts[i&63], pts[(i+1)&63])
			}
			_ = s
		})
	}
}
