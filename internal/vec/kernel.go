package vec

// Dimension-specialized kernels for the query and correction hot loops.
//
// The generic flat kernels (Dist2Flat, DotFlat) spend a measurable share
// of their time on loop control when d is a small constant — which it
// always is for the paper's workloads. The specialized forms fully unroll
// dimensions 2 through 8 (the range the serving benchmarks sweep) and
// fall back to the bounds-check-hoisted generic loop otherwise. The
// unrolled bodies are straight-line chains of independent subtract/
// multiply pairs feeding one accumulator — the shape the compiler keeps
// entirely in registers and that superscalar hardware (or a
// vectorizing backend at GOAMD64=v3) executes at full width.
//
// Correctness constraint: every kernel must produce bit-identical results
// to its generic counterpart, because the library's cross-algorithm
// equality tests compare distances exactly. The unrolled forms therefore
// accumulate in the same left-to-right order as the loops they replace:
// for d = 3, (d0² + d1²) + d2² is exactly the generic loop's
// ((0 + d0²) + d1²) + d2². (Folding the leading 0 away is safe for the
// squared terms — x·x is never −0, and 0 + x = x for every other x —
// but not for the dot products, whose first term can be −0; see the
// note above dotDim2.)

// Dist2Func computes the squared Euclidean distance between two raw
// coordinate slices of a fixed dimension.
type Dist2Func func(a, b []float64) float64

// DotFunc computes the inner product of two raw coordinate slices of a
// fixed dimension.
type DotFunc func(a, b []float64) float64

// Dist2Batch4Func computes four squared Euclidean distances at once:
// from one point q to each of a, b, c, d. Processing four candidates per
// call amortizes the indirect call and lets the compiler keep q's
// coordinates in registers across all four evaluations — the loaded
// cache lines of q are reused instead of re-fetched per candidate.
//
// Each lane is bit-identical to Dist2Flat(q, ·) on that operand. The
// septree leaf scan feeds it one query against four candidate records.
type Dist2Batch4Func func(q, a, b, c, d []float64) (da, db, dc, dd float64)

// Dist2Strided8Func computes squared Euclidean distances from q to
// eight consecutive fixed-stride records in a packed slice: lane k is
// Dist2Flat(q, recs[k*stride:k*stride+len(q)]). This is the shape of
// the frozen septree leaf-record stream (stride = dim+1 with the
// radius term trailing each center), so the leaf scan can hand the
// kernel a window of the record array directly instead of slicing out
// eight candidate headers per group.
type Dist2Strided8Func func(q, recs []float64, stride int) (d0, d1, d2, d3, d4, d5, d6, d7 float64)

// Dispatch. Each selector picks its body by dimension and by what the
// platform can run, nothing else: the unrolled Go bodies at d = 2..8,
// the AVX2 assembly bodies where kernel_amd64.s has one and the CPU
// runs it, and the flat loops outside 2..8. Assembly serves only the
// forms the kernels record shows it winning, batch4 at d = 5..8 and
// strided8 at d = 4..8; at d = 2..4 the unrolled four-point body is
// faster than the AVX2 one.

// Dist2Kernel returns the squared-distance kernel specialized for
// dimension d. The returned function is bit-identical to Dist2Flat on
// inputs of that dimension. Callers hoist the selection out of their
// per-point loops.
//
// Single-pair calls stay on the unrolled Go bodies even with assembly
// available: at one distance per indirect call the ABI0 spill cost of
// an assembly callee would eat any SIMD gain.
func Dist2Kernel(d int) Dist2Func {
	switch d {
	case 2:
		return dist2Dim2
	case 3:
		return dist2Dim3
	case 4:
		return dist2Dim4
	case 5:
		return dist2Dim5
	case 6:
		return dist2Dim6
	case 7:
		return dist2Dim7
	case 8:
		return dist2Dim8
	default:
		return Dist2Flat
	}
}

// DotKernel returns the inner-product kernel specialized for dimension d,
// bit-identical to DotFlat on inputs of that dimension. Like
// Dist2Kernel, dot products are single-pair and stay in Go.
func DotKernel(d int) DotFunc {
	switch d {
	case 2:
		return dotDim2
	case 3:
		return dotDim3
	case 4:
		return dotDim4
	case 5:
		return dotDim5
	case 6:
		return dotDim6
	case 7:
		return dotDim7
	case 8:
		return dotDim8
	default:
		return DotFlat
	}
}

// Dist2Batch4Kernel returns the four-point squared-distance kernel
// specialized for dimension d: the AVX2 body where one exists and runs,
// otherwise the unrolled Go body. Every lane is bit-identical to
// Dist2Flat — and therefore to Dist2Kernel(d) — on the same operands.
func Dist2Batch4Kernel(d int) Dist2Batch4Func {
	goBody, asmBody := Batch4Bodies(d)
	if asmBody != nil {
		return asmBody
	}
	return goBody
}

// batch4Go holds the unrolled four-point bodies by dimension.
var batch4Go = [9]Dist2Batch4Func{
	2: dist2Batch4Dim2,
	3: dist2Batch4Dim3,
	4: dist2Batch4Dim4,
	5: dist2Batch4Dim5,
	6: dist2Batch4Dim6,
	7: dist2Batch4Dim7,
	8: dist2Batch4Dim8,
}

// Batch4Bodies returns both four-point bodies for dimension d: the Go
// one, and the assembly one or nil where this build, CPU or dimension
// has none. Dist2Batch4Kernel serves the assembly body when there is
// one; benchmarks use this to time the Go body beside it.
func Batch4Bodies(d int) (goBody, asmBody Dist2Batch4Func) {
	if d < 2 || d > 8 {
		return dist2Batch4Flat, nil
	}
	if asmSupported {
		asmBody = asmBatch4[d]
	}
	return batch4Go[d], asmBody
}

// Dist2Strided8Kernel returns the eight-record strided squared-distance
// kernel for dimension d, or nil when no assembly body exists for this
// build, CPU or dimension. The eight-lane form only exists in
// assembly — a Go version would neither vectorize reliably nor beat two
// unrolled four-lane calls — so nil means "scan records with the batch-4
// kernel", which is exactly what the septree leaf scan does.
func Dist2Strided8Kernel(d int) Dist2Strided8Func {
	if !asmSupported || d < 2 || d > 8 {
		return nil
	}
	return asmStrided8[d]
}

func dist2Dim2(a, b []float64) float64 {
	_, _ = a[1], b[1]
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	return d0*d0 + d1*d1
}

func dist2Dim3(a, b []float64) float64 {
	_, _ = a[2], b[2]
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	d2 := a[2] - b[2]
	return (d0*d0 + d1*d1) + d2*d2
}

func dist2Dim4(a, b []float64) float64 {
	_, _ = a[3], b[3]
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	d2 := a[2] - b[2]
	d3 := a[3] - b[3]
	return ((d0*d0 + d1*d1) + d2*d2) + d3*d3
}

func dist2Dim5(a, b []float64) float64 {
	_, _ = a[4], b[4]
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	d2 := a[2] - b[2]
	d3 := a[3] - b[3]
	d4 := a[4] - b[4]
	return (((d0*d0 + d1*d1) + d2*d2) + d3*d3) + d4*d4
}

func dist2Dim6(a, b []float64) float64 {
	_, _ = a[5], b[5]
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	d2 := a[2] - b[2]
	d3 := a[3] - b[3]
	d4 := a[4] - b[4]
	d5 := a[5] - b[5]
	return ((((d0*d0 + d1*d1) + d2*d2) + d3*d3) + d4*d4) + d5*d5
}

func dist2Dim7(a, b []float64) float64 {
	_, _ = a[6], b[6]
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	d2 := a[2] - b[2]
	d3 := a[3] - b[3]
	d4 := a[4] - b[4]
	d5 := a[5] - b[5]
	d6 := a[6] - b[6]
	return (((((d0*d0 + d1*d1) + d2*d2) + d3*d3) + d4*d4) + d5*d5) + d6*d6
}

func dist2Dim8(a, b []float64) float64 {
	_, _ = a[7], b[7]
	d0 := a[0] - b[0]
	d1 := a[1] - b[1]
	d2 := a[2] - b[2]
	d3 := a[3] - b[3]
	d4 := a[4] - b[4]
	d5 := a[5] - b[5]
	d6 := a[6] - b[6]
	d7 := a[7] - b[7]
	return ((((((d0*d0 + d1*d1) + d2*d2) + d3*d3) + d4*d4) + d5*d5) + d6*d6) + d7*d7
}

// The dot kernels start the accumulation from an explicit 0 like the
// generic loop does: 0 + (-0) is +0, so folding the first product into
// the initial value would flip the sign of an all-negative-zero result.
func dotDim2(a, b []float64) float64 {
	_, _ = a[1], b[1]
	s := 0.0
	s += a[0] * b[0]
	s += a[1] * b[1]
	return s
}

func dotDim3(a, b []float64) float64 {
	_, _ = a[2], b[2]
	s := 0.0
	s += a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	return s
}

func dotDim4(a, b []float64) float64 {
	_, _ = a[3], b[3]
	s := 0.0
	s += a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	return s
}

func dotDim5(a, b []float64) float64 {
	_, _ = a[4], b[4]
	s := 0.0
	s += a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	return s
}

func dotDim6(a, b []float64) float64 {
	_, _ = a[5], b[5]
	s := 0.0
	s += a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	return s
}

func dotDim7(a, b []float64) float64 {
	_, _ = a[6], b[6]
	s := 0.0
	s += a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	return s
}

func dotDim8(a, b []float64) float64 {
	_, _ = a[7], b[7]
	s := 0.0
	s += a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	return s
}

// dist2Batch4Flat is the generic four-point kernel: one pass over the
// dimensions with four independent accumulators, each advanced in the
// same left-to-right order as Dist2Flat's single accumulator, so every
// lane matches Dist2Flat bit for bit. Keeping all four sums live in one
// loop means q's coordinates are loaded once per dimension, not once per
// candidate.
func dist2Batch4Flat(q, a, b, c, d []float64) (da, db, dc, dd float64) {
	a = a[:len(q)]
	b = b[:len(q)]
	c = c[:len(q)]
	d = d[:len(q)]
	for i, qi := range q {
		t0 := qi - a[i]
		da += t0 * t0
		t1 := qi - b[i]
		db += t1 * t1
		t2 := qi - c[i]
		dc += t2 * t2
		t3 := qi - d[i]
		dd += t3 * t3
	}
	return da, db, dc, dd
}

func dist2Batch4Dim2(q, a, b, c, d []float64) (da, db, dc, dd float64) {
	q0, q1 := q[0], q[1]
	_, _, _, _ = a[1], b[1], c[1], d[1]
	t0 := q0 - a[0]
	t1 := q1 - a[1]
	da = t0*t0 + t1*t1
	t0 = q0 - b[0]
	t1 = q1 - b[1]
	db = t0*t0 + t1*t1
	t0 = q0 - c[0]
	t1 = q1 - c[1]
	dc = t0*t0 + t1*t1
	t0 = q0 - d[0]
	t1 = q1 - d[1]
	dd = t0*t0 + t1*t1
	return da, db, dc, dd
}

func dist2Batch4Dim3(q, a, b, c, d []float64) (da, db, dc, dd float64) {
	q0, q1, q2 := q[0], q[1], q[2]
	_, _, _, _ = a[2], b[2], c[2], d[2]
	t0 := q0 - a[0]
	t1 := q1 - a[1]
	t2 := q2 - a[2]
	da = (t0*t0 + t1*t1) + t2*t2
	t0 = q0 - b[0]
	t1 = q1 - b[1]
	t2 = q2 - b[2]
	db = (t0*t0 + t1*t1) + t2*t2
	t0 = q0 - c[0]
	t1 = q1 - c[1]
	t2 = q2 - c[2]
	dc = (t0*t0 + t1*t1) + t2*t2
	t0 = q0 - d[0]
	t1 = q1 - d[1]
	t2 = q2 - d[2]
	dd = (t0*t0 + t1*t1) + t2*t2
	return da, db, dc, dd
}

func dist2Batch4Dim4(q, a, b, c, d []float64) (da, db, dc, dd float64) {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	_, _, _, _ = a[3], b[3], c[3], d[3]
	t0 := q0 - a[0]
	t1 := q1 - a[1]
	t2 := q2 - a[2]
	t3 := q3 - a[3]
	da = ((t0*t0 + t1*t1) + t2*t2) + t3*t3
	t0 = q0 - b[0]
	t1 = q1 - b[1]
	t2 = q2 - b[2]
	t3 = q3 - b[3]
	db = ((t0*t0 + t1*t1) + t2*t2) + t3*t3
	t0 = q0 - c[0]
	t1 = q1 - c[1]
	t2 = q2 - c[2]
	t3 = q3 - c[3]
	dc = ((t0*t0 + t1*t1) + t2*t2) + t3*t3
	t0 = q0 - d[0]
	t1 = q1 - d[1]
	t2 = q2 - d[2]
	t3 = q3 - d[3]
	dd = ((t0*t0 + t1*t1) + t2*t2) + t3*t3
	return da, db, dc, dd
}

func dist2Batch4Dim5(q, a, b, c, d []float64) (da, db, dc, dd float64) {
	q0, q1, q2, q3, q4 := q[0], q[1], q[2], q[3], q[4]
	_, _, _, _ = a[4], b[4], c[4], d[4]
	t0 := q0 - a[0]
	t1 := q1 - a[1]
	t2 := q2 - a[2]
	t3 := q3 - a[3]
	t4 := q4 - a[4]
	da = (((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4
	t0 = q0 - b[0]
	t1 = q1 - b[1]
	t2 = q2 - b[2]
	t3 = q3 - b[3]
	t4 = q4 - b[4]
	db = (((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4
	t0 = q0 - c[0]
	t1 = q1 - c[1]
	t2 = q2 - c[2]
	t3 = q3 - c[3]
	t4 = q4 - c[4]
	dc = (((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4
	t0 = q0 - d[0]
	t1 = q1 - d[1]
	t2 = q2 - d[2]
	t3 = q3 - d[3]
	t4 = q4 - d[4]
	dd = (((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4
	return da, db, dc, dd
}

func dist2Batch4Dim6(q, a, b, c, d []float64) (da, db, dc, dd float64) {
	q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
	_, _, _, _ = a[5], b[5], c[5], d[5]
	t0 := q0 - a[0]
	t1 := q1 - a[1]
	t2 := q2 - a[2]
	t3 := q3 - a[3]
	t4 := q4 - a[4]
	t5 := q5 - a[5]
	da = ((((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4) + t5*t5
	t0 = q0 - b[0]
	t1 = q1 - b[1]
	t2 = q2 - b[2]
	t3 = q3 - b[3]
	t4 = q4 - b[4]
	t5 = q5 - b[5]
	db = ((((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4) + t5*t5
	t0 = q0 - c[0]
	t1 = q1 - c[1]
	t2 = q2 - c[2]
	t3 = q3 - c[3]
	t4 = q4 - c[4]
	t5 = q5 - c[5]
	dc = ((((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4) + t5*t5
	t0 = q0 - d[0]
	t1 = q1 - d[1]
	t2 = q2 - d[2]
	t3 = q3 - d[3]
	t4 = q4 - d[4]
	t5 = q5 - d[5]
	dd = ((((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4) + t5*t5
	return da, db, dc, dd
}

func dist2Batch4Dim7(q, a, b, c, d []float64) (da, db, dc, dd float64) {
	q0, q1, q2, q3, q4, q5, q6 := q[0], q[1], q[2], q[3], q[4], q[5], q[6]
	_, _, _, _ = a[6], b[6], c[6], d[6]
	t0 := q0 - a[0]
	t1 := q1 - a[1]
	t2 := q2 - a[2]
	t3 := q3 - a[3]
	t4 := q4 - a[4]
	t5 := q5 - a[5]
	t6 := q6 - a[6]
	da = (((((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4) + t5*t5) + t6*t6
	t0 = q0 - b[0]
	t1 = q1 - b[1]
	t2 = q2 - b[2]
	t3 = q3 - b[3]
	t4 = q4 - b[4]
	t5 = q5 - b[5]
	t6 = q6 - b[6]
	db = (((((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4) + t5*t5) + t6*t6
	t0 = q0 - c[0]
	t1 = q1 - c[1]
	t2 = q2 - c[2]
	t3 = q3 - c[3]
	t4 = q4 - c[4]
	t5 = q5 - c[5]
	t6 = q6 - c[6]
	dc = (((((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4) + t5*t5) + t6*t6
	t0 = q0 - d[0]
	t1 = q1 - d[1]
	t2 = q2 - d[2]
	t3 = q3 - d[3]
	t4 = q4 - d[4]
	t5 = q5 - d[5]
	t6 = q6 - d[6]
	dd = (((((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4) + t5*t5) + t6*t6
	return da, db, dc, dd
}

func dist2Batch4Dim8(q, a, b, c, d []float64) (da, db, dc, dd float64) {
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
	_, _, _, _ = a[7], b[7], c[7], d[7]
	t0 := q0 - a[0]
	t1 := q1 - a[1]
	t2 := q2 - a[2]
	t3 := q3 - a[3]
	t4 := q4 - a[4]
	t5 := q5 - a[5]
	t6 := q6 - a[6]
	t7 := q7 - a[7]
	da = ((((((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4) + t5*t5) + t6*t6) + t7*t7
	t0 = q0 - b[0]
	t1 = q1 - b[1]
	t2 = q2 - b[2]
	t3 = q3 - b[3]
	t4 = q4 - b[4]
	t5 = q5 - b[5]
	t6 = q6 - b[6]
	t7 = q7 - b[7]
	db = ((((((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4) + t5*t5) + t6*t6) + t7*t7
	t0 = q0 - c[0]
	t1 = q1 - c[1]
	t2 = q2 - c[2]
	t3 = q3 - c[3]
	t4 = q4 - c[4]
	t5 = q5 - c[5]
	t6 = q6 - c[6]
	t7 = q7 - c[7]
	dc = ((((((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4) + t5*t5) + t6*t6) + t7*t7
	t0 = q0 - d[0]
	t1 = q1 - d[1]
	t2 = q2 - d[2]
	t3 = q3 - d[3]
	t4 = q4 - d[4]
	t5 = q5 - d[5]
	t6 = q6 - d[6]
	t7 = q7 - d[7]
	dd = ((((((t0*t0 + t1*t1) + t2*t2) + t3*t3) + t4*t4) + t5*t5) + t6*t6) + t7*t7
	return da, db, dc, dd
}
