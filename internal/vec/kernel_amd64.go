//go:build amd64 && !purego

package vec

import "sepdc/internal/cpufeat"

// asmSupported gates the assembly bodies: the build tag guarantees they
// are linked in, the runtime probe guarantees executing them won't
// fault. GOAMD64=v1 binaries therefore still ship the asm kernels and
// engage them only on capable hardware.
var asmSupported = cpufeat.HasAVX2()

// Four-lane batch kernels, one TEXT per dimension. Implemented in
// kernel_amd64.s; every lane is bit-identical to Dist2Flat.

//go:noescape
func dist2Batch4Asm5(q, a, b, c, d []float64) (da, db, dc, dd float64)

//go:noescape
func dist2Batch4Asm6(q, a, b, c, d []float64) (da, db, dc, dd float64)

//go:noescape
func dist2Batch4Asm7(q, a, b, c, d []float64) (da, db, dc, dd float64)

//go:noescape
func dist2Batch4Asm8(q, a, b, c, d []float64) (da, db, dc, dd float64)

// Strided eight-record kernels over a packed record stream
// (lane k = dist²(q, recs[k*stride:k*stride+dim])).

//go:noescape
func dist2Strided8Asm4(q, recs []float64, stride int) (d0, d1, d2, d3, d4, d5, d6, d7 float64)

//go:noescape
func dist2Strided8Asm5(q, recs []float64, stride int) (d0, d1, d2, d3, d4, d5, d6, d7 float64)

//go:noescape
func dist2Strided8Asm6(q, recs []float64, stride int) (d0, d1, d2, d3, d4, d5, d6, d7 float64)

//go:noescape
func dist2Strided8Asm7(q, recs []float64, stride int) (d0, d1, d2, d3, d4, d5, d6, d7 float64)

//go:noescape
func dist2Strided8Asm8(q, recs []float64, stride int) (d0, d1, d2, d3, d4, d5, d6, d7 float64)

// Assembly bodies indexed by dimension. Nil slots have no assembly
// body, and the selectors in kernel.go serve Go there.
var asmBatch4 = [9]Dist2Batch4Func{
	5: dist2Batch4Asm5,
	6: dist2Batch4Asm6,
	7: dist2Batch4Asm7,
	8: dist2Batch4Asm8,
}

var asmStrided8 = [9]Dist2Strided8Func{
	4: dist2Strided8Asm4,
	5: dist2Strided8Asm5,
	6: dist2Strided8Asm6,
	7: dist2Strided8Asm7,
	8: dist2Strided8Asm8,
}
