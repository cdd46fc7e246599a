//go:build amd64 && !purego

#include "textflag.h"

// AVX2 point-parallel squared-distance kernels. Only the bodies that
// beat the unrolled Go forms are kept: four-lane batch at d = 5..8 and
// eight-lane strided at d = 4..8.
//
// Layout: one ymm register holds the same coordinate of four candidate
// points, one candidate per 64-bit lane. For each dimension i the
// kernel broadcasts q[i] (VBROADCASTSD), gathers the four candidates'
// i-th coordinates with VMOVSD/VMOVHPD pair loads merged by
// VINSERTF128, then subtracts, squares, and adds into a packed
// accumulator seeded with +0. Every lane therefore replays the scalar
// reference's exact left-to-right IEEE sequence
// ((0 + t0*t0) + t1*t1) + ... — the results are bit-identical to
// Dist2Flat by construction, not by tolerance.
//
// Deliberately no FMA: VFMADD contracts the multiply and add into one
// rounding step, which changes low-order bits relative to the separate
// VMULPD+VADDPD the Go reference performs. Cross-algorithm equality
// tests compare distances exactly, so contraction is off the table.
//
// The eight-lane strided form keeps a second accumulator (Y7) for
// candidates 4..7 so one indirect call retires eight distances,
// amortizing the ABI0 argument spill the compiler emits around assembly
// callees.
//
// Register use stays within AX,BX,CX,DX,SI,DI,R8..R11 and Y0..Y7 — no
// callee-special registers (BP, R14) are touched.

// STEP4 advances the four-lane accumulator Y3 by dimension i.
// Pointers: q=AX, lanes 0..3 = BX,CX,DX,SI.
#define STEP4(i) \
	VBROADCASTSD ((i)*8)(AX), Y0; \
	VMOVSD ((i)*8)(BX), X1; \
	VMOVHPD ((i)*8)(CX), X1, X1; \
	VMOVSD ((i)*8)(DX), X2; \
	VMOVHPD ((i)*8)(SI), X2, X2; \
	VINSERTF128 $1, X2, Y1, Y1; \
	VSUBPD Y1, Y0, Y2; \
	VMULPD Y2, Y2, Y2; \
	VADDPD Y2, Y3, Y3

// STEP8 advances both accumulators (Y3 lanes 0..3, Y7 lanes 4..7) by
// dimension i. Additional pointers: lanes 4..7 = DI,R8,R9,R10. The
// broadcast of q[i] is shared across both halves.
#define STEP8(i) \
	STEP4(i); \
	VMOVSD ((i)*8)(DI), X5; \
	VMOVHPD ((i)*8)(R8), X5, X5; \
	VMOVSD ((i)*8)(R9), X6; \
	VMOVHPD ((i)*8)(R10), X6, X6; \
	VINSERTF128 $1, X6, Y5, Y5; \
	VSUBPD Y5, Y0, Y6; \
	VMULPD Y6, Y6, Y6; \
	VADDPD Y6, Y7, Y7

#define BATCH4_HEAD \
	MOVQ q_base+0(FP), AX; \
	MOVQ a_base+24(FP), BX; \
	MOVQ b_base+48(FP), CX; \
	MOVQ c_base+72(FP), DX; \
	MOVQ d_base+96(FP), SI; \
	VXORPD Y3, Y3, Y3

#define BATCH4_TAIL \
	VMOVSD X3, da+120(FP); \
	VMOVHPD X3, db+128(FP); \
	VEXTRACTF128 $1, Y3, X4; \
	VMOVSD X4, dc+136(FP); \
	VMOVHPD X4, dd+144(FP); \
	VZEROUPPER; \
	RET

// STRIDED8_HEAD materializes eight record pointers base + k*stride*8
// into the registers STEP8 reads for lanes 0..7.
#define STRIDED8_HEAD \
	MOVQ q_base+0(FP), AX; \
	MOVQ recs_base+24(FP), BX; \
	MOVQ stride+48(FP), R11; \
	SHLQ $3, R11; \
	LEAQ (BX)(R11*1), CX; \
	LEAQ (CX)(R11*1), DX; \
	LEAQ (DX)(R11*1), SI; \
	LEAQ (SI)(R11*1), DI; \
	LEAQ (DI)(R11*1), R8; \
	LEAQ (R8)(R11*1), R9; \
	LEAQ (R9)(R11*1), R10; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y7, Y7, Y7

#define STRIDED8_TAIL \
	VMOVSD X3, d0+56(FP); \
	VMOVHPD X3, d1+64(FP); \
	VEXTRACTF128 $1, Y3, X4; \
	VMOVSD X4, d2+72(FP); \
	VMOVHPD X4, d3+80(FP); \
	VMOVSD X7, d4+88(FP); \
	VMOVHPD X7, d5+96(FP); \
	VEXTRACTF128 $1, Y7, X4; \
	VMOVSD X4, d6+104(FP); \
	VMOVHPD X4, d7+112(FP); \
	VZEROUPPER; \
	RET

// func dist2Batch4Asm5(q, a, b, c, d []float64) (da, db, dc, dd float64)
TEXT ·dist2Batch4Asm5(SB), NOSPLIT, $0-152
	BATCH4_HEAD
	STEP4(0)
	STEP4(1)
	STEP4(2)
	STEP4(3)
	STEP4(4)
	BATCH4_TAIL

// func dist2Batch4Asm6(q, a, b, c, d []float64) (da, db, dc, dd float64)
TEXT ·dist2Batch4Asm6(SB), NOSPLIT, $0-152
	BATCH4_HEAD
	STEP4(0)
	STEP4(1)
	STEP4(2)
	STEP4(3)
	STEP4(4)
	STEP4(5)
	BATCH4_TAIL

// func dist2Batch4Asm7(q, a, b, c, d []float64) (da, db, dc, dd float64)
TEXT ·dist2Batch4Asm7(SB), NOSPLIT, $0-152
	BATCH4_HEAD
	STEP4(0)
	STEP4(1)
	STEP4(2)
	STEP4(3)
	STEP4(4)
	STEP4(5)
	STEP4(6)
	BATCH4_TAIL

// func dist2Batch4Asm8(q, a, b, c, d []float64) (da, db, dc, dd float64)
TEXT ·dist2Batch4Asm8(SB), NOSPLIT, $0-152
	BATCH4_HEAD
	STEP4(0)
	STEP4(1)
	STEP4(2)
	STEP4(3)
	STEP4(4)
	STEP4(5)
	STEP4(6)
	STEP4(7)
	BATCH4_TAIL

// func dist2Strided8Asm4(q, recs []float64, stride int) (d0, d1, d2, d3, d4, d5, d6, d7 float64)
TEXT ·dist2Strided8Asm4(SB), NOSPLIT, $0-120
	STRIDED8_HEAD
	STEP8(0)
	STEP8(1)
	STEP8(2)
	STEP8(3)
	STRIDED8_TAIL

// func dist2Strided8Asm5(q, recs []float64, stride int) (d0, d1, d2, d3, d4, d5, d6, d7 float64)
TEXT ·dist2Strided8Asm5(SB), NOSPLIT, $0-120
	STRIDED8_HEAD
	STEP8(0)
	STEP8(1)
	STEP8(2)
	STEP8(3)
	STEP8(4)
	STRIDED8_TAIL

// func dist2Strided8Asm6(q, recs []float64, stride int) (d0, d1, d2, d3, d4, d5, d6, d7 float64)
TEXT ·dist2Strided8Asm6(SB), NOSPLIT, $0-120
	STRIDED8_HEAD
	STEP8(0)
	STEP8(1)
	STEP8(2)
	STEP8(3)
	STEP8(4)
	STEP8(5)
	STRIDED8_TAIL

// func dist2Strided8Asm7(q, recs []float64, stride int) (d0, d1, d2, d3, d4, d5, d6, d7 float64)
TEXT ·dist2Strided8Asm7(SB), NOSPLIT, $0-120
	STRIDED8_HEAD
	STEP8(0)
	STEP8(1)
	STEP8(2)
	STEP8(3)
	STEP8(4)
	STEP8(5)
	STEP8(6)
	STRIDED8_TAIL

// func dist2Strided8Asm8(q, recs []float64, stride int) (d0, d1, d2, d3, d4, d5, d6, d7 float64)
TEXT ·dist2Strided8Asm8(SB), NOSPLIT, $0-120
	STRIDED8_HEAD
	STEP8(0)
	STEP8(1)
	STEP8(2)
	STEP8(3)
	STEP8(4)
	STEP8(5)
	STEP8(6)
	STEP8(7)
	STRIDED8_TAIL
