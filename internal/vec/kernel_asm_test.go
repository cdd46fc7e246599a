package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// These tests exercise the assembly tier through the same adversarial
// table as the unrolled kernels (kernel_test.go). They are portable:
// the dispatch tables exist on every build (empty without asm), and
// every asm-specific assertion gates on AsmSupported(), so the file
// compiles and passes under !amd64 and purego too — the selector-level
// checks still run there against the Go tiers.

func fnEq(a, b interface{}) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// bitsEq treats two float64s as equal when their bit patterns match,
// or when both are NaN (any payload). The kernels replay the scalar
// operation sequence exactly, so even NaN payloads should coincide —
// but parity on NaN payload is not part of the contract the library
// relies on, and pinning it would make the fuzzer flaky across
// hardware generations.
func bitsEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestAsmBatch4BitIdentity runs every four-lane assembly kernel against
// the generic left-to-right reference over the adversarial table,
// checking exact bit patterns lane by lane and in both orientations.
func TestAsmBatch4BitIdentity(t *testing.T) {
	if !AsmSupported() {
		t.Skip("assembly kernels not available on this build/CPU")
	}
	for d := 2; d <= 8; d++ {
		kern := asmBatch4[d]
		if kern == nil {
			t.Fatalf("d=%d: asmBatch4 entry missing", d)
		}
		cases := kernelCases(d)
		for i := 0; i+4 < len(cases); i++ {
			q := cases[i][0]
			a, b, c, dd := cases[i+1][0], cases[i+2][1], cases[i+3][0], cases[i+4][1]
			la, lb, lc, ld := kern(q, a, b, c, dd)
			for lane, pair := range [][2]float64{
				{la, Dist2Flat(q, a)}, {lb, Dist2Flat(q, b)},
				{lc, Dist2Flat(q, c)}, {ld, Dist2Flat(q, dd)},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("d=%d case %d lane %d: asm batch4 %v (bits %x), Dist2Flat %v (bits %x)",
						d, i, lane, pair[0], math.Float64bits(pair[0]), pair[1], math.Float64bits(pair[1]))
				}
			}
			ra, _, _, _ := kern(a, q, q, q, q)
			if math.Float64bits(ra) != math.Float64bits(Dist2Flat(q, a)) {
				t.Fatalf("d=%d case %d: asm batch4 orientation asymmetry", d, i)
			}
		}
	}
}

// TestAsmStrided8BitIdentity packs eight records at several strides —
// tight (stride == d) and with trailing payload slots like the frozen
// leaf layout's radius term (stride == d+1, d+3) — and checks each lane
// against Dist2Flat on the corresponding record window. The padding
// slots hold NaN to prove the kernel never reads past the first d
// coordinates of a record.
func TestAsmStrided8BitIdentity(t *testing.T) {
	if !AsmSupported() {
		t.Skip("assembly kernels not available on this build/CPU")
	}
	for d := 2; d <= 8; d++ {
		kern := asmStrided8[d]
		if kern == nil {
			t.Fatalf("d=%d: asmStrided8 entry missing", d)
		}
		cases := kernelCases(d)
		for _, stride := range []int{d, d + 1, d + 3} {
			for i := 0; i+8 < len(cases); i += 3 {
				q := cases[i][0]
				recs := make([]float64, 8*stride)
				for j := range recs {
					recs[j] = math.NaN()
				}
				var want [8]float64
				for k := 0; k < 8; k++ {
					copy(recs[k*stride:], cases[i+1+k][0][:d])
					want[k] = Dist2Flat(q, recs[k*stride:k*stride+d])
				}
				var got [8]float64
				got[0], got[1], got[2], got[3], got[4], got[5], got[6], got[7] = kern(q, recs, stride)
				for lane := 0; lane < 8; lane++ {
					if math.Float64bits(got[lane]) != math.Float64bits(want[lane]) {
						t.Fatalf("d=%d stride=%d case %d lane %d: asm strided8 %v (bits %x), Dist2Flat %v (bits %x)",
							d, stride, i, lane, got[lane], math.Float64bits(got[lane]), want[lane], math.Float64bits(want[lane]))
					}
				}
			}
		}
	}
}

// TestTierDispatch pins the dispatch-priority table: which concrete
// function each selector serves under each tier, that the single-pair
// forms stay unrolled under asm, and that the 8-lane selector is nil
// everywhere the assembly bodies don't exist.
func TestTierDispatch(t *testing.T) {
	prev := ActiveTier()
	defer SetActiveTier(prev)

	SetActiveTier(TierGeneric)
	if !fnEq(Dist2Kernel(4), Dist2Flat) || !fnEq(DotKernel(4), DotFlat) {
		t.Fatal("TierGeneric: single-pair selectors must serve the flat loops")
	}
	if !fnEq(Dist2Batch4Kernel(4), dist2Batch4Flat) {
		t.Fatal("TierGeneric: batch4 selector must serve dist2Batch4Flat")
	}
	if Dist2Strided8Kernel(4) != nil {
		t.Fatal("TierGeneric: 8-lane selector must be nil")
	}

	SetActiveTier(TierUnrolled)
	if !fnEq(Dist2Kernel(4), dist2Dim4) || !fnEq(Dist2Batch4Kernel(4), dist2Batch4Dim4) {
		t.Fatal("TierUnrolled: selectors must serve the unrolled bodies")
	}
	if Dist2Strided8Kernel(4) != nil {
		t.Fatal("TierUnrolled: 8-lane selector must be nil")
	}
	if !fnEq(Dist2Kernel(9), Dist2Flat) {
		t.Fatal("TierUnrolled: out-of-range dimension must fall back to flat")
	}

	got := SetActiveTier(TierAsm)
	if got != TierUnrolled {
		t.Fatalf("SetActiveTier returned %v, want TierUnrolled", got)
	}
	if !AsmSupported() {
		if ActiveTier() != TierUnrolled {
			t.Fatal("TierAsm request without asm support must degrade to TierUnrolled")
		}
		return
	}
	if ActiveTier() != TierAsm {
		t.Fatal("TierAsm request with asm support must stick")
	}
	if !fnEq(Dist2Kernel(4), dist2Dim4) || !fnEq(DotKernel(4), dotDim4) {
		t.Fatal("TierAsm: single-pair selectors must stay on the unrolled bodies")
	}
	for d := 2; d <= 8; d++ {
		if !fnEq(Dist2Batch4Kernel(d), asmBatch4[d]) {
			t.Fatalf("TierAsm d=%d: batch4 selector must serve the asm body", d)
		}
		if Dist2Strided8Kernel(d) == nil {
			t.Fatalf("TierAsm d=%d: 8-lane selector must be non-nil", d)
		}
	}
	for _, d := range []int{1, 9, 16} {
		if Dist2Strided8Kernel(d) != nil {
			t.Fatalf("TierAsm d=%d: 8-lane selector must be nil outside 2..8", d)
		}
		if !fnEq(Dist2Batch4Kernel(d), dist2Batch4Flat) {
			t.Fatalf("TierAsm d=%d: batch4 must fall back to flat outside 2..8", d)
		}
	}
}

// TestParseTier pins the env-override vocabulary.
func TestParseTier(t *testing.T) {
	for s, want := range map[string]KernelTier{
		"generic": TierGeneric, "unrolled": TierUnrolled, "asm": TierAsm,
	} {
		got, ok := ParseTier(s)
		if !ok || got != want {
			t.Fatalf("ParseTier(%q) = %v,%v; want %v,true", s, got, ok, want)
		}
		if got.String() != s {
			t.Fatalf("KernelTier(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, ok := ParseTier("avx512"); ok {
		t.Fatal("ParseTier accepted an unknown tier")
	}
}

// TestBatchKernelsBitIdenticalAllTiers sweeps the selector output of
// every available tier over the adversarial table, so whichever tier a
// platform defaults to is proven against the flat reference.
func TestBatchKernelsBitIdenticalAllTiers(t *testing.T) {
	prev := ActiveTier()
	defer SetActiveTier(prev)
	tiers := []KernelTier{TierGeneric, TierUnrolled}
	if AsmSupported() {
		tiers = append(tiers, TierAsm)
	}
	for _, tier := range tiers {
		SetActiveTier(tier)
		for d := 1; d <= 16; d++ {
			kern := Dist2Batch4Kernel(d)
			s8 := Dist2Strided8Kernel(d)
			cases := kernelCases(d)
			for i := 0; i+8 < len(cases); i += 4 {
				q := cases[i][0]
				a, b, c, dd := cases[i+1][0], cases[i+2][1], cases[i+3][0], cases[i+4][1]
				la, lb, lc, ld := kern(q, a, b, c, dd)
				for lane, pair := range [][2]float64{
					{la, Dist2Flat(q, a)}, {lb, Dist2Flat(q, b)},
					{lc, Dist2Flat(q, c)}, {ld, Dist2Flat(q, dd)},
				} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("tier=%v d=%d case %d lane %d: batch4 mismatch", tier, d, i, lane)
					}
				}
				if s8 != nil {
					stride := d + 1
					recs := make([]float64, 8*stride)
					for k, op := range [][]float64{a, b, c, dd, cases[i+5][0], cases[i+6][1], cases[i+7][0], cases[i+8][1]} {
						copy(recs[k*stride:], op[:d])
					}
					r := make([]float64, 8)
					r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = s8(q, recs, stride)
					for lane := 0; lane < 8; lane++ {
						want := Dist2Flat(q, recs[lane*stride:lane*stride+d])
						if math.Float64bits(r[lane]) != math.Float64bits(want) {
							t.Fatalf("tier=%v d=%d case %d lane %d: strided8 mismatch", tier, d, i, lane)
						}
					}
				}
			}
		}
	}
}

// FuzzKernelParity cross-checks every kernel tier on fuzzer-chosen raw
// float64 bit patterns — including NaNs, infinities, and subnormals —
// against the flat reference. Wired into `make fuzz`.
func FuzzKernelParity(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint8(2), []byte{0xff, 0xf0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(8), make([]byte, 8*9*8))
	f.Add(uint8(16), []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, dim uint8, data []byte) {
		d := int(dim)%16 + 1
		// Carve q plus eight operands of d float64s each out of the raw
		// bytes, cycling when the fuzzer gives us fewer than 9*d*8.
		need := 9 * d
		words := make([]float64, need)
		if len(data) == 0 {
			data = []byte{0}
		}
		var buf [8]byte
		for i := 0; i < need; i++ {
			for j := 0; j < 8; j++ {
				buf[j] = data[(i*8+j)%len(data)]
			}
			words[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		}
		q := words[:d]
		ops := make([][]float64, 8)
		for k := range ops {
			ops[k] = words[(k+1)*d : (k+2)*d]
		}
		var want [8]float64
		for k := range ops {
			want[k] = Dist2Flat(q, ops[k])
		}
		wantDot := DotFlat(q, ops[0])

		prev := ActiveTier()
		defer SetActiveTier(prev)
		tiers := []KernelTier{TierGeneric, TierUnrolled}
		if AsmSupported() {
			tiers = append(tiers, TierAsm)
		}
		for _, tier := range tiers {
			SetActiveTier(tier)
			if got := Dist2Kernel(d)(q, ops[0]); !bitsEq(got, want[0]) {
				t.Fatalf("tier=%v d=%d: Dist2Kernel %x, flat %x", tier, d, math.Float64bits(got), math.Float64bits(want[0]))
			}
			if got := DotKernel(d)(q, ops[0]); !bitsEq(got, wantDot) {
				t.Fatalf("tier=%v d=%d: DotKernel %x, flat %x", tier, d, math.Float64bits(got), math.Float64bits(wantDot))
			}
			var got [8]float64
			got[0], got[1], got[2], got[3] = Dist2Batch4Kernel(d)(q, ops[0], ops[1], ops[2], ops[3])
			for lane := 0; lane < 4; lane++ {
				if !bitsEq(got[lane], want[lane]) {
					t.Fatalf("tier=%v d=%d lane %d: batch4 %x, flat %x", tier, d, lane, math.Float64bits(got[lane]), math.Float64bits(want[lane]))
				}
			}
			if s8 := Dist2Strided8Kernel(d); s8 != nil {
				stride := d + 1
				recs := make([]float64, 8*stride)
				for k := range ops {
					copy(recs[k*stride:], ops[k])
				}
				got[0], got[1], got[2], got[3], got[4], got[5], got[6], got[7] = s8(q, recs, stride)
				for lane := 0; lane < 8; lane++ {
					if !bitsEq(got[lane], want[lane]) {
						t.Fatalf("tier=%v d=%d lane %d: strided8 %x, flat %x", tier, d, lane, math.Float64bits(got[lane]), math.Float64bits(want[lane]))
					}
				}
			}
		}
	})
}

// BenchmarkDist2Strided8 measures the strided record-stream kernels on
// a packed stride=d+1 layout — the frozen leaf-record shape.
func BenchmarkDist2Strided8(b *testing.B) {
	for _, d := range kernelBenchDims {
		kern := Dist2Strided8Kernel(d)
		if kern == nil {
			b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) { b.Skip("no asm strided8 on this tier/build") })
			continue
		}
		stride := d + 1
		pts := benchPoints(d, 64)
		recs := make([]float64, 64*stride)
		for i, p := range pts {
			copy(recs[i*stride:], p)
		}
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				off := (i & 7) * 7 * stride
				d0, d1, d2, d3, d4, d5, d6, d7 := kern(pts[i&63], recs[off:], stride)
				s += d0 + d1 + d2 + d3 + d4 + d5 + d6 + d7
			}
			_ = s
		})
	}
}
