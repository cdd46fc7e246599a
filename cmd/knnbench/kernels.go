package main

import (
	"fmt"
	"os"
	"time"

	"sepdc/internal/benchfile"
	"sepdc/internal/vec"
)

// Kernels is the kernels section: one row per dimension of the
// dispatch table, d = 2..8.
type Kernels struct {
	benchfile.Header
	Rows []KernelResult `json:"rows"`
}

// KernelResult is one dimension's distance-kernel timings in ns per
// distance, by form: "generic" (Dist2Flat through an indirect call),
// "unrolled" (the single-pair kernel), "batch4" (the unrolled four-point
// kernel) and, on CPUs with the assembly tier, "asm_batch4" and
// "asm_strided8" (the AVX2 four-lane form and the eight-record strided
// form the leaf scan feeds).
type KernelResult struct {
	D         int                `json:"d"`
	NsPerDist map[string]float64 `json:"ns_per_dist"`
}

const kernelsProtocol = "knnbench: every distance-kernel form per dimension over one 512-point operand " +
	"table, the unrolled and asm forms captured under an explicitly pinned dispatch tier; one warm " +
	"round, then the fastest of 7 interleaved rounds of 2^20 distances per form"

// kernelForms lists the forms in the order each round runs them.
var kernelForms = []string{"generic", "unrolled", "batch4", "asm_batch4", "asm_strided8"}

// kernelPoints builds a deterministic operand table sized to defeat the
// L1 — the kernels are measured with realistic cache pressure, not out
// of registers.
func kernelPoints(d, n int) [][]float64 {
	pts := make([][]float64, n)
	state := uint64(7 + d)
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

// runKernelBench times every kernel form per dimension in interleaved
// rounds over one operand table, each form keeping its fastest pass.
func runKernelBench() []KernelResult {
	const (
		tablePts  = 512
		passDists = 1 << 20
		rounds    = 7
	)
	var out []KernelResult
	sink := 0.0
	for d := 2; d <= 8; d++ {
		pts := kernelPoints(d, tablePts)
		// The strided table mirrors the frozen leaf records: stride d+1
		// (center ‖ r²), one record per table point.
		stride := d + 1
		recs := make([]float64, tablePts*stride)
		for i, p := range pts {
			copy(recs[i*stride:], p)
			recs[i*stride+d] = 1.0
		}
		one := func(kern vec.Dist2Func) func() {
			return func() {
				for i := 0; i < passDists; i++ {
					sink += kern(pts[i&(tablePts-1)], pts[(i+1)&(tablePts-1)])
				}
			}
		}
		four := func(kern vec.Dist2Batch4Func) func() {
			return func() {
				for i := 0; i < passDists/4; i++ {
					da, db, dc, dd := kern(pts[i&(tablePts-1)], pts[(i+1)&(tablePts-1)],
						pts[(i+2)&(tablePts-1)], pts[(i+3)&(tablePts-1)], pts[(i+4)&(tablePts-1)])
					sink += da + db + dc + dd
				}
			}
		}
		prev := vec.SetActiveTier(vec.TierUnrolled)
		run := map[string]func(){
			"generic":  one(vec.Dist2Flat),
			"unrolled": one(vec.Dist2Kernel(d)),
			"batch4":   four(vec.Dist2Batch4Kernel(d)),
		}
		// The asm tier covers d = 2..8 on AVX2 hosts; elsewhere its forms
		// are absent and do not run.
		if vec.SetActiveTier(vec.TierAsm); vec.ActiveTier() == vec.TierAsm {
			if s8 := vec.Dist2Strided8Kernel(d); s8 != nil {
				run["asm_batch4"] = four(vec.Dist2Batch4Kernel(d))
				run["asm_strided8"] = func() {
					for i := 0; i < passDists/8; i++ {
						r := i & (tablePts - 9)
						d0, d1, d2, d3, d4, d5, d6, d7 := s8(pts[r], recs[r*stride:], stride)
						sink += d0 + d1 + d2 + d3 + d4 + d5 + d6 + d7
					}
				}
			}
		}
		vec.SetActiveTier(prev)
		best := map[string]time.Duration{}
		for round := -1; round < rounds; round++ { // round -1 warms up
			for _, name := range kernelForms {
				if run[name] == nil {
					continue
				}
				start := time.Now()
				run[name]()
				if el := time.Since(start); round >= 0 && (best[name] == 0 || el < best[name]) {
					best[name] = el
				}
			}
		}
		row := KernelResult{D: d, NsPerDist: map[string]float64{}}
		for name, el := range best {
			row.NsPerDist[name] = float64(el.Nanoseconds()) / passDists
		}
		fmt.Fprintf(os.Stderr, "kernel d=%d ns/dist %v\n", d, row.NsPerDist)
		out = append(out, row)
	}
	if sink == 0 {
		fmt.Fprintln(os.Stderr, "kernel bench sink unexpectedly zero")
	}
	return out
}
