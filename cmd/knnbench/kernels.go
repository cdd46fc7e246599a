package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sepdc/internal/vec"
)

// KernelResult is one dimension's distance-kernel micro-measurement:
// the generic fallback (Dist2Flat through an indirect call — the path
// every d >= 4 call site ran before the dispatch table was widened),
// the unrolled single-pair kernel, the unrolled four-point kernel, and
// (on CPUs with the assembly tier) the AVX2 batch forms, all on the
// same operand stream. Batch columns are normalized per distance (one
// call produces four or eight).
type KernelResult struct {
	D               int     `json:"d"`
	GenericNs       float64 `json:"generic_ns_per_dist"`
	UnrolledNs      float64 `json:"unrolled_ns_per_dist"`
	Batch4Ns        float64 `json:"batch4_ns_per_dist"`
	UnrolledSpeedup float64 `json:"unrolled_speedup"`
	Batch4Speedup   float64 `json:"batch4_speedup"`
	// The assembly tier's two batch forms (d = 2..8, AVX2 hosts only):
	// the four-lane form and the eight-record strided form the leaf scan
	// feeds. AsmNs is the better of the two; AsmSpeedup compares it
	// against Batch4Ns — the unrolled four-point kernel, i.e. the best
	// per-distance path without assembly.
	AsmBatch4Ns   float64 `json:"asm_batch4_ns_per_dist,omitempty"`
	AsmStrided8Ns float64 `json:"asm_strided8_ns_per_dist,omitempty"`
	AsmNs         float64 `json:"asm_ns_per_dist,omitempty"`
	AsmSpeedup    float64 `json:"asm_speedup,omitempty"`
}

// parseDims turns the -dims flag into the kernel section's dimension
// sweep, defaulting to the full dispatch-table range 2..8.
func parseDims(spec string) ([]int, error) {
	if spec == "" {
		return []int{2, 3, 4, 5, 6, 7, 8}, nil
	}
	if spec == "0" {
		return nil, nil // sections disabled
	}
	var dims []int
	for _, field := range strings.Split(spec, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || d < 1 {
			return nil, fmt.Errorf("bad -dims entry %q", field)
		}
		dims = append(dims, d)
	}
	return dims, nil
}

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

// runKernelBench measures the kernel forms per dimension with the same
// interleaved-minimum protocol as the serving benchmarks: rounds of
// (generic, unrolled, batch4, asm forms) passes over one operand
// table, each form keeping its fastest pass. The unrolled and asm
// kernels are captured under explicitly pinned dispatch tiers so the
// columns measure what they claim regardless of KNN_KERNELS or the
// default tier.
func runKernelBench(dims []int) []KernelResult {
	const (
		tablePts  = 512
		passDists = 1 << 20
		rounds    = 7
	)
	var out []KernelResult
	sink := 0.0
	for _, d := range dims {
		pts := kernelPoints(d, tablePts)
		// The strided table mirrors the frozen leaf records: stride d+1
		// (center ‖ r²), one record per table point.
		stride := d + 1
		recs := make([]float64, tablePts*stride)
		for i, p := range pts {
			copy(recs[i*stride:], p)
			recs[i*stride+d] = 1.0
		}
		generic := vec.Dist2Func(vec.Dist2Flat)
		prev := vec.SetActiveTier(vec.TierUnrolled)
		unrolled := vec.Dist2Kernel(d)
		batch4 := vec.Dist2Batch4Kernel(d)
		var asmB4 vec.Dist2Batch4Func
		var asmS8 vec.Dist2Strided8Func
		if vec.SetActiveTier(vec.TierAsm); vec.ActiveTier() == vec.TierAsm {
			asmS8 = vec.Dist2Strided8Kernel(d)
			if asmS8 != nil { // asm covers d = 2..8; outside, all forms are nil
				asmB4 = vec.Dist2Batch4Kernel(d)
			}
		}
		vec.SetActiveTier(prev)
		pass1 := func(kern vec.Dist2Func) time.Duration {
			start := time.Now()
			for i := 0; i < passDists; i++ {
				sink += kern(pts[i&(tablePts-1)], pts[(i+1)&(tablePts-1)])
			}
			return time.Since(start)
		}
		pass4 := func(kern vec.Dist2Batch4Func) time.Duration {
			start := time.Now()
			for i := 0; i < passDists/4; i++ {
				da, db, dc, dd := kern(pts[i&(tablePts-1)], pts[(i+1)&(tablePts-1)],
					pts[(i+2)&(tablePts-1)], pts[(i+3)&(tablePts-1)], pts[(i+4)&(tablePts-1)])
				sink += da + db + dc + dd
			}
			return time.Since(start)
		}
		passS8 := func() time.Duration {
			start := time.Now()
			for i := 0; i < passDists/8; i++ {
				r := i & (tablePts - 9)
				d0, d1, d2, d3, d4, d5, d6, d7 := asmS8(pts[r], recs[r*stride:], stride)
				sink += d0 + d1 + d2 + d3 + d4 + d5 + d6 + d7
			}
			return time.Since(start)
		}
		// One named pass per form; absent asm forms simply don't run.
		type form struct {
			run  func() time.Duration
			best time.Duration
		}
		forms := []*form{
			{run: func() time.Duration { return pass1(generic) }},
			{run: func() time.Duration { return pass1(unrolled) }},
			{run: func() time.Duration { return pass4(batch4) }},
		}
		const iGeneric, iUnrolled, iBatch4 = 0, 1, 2
		iAsmB4, iAsmS8 := -1, -1
		if asmB4 != nil {
			iAsmB4 = len(forms)
			forms = append(forms, &form{run: func() time.Duration { return pass4(asmB4) }})
			iAsmS8 = len(forms)
			forms = append(forms, &form{run: passS8})
		}
		// One warm round off the clock, then interleave.
		for _, f := range forms {
			f.best = 1<<63 - 1
			f.run()
		}
		for r := 0; r < rounds; r++ {
			for _, f := range forms {
				if el := f.run(); el < f.best {
					f.best = el
				}
			}
		}
		perDist := func(el time.Duration) float64 {
			return float64(el.Nanoseconds()) / float64(passDists)
		}
		r := KernelResult{
			D:          d,
			GenericNs:  perDist(forms[iGeneric].best),
			UnrolledNs: perDist(forms[iUnrolled].best),
			Batch4Ns:   perDist(forms[iBatch4].best),
		}
		if r.UnrolledNs > 0 {
			r.UnrolledSpeedup = r.GenericNs / r.UnrolledNs
		}
		if r.Batch4Ns > 0 {
			r.Batch4Speedup = r.GenericNs / r.Batch4Ns
		}
		if iAsmB4 >= 0 {
			r.AsmBatch4Ns = perDist(forms[iAsmB4].best)
			r.AsmStrided8Ns = perDist(forms[iAsmS8].best)
			r.AsmNs = r.AsmBatch4Ns
			if r.AsmStrided8Ns < r.AsmNs {
				r.AsmNs = r.AsmStrided8Ns
			}
			if r.AsmNs > 0 {
				r.AsmSpeedup = r.Batch4Ns / r.AsmNs
			}
		}
		fmt.Fprintf(os.Stderr, "kernel d=%d  generic %.2f ns  unrolled %.2f ns (%.2fx)  batch4 %.2f ns/dist (%.2fx)",
			d, r.GenericNs, r.UnrolledNs, r.UnrolledSpeedup, r.Batch4Ns, r.Batch4Speedup)
		if iAsmB4 >= 0 {
			fmt.Fprintf(os.Stderr, "  asm b4/s8 %.2f/%.2f ns/dist (%.2fx)",
				r.AsmBatch4Ns, r.AsmStrided8Ns, r.AsmSpeedup)
		}
		fmt.Fprintln(os.Stderr)
		out = append(out, r)
	}
	if sink == 0 {
		fmt.Fprintln(os.Stderr, "kernel bench sink unexpectedly zero")
	}
	return out
}
