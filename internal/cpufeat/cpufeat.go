// Package cpufeat probes the CPU features the hand-written assembly
// kernels in internal/vec depend on. It is dependency-free: on amd64 it
// executes CPUID/XGETBV directly (the golang.org/x/sys/cpu probe
// distilled to the four bits this module cares about); everywhere else
// — and under the purego build tag — every predicate reports false.
//
// AVX2 usability requires more than the AVX2 CPUID bit: the OS must
// have enabled XSAVE state management (OSXSAVE) and committed to
// saving/restoring the full ymm state (XCR0 bits 1 and 2), otherwise
// executing a VEX-encoded instruction faults. HasAVX2 folds all of
// that in, so callers can treat it as "may I run ymm code here".
package cpufeat

// Feature bits detected at init. Zero on non-amd64 and purego builds.
type featureSet struct {
	avx     bool
	avx2    bool
	fma     bool
	avx512f bool
	osxsave bool
}

var feats featureSet = detect()

// HasAVX2 reports whether AVX2 kernels can run: the CPU advertises
// AVX2 and the OS saves/restores ymm state.
func HasAVX2() bool { return feats.avx2 }

// Features returns the detected feature set as a stable comma-joined
// list (subset of "avx,avx2,fma,avx512f"), or "none" when nothing
// relevant is available — the string benchmark env headers and startup
// logs record.
func Features() string {
	s := ""
	add := func(on bool, name string) {
		if !on {
			return
		}
		if s != "" {
			s += ","
		}
		s += name
	}
	add(feats.avx, "avx")
	add(feats.avx2, "avx2")
	add(feats.fma, "fma")
	add(feats.avx512f, "avx512f")
	if s == "" {
		return "none"
	}
	return s
}
