//go:build !amd64 || purego

package vec

// No assembly kernels on this build: the tier initializer caps the
// default at TierUnrolled, and explicit TierAsm requests degrade to it.
var asmSupported = false

// Empty dispatch tables so kernel.go compiles unchanged; the selectors
// never consult them when asmSupported is false (TierAsm is
// unreachable), and the strided selector returns nil for every
// dimension, pushing callers onto the batch-4 path.
var (
	asmBatch4   [9]Dist2Batch4Func
	asmStrided8 [9]Dist2Strided8Func
)
