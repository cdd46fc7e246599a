//go:build !amd64 || purego

package vec

// No assembly kernels on this build. The empty tables let kernel.go
// compile unchanged; with asmSupported false the selectors never read
// them, so batch4 serves Go and strided8 is nil for every dimension.
var asmSupported = false

var (
	asmBatch4   [9]Dist2Batch4Func
	asmStrided8 [9]Dist2Strided8Func
)
