package nbrsys

import (
	"fmt"
	"testing"

	"sepdc/internal/pointgen"
	"sepdc/internal/xrand"
)

// BenchmarkKNeighborhood: the k-neighborhood radii (the kd-tree build and
// one search per point) at n=2¹⁶, k=4.
func BenchmarkKNeighborhood(b *testing.B) {
	for _, d := range []int{2, 3} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			pts := pointgen.MustGenerate(pointgen.UniformCube, 1<<16, d, xrand.New(uint64(d)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				KNeighborhood(pts, 4)
			}
		})
	}
}
