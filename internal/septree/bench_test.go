package septree

import (
	"fmt"
	"testing"

	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/xrand"
)

func benchSystem(b *testing.B, n int) *nbrsys.System {
	b.Helper()
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformBall, n, 2, xrand.New(uint64(n))))
	return nbrsys.KNeighborhood(pts, 2)
}

func BenchmarkBuildSequential(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sys := benchSystem(b, n)
			g := xrand.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(sys, g.Split(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQuery(b *testing.B) {
	sys := benchSystem(b, 1<<16)
	f, err := Build(sys, xrand.New(3), nil)
	if err != nil {
		b.Fatal(err)
	}
	g := xrand.New(4)
	var out []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, _ = f.Covering(sys.Centers[g.IntN(sys.Len())], out[:0])
	}
}
