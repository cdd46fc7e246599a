package kdtree

import (
	"fmt"
	"testing"

	"sepdc/internal/pointgen"
	"sepdc/internal/xrand"
)

func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := pointgen.MustGenerate(pointgen.UniformCube, n, 3, xrand.New(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Build(pts)
			}
		})
	}
}

func BenchmarkKNNQuery(b *testing.B) {
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			pts := pointgen.MustGenerate(pointgen.UniformCube, 1<<16, 3, xrand.New(2))
			tree := Build(pts)
			g := xrand.New(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				knnOf(tree, pts[g.IntN(len(pts))], k, -1)
			}
		})
	}
}

func BenchmarkAllKNN(b *testing.B) {
	pts := pointgen.MustGenerate(pointgen.UniformCube, 1<<13, 3, xrand.New(4))
	tree := Build(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.AllKNN(4)
	}
}
