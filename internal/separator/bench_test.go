package separator

import (
	"fmt"
	"testing"

	"sepdc/internal/pointgen"
	"sepdc/internal/xrand"
)

// BenchmarkCandidate measures one Unit Time Separator trial: the lift,
// centerpoint, conformal map, and projection. Constant in n except for
// the O(n) quality evaluation, which FindGood performs separately.
func BenchmarkCandidate(b *testing.B) {
	for _, d := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			pts := pointgen.MustGenerate(pointgen.UniformCube, 1<<14, d, xrand.New(1))
			g := xrand.New(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := candidate(pts, g, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCandidateCentroid is the ablation: the cheap centroid in place
// of the Radon-tournament centerpoint.
func BenchmarkCandidateCentroid(b *testing.B) {
	pts := pointgen.MustGenerate(pointgen.UniformCube, 1<<14, 2, xrand.New(1))
	g := xrand.New(2)
	opts := &Options{Centroid: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := candidate(pts, g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	pts := pointgen.MustGenerate(pointgen.UniformCube, 1<<16, 3, xrand.New(3))
	g := xrand.New(4)
	sep, err := candidate(pts, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(sep, pts)
	}
}

func BenchmarkMedianHyperplane(b *testing.B) {
	pts := pointgen.MustGenerate(pointgen.UniformCube, 1<<16, 3, xrand.New(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MedianHyperplane(pts); err != nil {
			b.Fatal(err)
		}
	}
}
