package septree

import (
	"fmt"
	"testing"

	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/vm"
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

// BenchmarkBuild times one build of n = 2^16 balls (d = 2, k = 4) on
// the sequential machine and on GOMAXPROCS workers; run it at -cpu 1,2
// to see the fork-join's gain and its cost on one core.
func BenchmarkBuild(b *testing.B) {
	g := xrand.New(5)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformBall, 1<<16, 2, g))
	sys := nbrsys.KNeighborhood(pts, 4)
	for _, c := range []struct {
		name string
		m    func() *vm.Machine
	}{{"seq", vm.Sequential}, {"par", func() *vm.Machine { return vm.NewMachine(0) }}} {
		b.Run(c.name, func(b *testing.B) {
			m := c.m()
			defer m.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(sys, g.Split(), &Options{Machine: m}); err != nil {
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
