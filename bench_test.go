// Benchmarks regenerating the paper-claim experiments (one per entry in
// DESIGN.md §2). The paper has no measured tables, so each benchmark
// targets the operation whose complexity the corresponding theorem bounds;
// custom metrics report the simulated vector-model quantities next to
// wall-clock time.
//
//	go test -bench=. -benchmem
package sepdc

import (
	"fmt"
	"testing"

	"sepdc/internal/brute"
	"sepdc/internal/core"
	"sepdc/internal/kdtree"
	"sepdc/internal/march"
	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/punt"
	"sepdc/internal/separator"
	"sepdc/internal/septree"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

func benchPoints(b *testing.B, n, d int, dist pointgen.Dist) []vec.Vec {
	b.Helper()
	return pointgen.Dedup(pointgen.MustGenerate(dist, n, d, xrand.New(uint64(n*31+d))))
}

// BenchmarkSeparatorFind (E1): one Unit Time Separator search, per n and d.
func BenchmarkSeparatorFind(b *testing.B) {
	for _, d := range []int{2, 3} {
		for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
			b.Run(fmt.Sprintf("d=%d/n=%d", d, n), func(b *testing.B) {
				pts := benchPoints(b, n, d, pointgen.UniformCube)
				g := xrand.New(1)
				b.ResetTimer()
				trials := 0
				for i := 0; i < b.N; i++ {
					res, err := separator.FindGood(pts, g.Split(), nil)
					if err != nil {
						b.Fatal(err)
					}
					trials += res.Trials
				}
				b.ReportMetric(float64(trials)/float64(b.N), "trials/op")
			})
		}
	}
}

// BenchmarkQueryStructureBuild (E2/E3): constructing the Section-3 search
// structure over a k-neighborhood system.
func BenchmarkQueryStructureBuild(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := benchPoints(b, n, 2, pointgen.UniformBall)
			sys := nbrsys.KNeighborhood(pts, 2)
			g := xrand.New(2)
			b.ResetTimer()
			var steps int64
			for i := 0; i < b.N; i++ {
				tree, err := septree.Build(sys, g.Split(), nil)
				if err != nil {
					b.Fatal(err)
				}
				steps += tree.Stats().Cost.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "simSteps/op")
		})
	}
}

// BenchmarkQueryPoint (E2): one covering-balls query against the built
// structure — the O(k + log n) operation of Lemma 3.1.
func BenchmarkQueryPoint(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := benchPoints(b, n, 2, pointgen.UniformBall)
			sys := nbrsys.KNeighborhood(pts, 2)
			tree, err := septree.Build(sys, xrand.New(3), nil)
			if err != nil {
				b.Fatal(err)
			}
			g := xrand.New(4)
			var out []int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _, _ = tree.Covering(pts[g.IntN(len(pts))], out[:0])
			}
		})
	}
}

// BenchmarkPuntingTree (E4): simulating RD(n) of one probabilistic
// (0, log m)-tree.
func BenchmarkPuntingTree(b *testing.B) {
	for _, levels := range []int{10, 14} {
		b.Run(fmt.Sprintf("levels=%d", levels), func(b *testing.B) {
			g := xrand.New(5)
			spec := punt.ZeroLog()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				punt.MaxWeightedDepth(levels, spec, g)
			}
		})
	}
}

// BenchmarkCrossing (E5): counting crossing balls for a sphere separator
// versus the two hyperplane rules on the adversarial line input.
func BenchmarkCrossing(b *testing.B) {
	pts := benchPoints(b, 1<<14, 2, pointgen.LineNoise)
	sys := nbrsys.KNeighborhood(pts, 2)
	res, err := separator.FindGood(pts, xrand.New(6), nil)
	if err != nil {
		b.Fatal(err)
	}
	hyper, err := separator.FixedHyperplane(pts, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sphere", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			total = sys.IntersectionNumber(res.Sep)
		}
		b.ReportMetric(float64(total), "crossing")
	})
	b.Run("fixed-hyperplane", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			total = sys.IntersectionNumber(hyper)
		}
		b.ReportMetric(float64(total), "crossing")
	})
}

// BenchmarkSimpleDNC (E6): the Section-5 O(log² n) baseline end to end.
func BenchmarkSimpleDNC(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := benchPoints(b, n, 2, pointgen.UniformCube)
			g := xrand.New(7)
			b.ResetTimer()
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := core.HyperplaneDNC(pts, g.Split(), &core.Options{K: 1})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Stats.Cost.Steps
			}
			b.ReportMetric(float64(steps), "simSteps")
		})
	}
}

// BenchmarkSphereDNC (E7): the Section-6 O(log n) algorithm end to end.
func BenchmarkSphereDNC(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := benchPoints(b, n, 2, pointgen.UniformCube)
			g := xrand.New(8)
			b.ResetTimer()
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := core.SphereDNC(pts, g.Split(), &core.Options{K: 1})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Stats.Cost.Steps
			}
			b.ReportMetric(float64(steps), "simSteps")
		})
	}
}

// BenchmarkMarching (E8): one fast-correction march of k-NN-scale balls
// down a partition tree.
func BenchmarkMarching(b *testing.B) {
	pts := benchPoints(b, 1<<14, 2, pointgen.UniformCube)
	res, err := core.SphereDNC(pts, xrand.New(9), &core.Options{K: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := xrand.New(10)
	var balls []march.Ball
	for _, i := range g.Sample(len(pts), 128) {
		r2, full := res.Lists[i].Radius2()
		if full {
			balls = append(balls, march.NewBall(i, pts[i], r2))
		}
	}
	tree := res.Tree
	var sc march.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits, st := march.DownFlatChaos(tree, tree.Root, balls, 0, nil, nil, &sc)
		if st.Aborted || len(hits) == 0 {
			b.Fatal("march failed")
		}
	}
}

// BenchmarkReachability (E10): the Lemma 6.3 kernel — reachable leaves of
// one ball in a partition tree.
func BenchmarkReachability(b *testing.B) {
	pts := benchPoints(b, 1<<14, 2, pointgen.UniformCube)
	res, err := core.SphereDNC(pts, xrand.New(11), &core.Options{K: 1})
	if err != nil {
		b.Fatal(err)
	}
	r2, _ := res.Lists[0].Radius2()
	ball := march.NewBall(0, pts[0], r2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if leaves := march.ReachableLeavesScan(res.Tree, ball); len(leaves) == 0 {
			b.Fatal("no reachable leaves")
		}
	}
}

// BenchmarkKNN (E11): the end-to-end comparison, one sub-benchmark per
// algorithm at a common size.
func BenchmarkKNN(b *testing.B) {
	const n, d, k = 1 << 13, 3, 4
	pts := benchPoints(b, n, d, pointgen.UniformCube)
	b.Run("sphere", func(b *testing.B) {
		g := xrand.New(12)
		for i := 0; i < b.N; i++ {
			if _, err := core.SphereDNC(pts, g.Split(), &core.Options{K: k, Machine: vm.NewMachine(0)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hyperplane", func(b *testing.B) {
		g := xrand.New(13)
		for i := 0; i < b.N; i++ {
			if _, err := core.HyperplaneDNC(pts, g.Split(), &core.Options{K: k, Machine: vm.NewMachine(0)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kdtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kdtree.Build(pts).AllKNN(k)
		}
	})
	b.Run("brute-n1024", func(b *testing.B) {
		small := pts[:1024]
		for i := 0; i < b.N; i++ {
			brute.AllKNN(small, k)
		}
	})
}

// BenchmarkDensityPly (E12): computing the max ply of a k-neighborhood
// system (the Density Lemma's quantity).
func BenchmarkDensityPly(b *testing.B) {
	pts := benchPoints(b, 1<<13, 2, pointgen.Clustered)
	sys := nbrsys.KNeighborhood(pts, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sys.MaxPlyAtCenters() == 0 {
			b.Fatal("zero ply")
		}
	}
}

// BenchmarkBuildKNNGraph times the public entry point per algorithm × n ×
// d × k. The recorded build numbers come from perfbench's build workload
// (BENCH_knn.json's perfbench.build section), not from this grid.
func BenchmarkBuildKNNGraph(b *testing.B) {
	for _, cfg := range []struct {
		algo    Algorithm
		n, d, k int
	}{
		{Sphere, 1 << 13, 2, 4},
		{Sphere, 10000, 2, 4},
		{Sphere, 10000, 3, 4},
		{Hyperplane, 10000, 2, 4},
		{KDTree, 10000, 2, 4},
		{Brute, 2048, 2, 4},
	} {
		b.Run(fmt.Sprintf("algo=%s/n=%d/d=%d/k=%d", cfg.algo, cfg.n, cfg.d, cfg.k), func(b *testing.B) {
			pts := benchPoints(b, cfg.n, cfg.d, pointgen.UniformCube)
			points := make([][]float64, len(pts))
			for i, p := range pts {
				points[i] = p
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildKNNGraph(points, cfg.k, &Options{Algorithm: cfg.algo, Seed: 42}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(points))*float64(b.N)/b.Elapsed().Seconds(), "points/sec")
		})
	}
}

// BenchmarkCoveringBalls (E13): the covering-ball serving engines over one
// Section-3 structure — the flat tree queried one point at a time, and the
// batched zero-alloc engine at 1 and 4 strands. ns/op is per query for the
// sequential modes and per full batch pass for batch-N (which also reports a
// ns/query metric). `make bench-query` runs this table; CI diffs it against
// testdata/bench-query-baseline.txt with benchstat.
func BenchmarkCoveringBalls(b *testing.B) {
	const n, d, k, nq = 10000, 2, 4, 1024
	pts := benchPoints(b, n, d, pointgen.UniformCube)
	points := make([][]float64, len(pts))
	for i, p := range pts {
		points[i] = p
	}
	qs, err := NewQueryStructure(points, k, 42)
	if err != nil {
		b.Fatal(err)
	}
	g := xrand.New(99)
	queries := make([][]float64, nq)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = points[g.IntN(len(points))]
		} else {
			queries[i] = g.InCube(d)
		}
	}
	b.Run("frozen", func(b *testing.B) {
		var buf []int
		for i := 0; i < b.N; i++ {
			buf, _, _ = qs.frozen.Covering(queries[i%nq], buf[:0])
		}
		_ = buf
	})
	for _, strands := range []int{1, 4} {
		b.Run(fmt.Sprintf("batch-%d", strands), func(b *testing.B) {
			bt := qs.NewBatcher(strands)
			if err := bt.Run(queries); err != nil { // warm arenas off the clock
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bt.Run(queries); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nq, "ns/query")
		})
	}
}

// BenchmarkNewQueryStructure: the whole public set-up at n=2¹⁶, d=2, k=4
// — the k-neighborhood radii, then the separator tree. `make bench-query`
// runs it beside the serving engines it builds for.
func BenchmarkNewQueryStructure(b *testing.B) {
	pts := benchPoints(b, 1<<16, 2, pointgen.UniformCube)
	points := make([][]float64, len(pts))
	for i, p := range pts {
		points[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewQueryStructure(points, 4, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeighborsBatch: the batched adjacency accessor against the
// one-vertex-at-a-time loop it replaces.
func BenchmarkNeighborsBatch(b *testing.B) {
	pts := benchPoints(b, 10000, 2, pointgen.UniformCube)
	points := make([][]float64, len(pts))
	for i, p := range pts {
		points[i] = p
	}
	g, err := BuildKNNGraph(points, 4, &Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for v := 0; v < g.NumPoints(); v++ {
				if len(g.Neighbors(v)) == 0 {
					b.Fatal("empty list")
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := g.NeighborsBatch(nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != g.NumPoints() {
				b.Fatal("short batch")
			}
		}
	})
}

// BenchmarkPublicAPI: the documented entry point, as a user would call it.
func BenchmarkPublicAPI(b *testing.B) {
	pts := benchPoints(b, 1<<13, 2, pointgen.UniformCube)
	points := make([][]float64, len(pts))
	for i, p := range pts {
		points[i] = p
	}
	for i := 0; i < b.N; i++ {
		if _, err := BuildKNNGraph(points, 3, &Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
