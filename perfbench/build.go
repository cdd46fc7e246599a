package main

import (
	"fmt"
	"runtime"
	"time"

	"sepdc"
	"sepdc/internal/kdtree"
	"sepdc/internal/knngraph"
	"sepdc/internal/pointgen"
	"sepdc/internal/pts"
	"sepdc/internal/separator"
	"sepdc/internal/topk"
	"sepdc/internal/xrand"
)

const buildK = 4

// buildBench repeats BuildKNNGraph (Sphere, default workers) on one
// uniform-cube point set at d=3, where both the correction (march and
// punts into septree builds) and the divide (separator trials) carry
// large shares of the time.
type buildBench struct {
	seed   uint64
	points [][]float64
	ps     *pts.PointSet
	ref    *sepdc.Graph // KDTree reference: the graph is seed-independent
	lists  []*topk.List // k-NN lists for the knngraph timing (traced runs)
}

func buildN(cfg *config) int {
	if cfg.tiny {
		return 3000
	}
	return 100000
}

func setupBuild(cfg *config) (bench, error) {
	return newBuildBench(cfg.seed, buildN(cfg), cfg.corrupt)
}

func newBuildBench(seed uint64, n int, corrupt bool) (*buildBench, error) {
	points := rows(pointgen.MustGenerate(pointgen.UniformCube, n, 3, xrand.New(seed)))
	refPoints := points
	if corrupt {
		// Move one point far away in the reference input only: its
		// neighbor lists change, so every build must mismatch.
		refPoints = append([][]float64(nil), points...)
		refPoints[0] = []float64{10, 10, 10}
	}
	ref, err := sepdc.BuildKNNGraph(refPoints, buildK, &sepdc.Options{Algorithm: sepdc.KDTree})
	if err != nil {
		return nil, fmt.Errorf("reference graph: %w", err)
	}
	ps, err := pts.FromSlices(points)
	if err != nil {
		return nil, err
	}
	return &buildBench{seed: seed, points: points, ps: ps, ref: ref}, nil
}

func (b *buildBench) peakRSSMB() (float64, error) { return vmHWMMB("self") }
func (b *buildBench) close()                      {}

func (b *buildBench) run(dur time.Duration, traced bool) (*segment, error) {
	seg := newSegment()
	var ms, times, allocs []float64
	var stats []sepdc.Stats
	var mem runtime.MemStats
	start := time.Now()
	for i := 0; len(ms) == 0 || time.Since(start) < dur; i++ {
		// A new build seed per op, fixed by the workload seed, so the
		// i-th build of a segment is the same build on every run.
		opts := &sepdc.Options{Seed: b.seed<<20 | uint64(i), Observe: traced}
		runtime.ReadMemStats(&mem)
		a0 := mem.TotalAlloc
		t0 := time.Now()
		g, err := sepdc.BuildKNNGraph(b.points, buildK, opts)
		dt := time.Since(t0)
		runtime.ReadMemStats(&mem)
		seg.attempted++
		if err != nil {
			seg.failed++
			continue
		}
		if !sepdc.Equal(g, b.ref) {
			seg.wrong++
		}
		ms = append(ms, dt.Seconds()*1e3)
		times = append(times, dt.Seconds())
		allocs = append(allocs, float64(mem.TotalAlloc-a0)/(1<<20))
		if traced {
			stats = append(stats, g.Stats())
		}
	}
	ok := float64(seg.attempted - seg.failed - seg.wrong)
	seg.e2e.set("p50_ms", median(ms), "ms")
	seg.e2e.set("p99_ms", quantile(ms, 0.99), "ms")
	seg.e2e.set("qps", ok*float64(len(b.points))/sum(times), "1/s")
	seg.e2e.set("build_s", median(times), "s")
	seg.e2e.set("build_alloc_mb", median(allocs), "MB")
	if traced {
		if err := b.layers(seg.layers, stats); err != nil {
			return nil, err
		}
	}
	return seg, nil
}

// layers derives the build-side layer metrics: phase times are medians
// over the traced builds; counts come from the segment's first build,
// whose seed is fixed, so they repeat exactly run to run.
func (b *buildBench) layers(l *metricSet, stats []sepdc.Stats) error {
	phase := func(name string) float64 {
		var xs []float64
		for _, s := range stats {
			xs = append(xs, s.Report.PhaseSeconds(name)*1e3)
		}
		return median(xs)
	}
	l.set("core.divide_ms", phase("divide"), "ms")
	l.set("core.correct_ms", phase("correct"), "ms")
	l.set("core.base_ms", phase("base"), "ms")
	l.set("core.recurse_ms", phase("recurse"), "ms")

	first := stats[0]
	c := first.Report.Counter
	l.set("core.threshold_punts", float64(c("threshold_punts")), "count")
	l.set("core.query_corrections", float64(c("query_corrections")), "count")
	l.set("separator.trials", float64(c("separator_trials")), "count")
	l.set("separator.nodes_per_trial", ratio(c("nodes"), c("separator_trials")), "ratio")
	l.set("march.fast_corrections", float64(c("fast_corrections")), "count")
	l.set("march.aborts", float64(c("march_aborts")), "count")
	l.set("march.success_ratio", ratio(c("fast_corrections"), c("fast_corrections")+c("query_corrections")), "ratio")
	l.set("septree.punt_builds", float64(c("septree_builds")), "count")
	l.set("septree.punt_stored_balls", float64(c("septree_stored_balls")), "count")
	l.set("brute.base_cases", float64(c("base_cases")), "count")
	l.set("vm.sim_steps", float64(first.SimulatedSteps), "count")
	l.set("vm.sim_work", float64(first.SimulatedWork), "count")

	// The root separator search on the full set, repeated for a median.
	var find []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := separator.FindGoodFlat(b.ps, xrand.New(b.seed+uint64(i)), nil); err != nil {
			return fmt.Errorf("separator.FindGoodFlat: %w", err)
		}
		find = append(find, time.Since(t0).Seconds()*1e3)
	}
	l.set("separator.root_find_ms", median(find), "ms")

	if b.lists == nil {
		b.lists = kdtree.BuildFlat(b.ps, kdtree.DefaultLeafSize).AllKNN(buildK)
	}
	var fl []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		knngraph.FromLists(b.lists, buildK)
		fl = append(fl, time.Since(t0).Seconds()*1e3)
	}
	l.set("knngraph.from_lists_ms", median(fl), "ms")
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
