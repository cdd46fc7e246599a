// Command knnbench runs the BuildKNNGraph benchmark grid (the same
// algorithm × n × d × k grid as BenchmarkBuildKNNGraph in bench_test.go)
// and writes a machine-readable BENCH_knn.json next to the repo root.
//
// The emitted file also carries the recorded baseline of the pre-flat-storage
// seed (commit 267ddc0), measured back-to-back with the current code on the
// same machine, so the performance claim is auditable:
//
//	go run ./cmd/knnbench -out BENCH_knn.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"sepdc"
	"sepdc/internal/benchfile"
	"sepdc/internal/obs"
	"sepdc/internal/pointgen"
	"sepdc/internal/xrand"
)

// Result is one grid cell's measurement. Observed is filled from one extra
// non-timed instrumented run for the divide-and-conquer algorithms: per-
// phase wall times (divide/recurse/correct/base), the deterministic trial/
// punt counters, and the march/crossing-ball histograms.
type Result struct {
	Algorithm    string           `json:"algorithm"`
	Procs        int              `json:"procs"` // GOMAXPROCS and Options.Workers for the run
	N            int              `json:"n"`
	D            int              `json:"d"`
	K            int              `json:"k"`
	Iterations   int              `json:"iterations"`
	NsPerOp      int64            `json:"ns_per_op"`
	AllocsPerOp  int64            `json:"allocs_per_op"`
	BytesPerOp   int64            `json:"bytes_per_op"`
	PointsPerSec float64          `json:"points_per_sec"`
	Observed     *obs.BuildReport `json:"observed,omitempty"`
}

// captureEnv gathers the environment header: toolchain, CPU shape, the CPU
// model from /proc/cpuinfo (Linux; absent elsewhere), and the git commit
// from build info (module builds) or the working tree (go run).
func captureEnv() benchfile.Env {
	env := benchfile.Env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.GitCommit = s.Value
				break
			}
		}
	}
	if env.GitCommit == "" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.GitCommit = strings.TrimSpace(string(out))
		}
	}
	env.KernelTier, env.CPUFeatures = sepdc.KernelInfo()
	return env
}

// baseline holds the seed measurements (commit 267ddc0, `go test -bench
// 'BuildKNNGraph/algo=sphere/n=10000/d=2/k=4' -benchtime 15x`) taken in the
// same session as the current-code numbers recorded in Results. They are
// static by design: the seed tree no longer exists in the working copy.
var baseline = []Result{
	{Algorithm: "sphere", Procs: 1, N: 10000, D: 2, K: 4, Iterations: 15,
		NsPerOp: 119861240, AllocsPerOp: 1224674, BytesPerOp: 73158294, PointsPerSec: 83430},
	{Algorithm: "kdtree", Procs: 1, N: 10000, D: 2, K: 4, Iterations: 10,
		NsPerOp: 28914015, AllocsPerOp: 92500, BytesPerOp: 14748935, PointsPerSec: 345853},
}

type cfg struct {
	algo    sepdc.Algorithm
	n, d, k int
}

var grid = []cfg{
	{sepdc.Sphere, 1 << 13, 2, 4},
	{sepdc.Sphere, 10000, 2, 4},
	{sepdc.Sphere, 10000, 3, 4},
	{sepdc.Hyperplane, 10000, 2, 4},
	{sepdc.KDTree, 10000, 2, 4},
	{sepdc.Brute, 2048, 2, 4},
}

func measure(c cfg, iters, procs int) (Result, error) {
	// Same generator and seed recipe as bench_test.go, so `go test -bench
	// BuildKNNGraph` and knnbench report the same workload.
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, c.n, c.d, xrand.New(uint64(c.n*31+c.d))))
	points := make([][]float64, len(pts))
	for i, p := range pts {
		points[i] = p
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	opts := &sepdc.Options{Algorithm: c.algo, Seed: 42, Workers: procs}
	run := func() error {
		_, err := sepdc.BuildKNNGraph(points, c.k, opts)
		return err
	}
	// Warm up pools and the allocator once before measuring.
	if err := run(); err != nil {
		return Result{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := run(); err != nil {
			return Result{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	res := Result{
		Algorithm:    string(c.algo),
		Procs:        procs,
		N:            len(points),
		D:            c.d,
		K:            c.k,
		Iterations:   iters,
		NsPerOp:      elapsed.Nanoseconds() / int64(iters),
		AllocsPerOp:  int64(after.Mallocs-before.Mallocs) / int64(iters),
		BytesPerOp:   int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		PointsPerSec: float64(len(points)) * float64(iters) / elapsed.Seconds(),
	}
	// One extra observed (non-timed) run for the divide-and-conquer
	// algorithms: per-phase wall times and the paper-quantity counters and
	// histograms, kept out of the measured loop so the instrumentation
	// cannot color the ns/op numbers.
	if c.algo == sepdc.Sphere || c.algo == sepdc.Hyperplane {
		obsOpts := *opts
		obsOpts.Observe = true
		g, err := sepdc.BuildKNNGraph(points, c.k, &obsOpts)
		if err != nil {
			return Result{}, err
		}
		res.Observed = g.Stats().Report
	}
	return res, nil
}

// remeasureObs re-runs only the obs_overhead and journal sections and
// merges them into the existing report at path, preserving every other
// section verbatim. The note records the partial regeneration.
func remeasureObs(path string, queries, queryIters int) error {
	if path == "-" {
		return fmt.Errorf("-only obs needs a real -out file to merge into")
	}
	return benchfile.Update(path, true, func(rep *benchfile.Report) error {
		or, err := runObsBench(queries, queryIters)
		if err != nil {
			return fmt.Errorf("obs bench: %w", err)
		}
		jb, err := runJournalBench(queries, 50)
		if err != nil {
			return fmt.Errorf("journal bench: %w", err)
		}
		if rep.Obs, err = json.Marshal(or); err != nil {
			return err
		}
		if rep.Journal, err = json.Marshal(jb); err != nil {
			return err
		}
		rep.Generated = time.Now().UTC().Format(time.RFC3339)
		if !strings.Contains(rep.Note, "obs_overhead+journal remeasured") {
			rep.Note += "; obs_overhead+journal remeasured via -only obs (other sections predate it)"
		}
		return nil
	})
}

// remeasureKernels re-runs only the kernels section and merges it into
// the existing report at path, refreshing the env header (the kernel
// columns are meaningless without knowing which tier and CPU produced
// them). Every other section is preserved verbatim.
func remeasureKernels(path string, dims []int) error {
	if path == "-" {
		return fmt.Errorf("-only kernels needs a real -out file to merge into")
	}
	if len(dims) == 0 {
		return fmt.Errorf("-only kernels with the section disabled (-dims 0) measures nothing")
	}
	return benchfile.Update(path, true, func(rep *benchfile.Report) error {
		var err error
		if rep.Kernels, err = json.Marshal(runKernelBench(dims)); err != nil {
			return err
		}
		rep.Env = captureEnv()
		rep.Generated = time.Now().UTC().Format(time.RFC3339)
		if !strings.Contains(rep.Note, "kernels remeasured") {
			rep.Note += "; kernels remeasured via -only kernels (other sections predate it)"
		}
		return nil
	})
}

func main() {
	out := flag.String("out", "BENCH_knn.json", "output file (- for stdout)")
	iters := flag.Int("iters", 15, "measured iterations per grid cell")
	queries := flag.Int("queries", 4096, "queries per serving-benchmark pass (0 disables the query section)")
	queryIters := flag.Int("query-iters", 20, "measured passes per query-serving cell")
	procsFlag := flag.String("procs", "", "comma-separated GOMAXPROCS sweep for the build grid and batch strands (default \"1,4,NumCPU\" deduplicated)")
	dimsFlag := flag.String("dims", "", "comma-separated dimension sweep for the kernels section (default \"2,3,4,5,6,7,8\"; empty string keeps the default, \"0\" disables the section)")
	only := flag.String("only", "", "re-measure only the named section and merge into the existing -out file (\"obs\" = obs_overhead + journal, \"kernels\" = kernels); other sections are preserved verbatim")
	flag.Parse()

	procs, err := parseProcs(*procsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "knnbench:", err)
		os.Exit(1)
	}
	dims, err := parseDims(*dimsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "knnbench:", err)
		os.Exit(1)
	}

	// The -only modes re-measure one section against the committed record
	// without paying for a full-grid regeneration (hours on small hosts).
	switch *only {
	case "":
		err = benchfile.Update(*out, false, func(rep *benchfile.Report) error {
			return measureAll(rep, *iters, *queries, *queryIters, procs, dims)
		})
	case "obs":
		err = remeasureObs(*out, *queries, *queryIters)
	case "kernels":
		err = remeasureKernels(*out, dims)
	default:
		err = fmt.Errorf("unknown -only section %q (want \"obs\" or \"kernels\")", *only)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "knnbench:", err)
		os.Exit(1)
	}
}

// measureAll is the full regeneration: the header, the build grid and,
// unless disabled by -queries 0 or -dims 0, the serving and kernel
// sections. Sections it does not measure keep their recorded values.
func measureAll(rep *benchfile.Report, iters, queries, queryIters int, procs, dims []int) error {
	rep.Generated = time.Now().UTC().Format(time.RFC3339)
	rep.GoVersion = runtime.Version()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Env = captureEnv()
	rep.Note = "baseline = seed commit 267ddc0 (pre flat-storage), measured back-to-back " +
		"with results on the same machine; grid matches BenchmarkBuildKNNGraph, each " +
		"cell swept over -procs (GOMAXPROCS + Options.Workers pinned together); " +
		"observed = one extra instrumented (Observe: true) run per DNC cell, not timed; " +
		"query = covering-ball serving over one structure per cell — frozen " +
		"sequential, batch engine swept over procs 1/4/NumCPU with GOMAXPROCS pinned; " +
		"query ns/query and qps are the fastest of query-iters identically-sized timed " +
		"passes taken round-robin across modes (interleaved minimum: noise-robust on " +
		"shared hosts and immune to multi-second skew, same work per pass in every mode); " +
		"obs_overhead = the same interleaved-minimum protocol comparing a nil-observer " +
		"batch engine against one feeding a ServeRecorder at the production sampling " +
		"default and one additionally publishing every query to the wide-event journal, " +
		"on the largest query cells (acceptance budget: <=5% throughput, 0 allocs); " +
		"journal = drain throughput with a concurrent consumer and ring-overwrite rate " +
		"with none, over a deliberately small 1024-event ring; " +
		"kernels = per-dimension distance-kernel micro-bench (generic fallback vs unrolled vs " +
		"four-point vs the AVX2 assembly batch forms where the CPU supports them, each captured " +
		"under an explicitly pinned dispatch tier, interleaved minimum over identical operand " +
		"streams; asm_speedup is best-asm-form vs the unrolled four-point kernel); " +
		"layout = recorded baseline of a retired configuration (breadth-first layout + generic " +
		"kernels vs pair-blocked layout + query-blocked scans), no longer measured, carried " +
		"forward verbatim; serve = knnload's section (make bench-serve), carried forward verbatim"
	var err error
	if rep.Baseline, err = json.Marshal(baseline); err != nil {
		return err
	}
	var results []Result
	for _, c := range grid {
		for _, p := range procs {
			r, err := measure(c, iters, p)
			if err != nil {
				return fmt.Errorf("%s n=%d d=%d k=%d procs=%d: %w", c.algo, c.n, c.d, c.k, p, err)
			}
			fmt.Fprintf(os.Stderr, "%-10s procs=%-2d n=%-6d d=%d k=%d  %12d ns/op  %9d allocs/op  %9.0f points/sec\n",
				r.Algorithm, r.Procs, r.N, r.D, r.K, r.NsPerOp, r.AllocsPerOp, r.PointsPerSec)
			results = append(results, r)
		}
	}
	if rep.Results, err = json.Marshal(results); err != nil {
		return err
	}
	if queries > 0 {
		qr, err := runQueryBench(queries, queryIters, procs)
		if err != nil {
			return fmt.Errorf("query bench: %w", err)
		}
		or, err := runObsBench(queries, queryIters)
		if err != nil {
			return fmt.Errorf("obs bench: %w", err)
		}
		jb, err := runJournalBench(queries, 50)
		if err != nil {
			return fmt.Errorf("journal bench: %w", err)
		}
		if rep.Query, err = json.Marshal(qr); err != nil {
			return err
		}
		if rep.Obs, err = json.Marshal(or); err != nil {
			return err
		}
		if rep.Journal, err = json.Marshal(jb); err != nil {
			return err
		}
	}
	if len(dims) > 0 {
		if rep.Kernels, err = json.Marshal(runKernelBench(dims)); err != nil {
			return err
		}
	}
	return nil
}
