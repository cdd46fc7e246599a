// Command perfbench is the repository benchmark: it drives the system's
// public entry points under four named workloads, checks every answer,
// and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 15 --trace 0
//
// run.sh builds this command and cmd/knnserve from the tree under test
// (everything it writes stays under .bench_build) and then runs it with
// the given arguments. Workloads:
//
//	build       closed loop, one caller: BuildKNNGraph (Sphere) on
//	            n=10^5 uniform-cube points, d=3, k=4, new build seed per op
//	query       closed loop, one caller: 512-query Batcher passes over an
//	            n=10^5, d=2, k=4 QueryStructure with the serving telemetry
//	            stack (ServeObserver + QueryJournal) attached
//	serve       open loop: Poisson arrivals at 200 req/s over at most two
//	            keep-alive connections to knnserve -n 20000 -d 2 -k 4
//	serve-swap  serve plus a POST /swap every 2 s
//
// With --trace 0 the last line of standard output is one JSON object
// holding the end-to-end metrics of BENCHMARK.json; with --trace 1 it holds
// the per-layer metrics. Every line before it is a human-readable report
// that also carries the metrics the result line leaves out (p99_ms,
// build_s, build_alloc_mb, swap_s, slo_miss_rate, error_rate) and the run's
// provenance. A wrong answer makes the command exit 1 after printing its
// result.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sepdc"
)

// maxRunTime bounds one invocation: a run that overshoots it is killed
// (with its knnserve) and exits non-zero rather than hang its caller.
const maxRunTime = 170 * time.Second

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	knnserve string // path of the knnserve binary under test
	tiny     bool   // self-test scale: every size shrunk, same code paths
	corrupt  bool   // self-test: flip one expected answer
}

// bench is one workload after set-up: run measures it for dur and
// returns the segment's metrics.
type bench interface {
	run(dur time.Duration, traced bool) (*segment, error)
	peakRSSMB() (float64, error)
	close()
}

// workload names a bench constructor.
type workload struct {
	name  string
	setup func(cfg *config) (bench, error)
}

var workloads = []workload{
	{"build", setupBuild},
	{"query", setupQuery},
	{"serve", func(cfg *config) (bench, error) { return setupServe(cfg, false) }},
	{"serve-swap", func(cfg *config) (bench, error) { return setupServe(cfg, true) }},
}

// endToEnd is the JSON result's metric set with --trace 0, in
// BENCHMARK.json order: the metrics every workload has whose run-to-run
// spread fits a regression bound. qps and p99_ms stay in the report: on a
// small shared host, contention from other tenants moves the mean and the
// tail of op times by more than any bound allows (README.md).
var endToEnd = []string{"setup_s", "p50_ms", "peak_rss_mb"}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	installReaper()
	code, err := runMain(cfg)
	stopAllServers()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "build | query | serve | serve-swap")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every input derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics (traced run)")
	fs.StringVar(&cfg.knnserve, "knnserve", "", "knnserve binary built from the tree under test (serve workloads)")
	fs.BoolVar(&cfg.tiny, "tiny", false, "self-test scale: tiny inputs, same code paths")
	fs.BoolVar(&cfg.corrupt, "selftest-corrupt", false, "self-test: corrupt one expected answer (must fail the run)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.traced = trace == 1
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if findWorkload(cfg.workload) == nil {
		return nil, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	return cfg, nil
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// installReaper stops knnserve on SIGINT/SIGTERM and on overrunning
// maxRunTime, so no exit path leaves a server behind.
func installReaper() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
		case <-time.After(maxRunTime):
			fmt.Fprintln(os.Stderr, "perfbench: run exceeded", maxRunTime)
		}
		stopAllServers()
		os.Exit(3)
	}()
}

// An untraced run sets up at least minSetups times, and more (up to
// maxSetups) while less than setupBudget has passed; setup_s is the
// median.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 5 * time.Second
)

func runMain(cfg *config) (int, error) {
	prov, err := provenance(cfg)
	if err != nil {
		return 1, err
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced)
	for _, kv := range prov {
		fmt.Fprintf(out, "# provenance %s=%s\n", kv[0], kv[1])
	}

	w := findWorkload(cfg.workload)
	minReps, maxReps := minSetups, maxSetups
	if cfg.traced {
		minReps, maxReps = 1, 1 // setup_s is an end-to-end metric; the traced run skips the repeats
	}
	var setupTimes []float64
	var b bench
	for r := 0; r < minReps || (r < maxReps && sum(setupTimes) < setupBudget.Seconds()); r++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		b, err = w.setup(cfg)
		if err != nil {
			return 1, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer b.close()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	res := result{Metrics: map[string]metric{}}
	var wrong int64
	if !cfg.traced {
		seg, err := b.run(dur, false)
		if err != nil {
			return 1, err
		}
		rss, err := b.peakRSSMB()
		if err != nil {
			return 1, fmt.Errorf("peak RSS: %w", err)
		}
		seg.e2e.set("setup_s", median(setupTimes), "s")
		seg.e2e.set("peak_rss_mb", rss, "MB")
		seg.e2e.set("error_rate", seg.errorRate(), "ratio")
		seg.print(out, cfg.workload, "end-to-end")
		for _, name := range endToEnd {
			m, ok := seg.e2e.m[name]
			if !ok {
				return 1, fmt.Errorf("workload %s produced no %s", cfg.workload, name)
			}
			res.Metrics[name] = m
		}
		res.Attempted, res.Failed = seg.attempted, seg.failed+seg.wrong
		wrong = seg.wrong
	} else {
		// Half the time untraced, half traced, over the same inputs: the
		// difference is the tracing overhead, reported against the
		// untraced half.
		plain, err := b.run(dur/2, false)
		if err != nil {
			return 1, err
		}
		traced, err := b.run(dur/2, true)
		if err != nil {
			return 1, err
		}
		plain.e2e.set("error_rate", plain.errorRate(), "ratio")
		traced.e2e.set("error_rate", traced.errorRate(), "ratio")
		plain.print(out, cfg.workload, "untraced")
		traced.print(out, cfg.workload, "traced")
		layers := traced.layers
		printOverhead(out, cfg.workload, plain.e2e, traced.e2e)
		layers.set("trace.p50_overhead_pct", pctDelta(traced.e2e.get("p50_ms"), plain.e2e.get("p50_ms")), "%")
		layers.set("trace.qps_overhead_pct", -pctDelta(traced.e2e.get("qps"), plain.e2e.get("qps")), "%")
		b.close() // frees the workload for the probes; the deferred close is then a no-op
		// Layers this workload does not exercise come from short probe
		// runs of the workloads that do, so every traced run reports
		// every layer.
		probes, err := probeOtherLayers(cfg, layers, out)
		if err != nil {
			return 1, err
		}
		for _, name := range perLayer {
			m, ok := layers.m[name]
			if !ok {
				return 1, fmt.Errorf("traced %s run produced no %s", cfg.workload, name)
			}
			res.Metrics[name] = m
		}
		layers.printOnly(out, cfg.workload, "per-layer", perLayer)
		for _, s := range []*segment{plain, traced, probes} {
			res.Attempted += s.attempted
			res.Failed += s.failed + s.wrong
			wrong += s.wrong
		}
	}
	res.Correct = wrong == 0
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(line))
	if err := out.Flush(); err != nil {
		return 1, err
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers\n", wrong)
		return 1, nil
	}
	return 0, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an insertion-ordered set of named metrics.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // JSON has no NaN; an empty sample reads 0
	}
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

func (s *metricSet) get(name string) float64 { return s.m[name].Value }

// merge copies every metric of o whose name is not yet in s.
func (s *metricSet) merge(o *metricSet) {
	for _, n := range o.names {
		if _, ok := s.m[n]; !ok {
			s.set(n, o.m[n].Value, o.m[n].Unit)
		}
	}
}

func (s *metricSet) printOnly(w *bufio.Writer, workload, kind string, names []string) {
	for _, n := range names {
		m := s.m[n]
		fmt.Fprintf(w, "%-10s %-10s %-32s %14.6g %s\n", workload, kind, n, m.Value, m.Unit)
	}
}

// segment is one measured stretch of a workload.
type segment struct {
	attempted int64 // ops attempted (builds, passes, requests)
	failed    int64 // ops that failed or were refused
	wrong     int64 // ops answered with a wrong answer
	e2e       *metricSet
	layers    *metricSet
}

func newSegment() *segment {
	return &segment{e2e: newMetricSet(), layers: newMetricSet()}
}

func (s *segment) errorRate() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed+s.wrong) / float64(s.attempted)
}

// print writes the segment's op counts and end-to-end metrics.
func (s *segment) print(w *bufio.Writer, workload, kind string) {
	fmt.Fprintf(w, "%-10s %-10s %-32s %14d ops (%d failed, %d wrong)\n", workload, kind, "attempted", s.attempted, s.failed, s.wrong)
	s.e2e.printOnly(w, workload, kind, s.e2e.names)
}

// printOverhead prints traced minus untraced for every end-to-end metric
// both segments report, relative to the untraced value.
func printOverhead(w *bufio.Writer, workload string, plain, traced *metricSet) {
	for _, n := range plain.names {
		t, ok := traced.m[n]
		if !ok {
			continue
		}
		p := plain.m[n]
		fmt.Fprintf(w, "%-10s %-10s %-32s %14.6g %s (%+.2f%% of untraced)\n", workload, "overhead", n, t.Value-p.Value, p.Unit, pctDelta(t.Value, p.Value))
	}
}

func pctDelta(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (v - base) / base
}

// provenance describes where a result came from.
func provenance(cfg *config) ([][2]string, error) {
	nproc := runtime.NumCPU()
	procs := runtime.GOMAXPROCS(0)
	if procs > nproc {
		return nil, fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d: the record would measure oversubscription", procs, nproc)
	}
	if c := serveConns(); c > nproc {
		return nil, fmt.Errorf("%d client connections exceed nproc=%d", c, nproc)
	}
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	tier, feats := sepdc.KernelInfo()
	serverProcs := "n/a"
	if strings.HasPrefix(cfg.workload, "serve") || cfg.traced {
		// knnserve inherits this environment and CPU set, so the Go
		// runtime resolves the same GOMAXPROCS in it.
		serverProcs = strconv.Itoa(childGOMAXPROCS())
	}
	return [][2]string{
		{"commit", commit},
		{"dirty", dirty},
		{"nproc", strconv.Itoa(nproc)},
		{"gomaxprocs_bench", strconv.Itoa(procs)},
		{"gomaxprocs_knnserve", serverProcs},
		{"client_conns", strconv.Itoa(serveConns())},
		{"cpu_model", cpuModel()},
		{"kernel_tier", tier},
		{"cpu_features", feats},
		{"go_version", runtime.Version()},
		{"workload_seed", strconv.FormatUint(cfg.seed, 10)},
	}, nil
}

// childGOMAXPROCS is the GOMAXPROCS a Go child started with this
// process's environment resolves: $GOMAXPROCS when valid, else the CPU
// count.
func childGOMAXPROCS() int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	return runtime.NumCPU()
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vmHWMMB reads a process's peak resident set size from /proc.
func vmHWMMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// ---- order statistics ----

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func equalRow(got []int, want []int32) bool {
	if len(got) != len(want) {
		return false
	}
	for i, v := range got {
		if int32(v) != want[i] {
			return false
		}
	}
	return true
}
