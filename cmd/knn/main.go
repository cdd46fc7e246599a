// Command knn computes a k-nearest-neighbor graph and prints its summary,
// exercising the library's public API end to end:
//
//	knn -n 10000 -d 3 -k 4 -algo sphere -dist uniform-cube
//	knn -input points.txt -k 2 -algo hyperplane -out graph.txt
//	knn -n 50000 -k 4 -obs -trace build.json   # Chrome trace + phase report
//	knn -n 50000 -k 4 -debug-addr :8080        # /metrics + expvar + pprof
//	knn -n 5000 -d 3 -k 4 -audit               # paper-invariant audit table
//
// Input files hold one point per line, whitespace-separated coordinates.
// With -out, the graph is written as "i: j1 j2 j3 ..." adjacency lines.
// Open a -trace file in chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"sepdc"
	"sepdc/internal/obs"
	"sepdc/internal/obs/runtimeobs"
	"sepdc/internal/obs/slo"
	"sepdc/internal/pointgen"
	"sepdc/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "knn:", err)
		os.Exit(1)
	}
}

func run() error {
	n := flag.Int("n", 10000, "number of generated points (ignored with -input)")
	d := flag.Int("d", 2, "dimension of generated points")
	k := flag.Int("k", 2, "neighbors per point")
	algo := flag.String("algo", "sphere", "algorithm: sphere | hyperplane | kdtree | brute")
	dist := flag.String("dist", "uniform-cube", "generator distribution (see pointgen)")
	input := flag.String("input", "", "read points from file instead of generating")
	out := flag.String("out", "", "write adjacency lists to file")
	seed := flag.Uint64("seed", 42, "random seed")
	workers := flag.Int("workers", 0, "goroutine parallelism (0 = GOMAXPROCS)")
	observe := flag.Bool("obs", false, "collect and print the build's phase/counter report")
	trace := flag.String("trace", "", "write Chrome trace_event JSON of the build to file (implies -obs)")
	rnn := flag.Int("rnn", 0, "after the build, serve this many reverse-nearest-neighbor queries through the batched query structure and print serving stats")
	audit := flag.Bool("audit", false, "audit the paper's invariants (ι(S), split balance, depth, punt rate, space, query cost) over the uniform-ball, jittered-grid, and clustered generators at -n/-d/-k; exits nonzero on any violation")
	flightDir := flag.String("flight", "", "flight-recorder serve loop: serve batched queries at -n/-d/-k with the SLO engine live, capturing diagnostic bundles under this directory when the latency burn rate trips")
	flightLatency := flag.Duration("flight-latency", 25*time.Millisecond, "per-batch latency SLO objective for -flight")
	flightBatches := flag.Int("flight-batches", 200, "batches to serve in the -flight loop")
	verifyBundleDir := flag.String("verify-bundle", "", "validate a captured flight bundle directory and exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /statsz, /journal, expvar (/debug/vars) and pprof (/debug/pprof) on this address")
	debugHold := flag.Duration("debug-hold", 0, "keep the process (and -debug-addr server) alive this long after the build")
	timeout := flag.Duration("timeout", 0, "abandon the build after this long (0 = no limit)")
	flag.Parse()

	if *verifyBundleDir != "" {
		return verifyBundle(*verifyBundleDir)
	}

	// Say which distance-kernel tier dispatch resolved (and publish it
	// on /statsz), so a run can confirm the assembly kernels engaged.
	tier, cpu := sepdc.KernelInfo()
	obs.SetInfo("kernel_tier", tier)
	obs.SetInfo("cpu_features", cpu)
	fmt.Printf("kernels: tier=%s cpu=%s\n", tier, cpu)

	if *debugAddr != "" {
		obs.EnableGlobal()
		obs.PublishExpvar()
		// Runtime telemetry rides along on every scrape: GC pauses,
		// scheduler latency, heap, mutex wait as sepdc_runtime_* gauges.
		rt := runtimeobs.New().Start(5 * time.Second)
		defer rt.Close()
		mh := sepdc.MetricsHandler()
		http.Handle("/metrics", mh)
		http.Handle("/statsz", mh)
		http.Handle("/journal", mh)
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "knn: debug server:", err)
			}
		}()
		fmt.Printf("debug server: http://%s/metrics, /statsz, /journal, /debug/vars, /debug/pprof\n", *debugAddr)
	}

	if *flightDir != "" {
		err := runFlight(*flightDir, *n, *d, *k, *seed, *workers, *rnn, *flightBatches, *flightLatency)
		if *debugHold > 0 {
			fmt.Printf("holding for %v (debug endpoints stay up)...\n", *debugHold)
			time.Sleep(*debugHold)
		}
		return err
	}

	if *audit {
		err := runAudit(*n, *d, *k, *seed, *workers)
		if *debugHold > 0 {
			fmt.Printf("holding for %v (debug endpoints stay up)...\n", *debugHold)
			time.Sleep(*debugHold)
		}
		return err
	}

	var points [][]float64
	if *input != "" {
		var err error
		points, err = readPoints(*input)
		if err != nil {
			return err
		}
	} else {
		pts, err := pointgen.Generate(pointgen.Dist(*dist), *n, *d, xrand.New(*seed))
		if err != nil {
			return err
		}
		points = make([][]float64, len(pts))
		for i, p := range pts {
			points[i] = p
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	g, err := sepdc.BuildKNNGraphContext(ctx, points, *k, &sepdc.Options{
		Algorithm: sepdc.Algorithm(*algo),
		Seed:      *seed,
		Workers:   *workers,
		Observe:   *observe,
		Trace:     *trace != "",
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	_, comps := g.Components()
	fmt.Printf("points:       %d (d=%d)\n", g.NumPoints(), len(points[0]))
	fmt.Printf("k:            %d\n", g.K())
	fmt.Printf("algorithm:    %s\n", *algo)
	fmt.Printf("edges:        %d\n", g.NumEdges())
	fmt.Printf("components:   %d\n", comps)
	fmt.Printf("wall time:    %v\n", elapsed.Round(time.Microsecond))
	if st := g.Stats(); st.SimulatedSteps > 0 {
		fmt.Printf("sim steps:    %d (vector-model parallel time)\n", st.SimulatedSteps)
		fmt.Printf("sim work:     %d\n", st.SimulatedWork)
		fmt.Printf("sep trials:   %d\n", st.SeparatorTrials)
		fmt.Printf("fast corr:    %d, punts: %d\n", st.FastCorrections, st.Punts)
	}

	if rep := g.Stats().Report; rep != nil {
		if err := rep.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if *trace != "" {
		if err := writeTrace(*trace, g); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", *trace)
	}

	if *rnn > 0 {
		if err := serveRNN(points, *k, *seed, *rnn); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := writeGraph(*out, g); err != nil {
			return err
		}
		fmt.Printf("graph written to %s\n", *out)
	}
	if *debugHold > 0 {
		fmt.Printf("holding for %v (debug endpoints stay up)...\n", *debugHold)
		time.Sleep(*debugHold)
	}
	return nil
}

// serveRNN demos the Section-3 query structure: build it over the same
// points, then answer n reverse-nearest-neighbor queries ("whose
// k-neighborhood balls contain q?") through the zero-alloc batched engine.
// Queries mix stored points with fresh uniform points from the unit cube.
func serveRNN(points [][]float64, k int, seed uint64, n int) error {
	start := time.Now()
	qs, err := sepdc.NewQueryStructure(points, k, seed)
	if err != nil {
		return err
	}
	buildTime := time.Since(start)
	d := len(points[0])
	g := xrand.New(seed + 1)
	queries := make([][]float64, n)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = points[g.IntN(len(points))]
		} else {
			queries[i] = g.InCube(d)
		}
	}
	bt := qs.NewBatcher(0)
	if err := bt.Run(queries); err != nil { // warm-up batch
		return err
	}
	start = time.Now()
	if err := bt.Run(queries); err != nil {
		return err
	}
	serveTime := time.Since(start)
	covered := 0
	for i := 0; i < bt.Len(); i++ {
		covered += len(bt.Result(i))
	}
	st := qs.Stats()
	bst := bt.Stats()
	fmt.Println("--- reverse-NN query serving ---")
	fmt.Printf("structure:    %d leaves, height %d, %d stored balls (built in %v)\n",
		st.Leaves, st.Height, st.StoredBalls, buildTime.Round(time.Microsecond))
	fmt.Printf("queries:      %d in %v (%.0f qps, steady state)\n",
		n, serveTime.Round(time.Microsecond), float64(n)/serveTime.Seconds())
	fmt.Printf("covering:     %.2f balls/query mean\n", float64(covered)/float64(n))
	fmt.Printf("traversal:    %.1f nodes visited, %.1f leaf candidates scanned per query\n",
		float64(bst.NodesVisited)/float64(bst.Queries), float64(bst.LeafScanned)/float64(bst.Queries))
	return nil
}

// runAudit builds the query structure over each of the paper's
// acceptance generators and re-measures the invariants the analysis
// proves: Theorem 2.1's intersection-number bound, the δ-split and
// Punting-Lemma depth, Lemma 6.1's linear space, and Theorem 3.1's
// per-query cost (sampled over live probes). Each report is published
// as sepdc_audit_* gauges (visible on -debug-addr /metrics) and
// rendered as a pass/fail table. Probe serving runs through an observed
// Batcher so the audit run also exercises the serving telemetry.
func runAudit(n, d, k int, seed uint64, workers int) error {
	gens := []pointgen.Dist{pointgen.UniformBall, pointgen.JitteredGrid, pointgen.Clustered}
	obsv := sepdc.NewServeObserver("audit", sepdc.ServeObserverConfig{SampleEvery: 4})
	jr := sepdc.NewQueryJournal("audit", sepdc.QueryJournalConfig{})
	failed := 0
	var lastBatcher *sepdc.Batcher
	for _, gen := range gens {
		pts := pointgen.Dedup(pointgen.MustGenerate(gen, n, d, xrand.New(seed)))
		points := make([][]float64, len(pts))
		for i, p := range pts {
			points[i] = p
		}
		qs, err := sepdc.NewQueryStructure(points, k, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", gen, err)
		}
		g := xrand.New(seed + 1)
		probes := make([][]float64, 500)
		for i := range probes {
			if i%3 == 0 {
				probes[i] = points[g.IntN(len(points))]
			} else {
				probes[i] = g.InCube(d)
			}
		}
		bt := qs.NewBatcher(workers)
		bt.Observe(obsv)
		bt.Journal(jr)
		lastBatcher = bt
		if err := bt.Run(probes); err != nil {
			return fmt.Errorf("%s: %w", gen, err)
		}
		rep, err := qs.Audit(probes)
		if err != nil {
			return fmt.Errorf("%s: %w", gen, err)
		}
		rep.Gen = string(gen)
		rep.Publish()
		if err := rep.WriteTable(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if !rep.Pass {
			failed++
		}
	}
	// Publish the sepdc_slo_* gauge family over the audit's serving
	// traffic (one evaluation of a 100ms per-batch latency objective) so
	// a scrape of the audit run carries the full observability surface —
	// scripts/metrics_audit.sh lints and asserts these series.
	if lastBatcher != nil {
		bst := lastBatcher.Stats()
		ev, err := slo.New(slo.Objective{
			Name:   "audit_batch_latency",
			Source: slo.HistSource(func() obs.Hist { return bst.Latency }, (100 * time.Millisecond).Nanoseconds()),
		}, nil)
		if err != nil {
			return err
		}
		ev.Evaluate()
	}
	if failed > 0 {
		return fmt.Errorf("audit: %d of %d generators violated a paper invariant", failed, len(gens))
	}
	return nil
}

func writeTrace(path string, g *sepdc.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := g.WriteTrace(w); err != nil {
		return err
	}
	return w.Flush()
}

func readPoints(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var points [][]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		p := make([]float64, len(fields))
		for i, fstr := range fields {
			v, err := strconv.ParseFloat(fstr, 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad coordinate %q", path, lineNo, fstr)
			}
			p[i] = v
		}
		points = append(points, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return points, nil
}

func writeGraph(path string, g *sepdc.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i := 0; i < g.NumPoints(); i++ {
		fmt.Fprintf(w, "%d:", i)
		for _, j := range g.Adjacency(i) {
			fmt.Fprintf(w, " %d", j)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
