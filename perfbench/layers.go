package main

import (
	"bufio"
	"fmt"
	"time"
)

// perLayer is the JSON result's metric set with --trace 1, in
// BENCHMARK.json order. README.md maps each to the end-to-end metric and
// workload it should move.
var perLayer = []string{
	"core.divide_ms", "core.correct_ms", "core.base_ms", "core.recurse_ms",
	"core.threshold_punts", "core.query_corrections",
	"separator.trials", "separator.nodes_per_trial", "separator.root_find_ms",
	"march.fast_corrections", "march.aborts", "march.success_ratio",
	"septree.punt_builds", "septree.punt_stored_balls",
	"septree.build_s", "septree.freeze_ms",
	"septree.descend_ns", "septree.scan_ns", "septree.nodes_per_query",
	"septree.leaf_scanned_per_query", "septree.hit_ratio",
	"brute.base_cases", "knngraph.from_lists_ms", "vm.sim_steps", "vm.sim_work",
	"vec.dists_per_query", "vec.bytes_per_query",
	"obs.overhead_pct", "obs.journal_dropped",
	"serveproto.encode_us", "serveproto.decode_us",
	"http.server_ms_p50", "http.server_ms_p99",
	"knnserve.queue_us_p50", "knnserve.coalesce_us_p50", "knnserve.coalesce_us_p99",
	"knnserve.pass_us_p50", "knnserve.pass_us_p99", "knnserve.residual_us_p50",
	"knnserve.traced_requests",
	"knnserve.queries_per_pass", "knnserve.coalesced_share", "knnserve.rejected",
	"loadgen.conn_wait_ms_p50", "loadgen.late_ms_p99",
	"snapshot.swap_build_ms", "serve.in_swap_p99_ms",
	"trace.p50_overhead_pct", "trace.qps_overhead_pct",
}

// Probe sizes: the scale at which a traced run measures the layers its
// own workload does not exercise.
const (
	probeN        = 20000
	probeSeconds  = 1
	probeSwapSpan = 3 * time.Second
	probeSwapStep = time.Second
)

// probeOtherLayers fills in the layers the traced workload does not reach
// by short traced runs of the workloads that do: build for the core and
// separator layers, query for septree serving, vec and obs, and
// serve-swap for the serving front end and snapshot swaps. Metrics the
// workload measured itself are kept.
func probeOtherLayers(cfg *config, l *metricSet, out *bufio.Writer) (*segment, error) {
	total := newSegment()
	n := probeN
	if cfg.tiny {
		n = 2000
	}
	type probe struct {
		name  string
		start func() (bench, error)
		dur   time.Duration
	}
	probes := []probe{
		{"build", func() (bench, error) { return newBuildBench(cfg.seed, n, false) }, probeSeconds * time.Second},
		{"query", func() (bench, error) { return newQueryBench(cfg.seed, n, false) }, probeSeconds * time.Second},
		{"serve-swap", func() (bench, error) {
			pc := *cfg
			pc.corrupt = false
			return newServeBench(&pc, n, probeSwapStep, probeSwapSpan)
		}, probeSwapSpan},
	}
	for _, p := range probes {
		if p.name == cfg.workload {
			continue
		}
		b, err := p.start()
		if err != nil {
			return nil, fmt.Errorf("%s probe set-up: %w", p.name, err)
		}
		seg, err := b.run(p.dur, true)
		b.close()
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", p.name, err)
		}
		fmt.Fprintf(out, "# probe %s n=%d: %d ops (%d failed, %d wrong)\n", p.name, n, seg.attempted, seg.failed, seg.wrong)
		l.merge(seg.layers)
		total.attempted += seg.attempted
		total.failed += seg.failed
		total.wrong += seg.wrong
	}
	return total, nil
}
