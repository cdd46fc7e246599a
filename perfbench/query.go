package main

import (
	"fmt"
	"time"

	"sepdc"
	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/pointgen"
	"sepdc/internal/septree"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

const (
	queryK     = 4
	queryDim   = 2
	passSize   = 512 // the coalescer's largest pass
	passCount  = 32  // distinct passes, cycled
	hotAnchors = 8
	traceEvery = 16 // 1 in 16 queries carries a sampled trace, as in knnserve
)

// queryBench runs Batcher passes over one QueryStructure with the
// serving telemetry stack attached, so the Frozen descent, the leaf scan,
// the vec kernels and the obs stack do nearly all the work.
type queryBench struct {
	seed   uint64
	vecs   []vec.Vec
	points [][]float64
	qs     *sepdc.QueryStructure
	bt     *sepdc.Batcher
	obs    *sepdc.ServeObserver
	jr     *sepdc.QueryJournal
	passes []queryPass
	warmed bool
}

// queryPass is one pre-generated pass and its expected answers.
type queryPass struct {
	queries [][]float64
	traces  []sepdc.TraceContext
	closed  bool
	want    [][]int32
	hits    int64 // Σ len(want)
}

func queryN(cfg *config) int {
	if cfg.tiny {
		return 3000
	}
	return 100000
}

func setupQuery(cfg *config) (bench, error) {
	return newQueryBench(cfg.seed, queryN(cfg), cfg.corrupt)
}

func newQueryBench(seed uint64, n int, corrupt bool) (*queryBench, error) {
	g := xrand.New(seed)
	vecs := pointgen.MustGenerate(pointgen.UniformCube, n, queryDim, g)
	points := rows(vecs)
	qs, err := sepdc.NewQueryStructure(points, queryK, seed)
	if err != nil {
		return nil, err
	}
	// Answers depend only on (points, k): a structure built under another
	// seed gives the expected rows, so the timed loop only compares.
	ref, err := sepdc.NewQueryStructure(points, queryK, seed^0x9e3779b97f4a7c15)
	if err != nil {
		return nil, fmt.Errorf("reference structure: %w", err)
	}
	refBt := ref.NewBatcher(0)

	// Passes cycle through uniform-in-cube and hot-leaf queries (jittered
	// around stored anchors), each in open and closed membership.
	anchors := g.Sample(n, hotAnchors)
	jitter := 0.5 / float64(n)
	b := &queryBench{seed: seed, vecs: vecs, points: points, qs: qs}
	for p := 0; p < passCount; p++ {
		pass := queryPass{closed: p%2 == 1}
		hot := p%4 >= 2
		for j := 0; j < passSize; j++ {
			q := make([]float64, queryDim)
			if hot {
				a := points[anchors[g.IntN(hotAnchors)]]
				for c := range q {
					q[c] = a[c] + jitter*(2*g.Float64()-1)
				}
			} else {
				copy(q, g.InCube(queryDim))
			}
			pass.queries = append(pass.queries, q)
			tc := sepdc.GenerateTrace(seed, uint64(p*passSize+j))
			tc.Sampled = (p*passSize+j)%traceEvery == 0
			pass.traces = append(pass.traces, tc)
		}
		if pass.closed {
			err = refBt.RunClosed(pass.queries)
		} else {
			err = refBt.Run(pass.queries)
		}
		if err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		for j := range pass.queries {
			pass.want = append(pass.want, int32Row(refBt.Result(j)))
			pass.hits += int64(len(refBt.Result(j)))
		}
		b.passes = append(b.passes, pass)
	}
	if corrupt {
		b.passes[0].want[0] = append(b.passes[0].want[0], -1)
	}

	b.obs = sepdc.NewServeObserver("perfbench", sepdc.ServeObserverConfig{})
	b.jr = sepdc.NewQueryJournal("perfbench", sepdc.QueryJournalConfig{})
	b.bt = qs.NewBatcher(0)
	b.bt.Observe(b.obs)
	b.bt.Journal(b.jr)
	return b, nil
}

func (b *queryBench) peakRSSMB() (float64, error) { return vmHWMMB("self") }

func (b *queryBench) close() {
	b.obs.Close()
	b.jr.Close()
}

// runPass runs pass p on bt and reports whether every row matched.
func runPass(bt *sepdc.Batcher, p *queryPass) (time.Duration, bool, error) {
	t0 := time.Now()
	var err error
	if p.closed {
		err = bt.RunClosedTraced(p.queries, p.traces)
	} else {
		err = bt.RunTraced(p.queries, p.traces)
	}
	dt := time.Since(t0)
	if err != nil {
		return dt, false, err
	}
	for j := range p.queries {
		if !equalRow(bt.Result(j), p.want[j]) {
			return dt, false, nil
		}
	}
	return dt, true, nil
}

func (b *queryBench) run(dur time.Duration, traced bool) (*segment, error) {
	if !b.warmed {
		for i := range b.passes {
			if _, _, err := runPass(b.bt, &b.passes[i]); err != nil {
				return nil, err
			}
		}
		b.warmed = true
	}
	seg := newSegment()
	st0 := b.bt.Stats()
	os0 := b.obs.Snapshot()
	b.jr.Drain()
	// Throughput is the median over one-second windows of the queries
	// answered per second of pass time, so a stall confined to a few
	// windows does not move it.
	var ms, winQPS []float64
	var busy, winBusy float64
	var okQueries, winQueries, hits int64
	start := time.Now()
	winEnd := start.Add(time.Second)
	for i := 0; len(ms) == 0 || time.Since(start) < dur; i++ {
		if now := time.Now(); now.After(winEnd) {
			winQPS = append(winQPS, float64(winQueries)/winBusy)
			winQueries, winBusy, winEnd = 0, 0, now.Add(time.Second)
		}
		p := &b.passes[i%len(b.passes)]
		dt, ok, err := runPass(b.bt, p)
		seg.attempted++
		if err != nil {
			seg.failed++
			continue
		}
		if !ok {
			seg.wrong++
		} else {
			okQueries += int64(len(p.queries))
			winQueries += int64(len(p.queries))
			hits += p.hits
		}
		ms = append(ms, dt.Seconds()*1e3)
		busy += dt.Seconds()
		winBusy += dt.Seconds()
	}
	if len(winQPS) == 0 {
		winQPS = append(winQPS, float64(okQueries)/busy)
	}
	seg.e2e.set("p50_ms", median(ms), "ms")
	seg.e2e.set("p99_ms", quantile(ms, 0.99), "ms")
	seg.e2e.set("qps", median(winQPS), "1/s")
	if traced {
		if err := b.layers(seg.layers, st0, os0, hits); err != nil {
			return nil, err
		}
	}
	return seg, nil
}

// layers derives the query-side layer metrics from the Batcher's and the
// observer's counters over the traced segment, plus timed calls into the
// septree build and an interleaved nil-observer comparison.
func (b *queryBench) layers(l *metricSet, st0 sepdc.BatchQueryStats, os0 *obs.ServeSnapshot, hits int64) error {
	st1 := b.bt.Stats()
	os1 := b.obs.Snapshot()
	queries := st1.Queries - st0.Queries
	nodes := float64(st1.NodesVisited-st0.NodesVisited) / float64(queries)
	scanned := float64(st1.LeafScanned-st0.LeafScanned) / float64(queries)
	l.set("septree.descend_ns", histMeanDelta(os1.Descent, os0.Descent), "ns")
	l.set("septree.scan_ns", histMeanDelta(os1.Scan, os0.Scan), "ns")
	l.set("septree.nodes_per_query", nodes, "count")
	l.set("septree.leaf_scanned_per_query", scanned, "count")
	// Every ball a query reports was scanned in its leaf; the hit ratio is
	// the share of scanned candidates that cover the query.
	l.set("septree.hit_ratio", float64(hits)/float64(st1.LeafScanned-st0.LeafScanned), "ratio")
	// Computed from the frozen layout's record strides, not measured: a
	// node record is d+3 float64s, a leaf ball record d+1.
	l.set("vec.dists_per_query", nodes+scanned, "count")
	l.set("vec.bytes_per_query", 8*(nodes*(queryDim+3)+scanned*(queryDim+1)), "B")
	l.set("obs.journal_dropped", float64(b.jr.Drain().Dropped), "count")

	// The same passes on a Batcher with no observer, journal or traces,
	// interleaved with the instrumented one, alternating which goes first.
	plain := b.qs.NewBatcher(0)
	var ratios []float64
	for r := 0; r < 9; r++ {
		var tPlain, tObs time.Duration
		for i := range b.passes {
			p := &b.passes[i]
			for k := 0; k < 2; k++ {
				if (k+r+i)%2 == 0 {
					t0 := time.Now()
					var err error
					if p.closed {
						err = plain.RunClosed(p.queries)
					} else {
						err = plain.Run(p.queries)
					}
					tPlain += time.Since(t0)
					if err != nil {
						return err
					}
				} else {
					dt, _, err := runPass(b.bt, p)
					if err != nil {
						return err
					}
					tObs += dt
				}
			}
		}
		ratios = append(ratios, float64(tObs)/float64(tPlain))
	}
	l.set("obs.overhead_pct", 100*(median(ratios)-1), "%")

	// The structure build on the query point set, split into the septree
	// build and the freeze into the flat serving layout.
	sys := nbrsys.KNeighborhood(b.vecs, queryK)
	t0 := time.Now()
	tree, err := septree.Build(sys, xrand.New(b.seed), nil)
	if err != nil {
		return fmt.Errorf("septree.Build: %w", err)
	}
	l.set("septree.build_s", time.Since(t0).Seconds(), "s")
	t0 = time.Now()
	if _, err := septree.Freeze(tree); err != nil {
		return fmt.Errorf("septree.Freeze: %w", err)
	}
	l.set("septree.freeze_ms", time.Since(t0).Seconds()*1e3, "ms")
	return nil
}

// histMeanDelta is the mean of the observations added between two
// snapshots of a cumulative histogram.
func histMeanDelta(now, before obs.Hist) float64 {
	if now.Count == before.Count {
		return 0
	}
	return float64(now.Sum-before.Sum) / float64(now.Count-before.Count)
}

func int32Row(r []int) []int32 {
	out := make([]int32, len(r))
	for i, v := range r {
		out[i] = int32(v)
	}
	return out
}

// rows converts generated points to the public API's row form.
func rows(pv []vec.Vec) [][]float64 {
	out := make([][]float64, len(pv))
	for i, p := range pv {
		out[i] = p
	}
	return out
}
