// Command knnload is the deterministic load generator for cmd/knnserve:
// seeded traffic shapes replayed over the binary wire protocol, with
// per-request latency percentiles recorded under saturation and an
// optional golden cross-check of every answer against a locally built
// reference structure.
//
// The server and the generator must agree on the workload parameters
// (-dist/-n/-d/-k/-seed) — both derive the point set through the same
// pointgen pipeline, which is what makes stored-point replay and the
// golden check possible without any out-of-band channel.
//
//	knnserve -addr :8080 -n 20000 -d 2 -k 3 -seed 1 &
//	knnload  -addr localhost:8080 -n 20000 -d 2 -k 3 -seed 1 \
//	    -shapes uniform,hot,mixed,swap -conns 8 -requests 200 -golden
//
// With -bench PATH the results are merged into BENCH_knn.json's "serve"
// section, preserving every other section verbatim.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sepdc"
	"sepdc/internal/pointgen"
	"sepdc/internal/serveproto"
	"sepdc/internal/xrand"
)

const binaryContentType = "application/x-sepdc-query"

// ShapeResult is one traffic shape's measurement — the unit of the
// BENCH_knn.json "serve" section.
type ShapeResult struct {
	Shape     string  `json:"shape"`
	Conns     int     `json:"conns"`
	Batch     int     `json:"batch"`
	Requests  int64   `json:"requests"`
	Queries   int64   `json:"queries"`
	Errors    int64   `json:"errors"`
	Rejected  int64   `json:"rejected"` // 503 sheds (admission control, not errors)
	Swaps     int64   `json:"swaps,omitempty"`
	GoldenBad int64   `json:"golden_failures"`
	Elapsed   float64 `json:"elapsed_ms"`
	QPS       float64 `json:"queries_per_sec"`
	P50us     float64 `json:"p50_us"`
	P90us     float64 `json:"p90_us"`
	P99us     float64 `json:"p99_us"`
	P999us    float64 `json:"p999_us"`
	MaxUs     float64 `json:"max_us"`

	// P99Trace/P999Trace are the trace ids of the requests sitting at the
	// tail percentiles — paste one into the server's
	// /traces?id=<id>&format=chrome to see where that request's time went.
	P99Trace  string `json:"p99_trace_id,omitempty"`
	P999Trace string `json:"p999_trace_id,omitempty"`
}

// ServeSection is the whole "serve" document.
type ServeSection struct {
	Generated string        `json:"generated"`
	GoVersion string        `json:"go_version"`
	Addr      string        `json:"addr"`
	N         int           `json:"n"`
	D         int           `json:"d"`
	K         int           `json:"k"`
	Seed      uint64        `json:"seed"`
	Golden    bool          `json:"golden_checked"`
	Note      string        `json:"note"`
	Shapes    []ShapeResult `json:"shapes"`
}

type loadConfig struct {
	addr    string
	dist    pointgen.Dist
	n, d, k int
	seed    uint64

	conns      int
	requests   int // per connection
	batch      int // queries per request (base size)
	swapMS     int // swap cadence for the swap shape
	golden     bool
	traceEvery int // every Nth request per connection is sampled (0 = never)
}

// loader owns the regenerated point set and, under -golden, one
// reference Batcher per connection (a Batcher is single-goroutine).
type loader struct {
	cfg    loadConfig
	points [][]float64
	refs   []*sepdc.Batcher

	client *http.Client
}

func newLoader(cfg loadConfig) (*loader, error) {
	pts := pointgen.Dedup(pointgen.MustGenerate(cfg.dist, cfg.n, cfg.d, xrand.New(cfg.seed)))
	points := make([][]float64, len(pts))
	for i, p := range pts {
		points[i] = p
	}
	l := &loader{
		cfg:    cfg,
		points: points,
		client: &http.Client{Timeout: 30 * time.Second},
	}
	if cfg.golden {
		// The reference tree seed is arbitrary — answers depend only on
		// the point set and k, the same invariant the server's hot swap
		// leans on.
		qs, err := sepdc.NewQueryStructure(points, cfg.k, cfg.seed+1_000_003)
		if err != nil {
			return nil, fmt.Errorf("reference structure: %w", err)
		}
		l.refs = make([]*sepdc.Batcher, cfg.conns)
		for i := range l.refs {
			l.refs[i] = qs.NewBatcher(1)
		}
	}
	return l, nil
}

// latSample is one successful request's wall time paired with the trace
// context it was sent under — what lets the tail percentiles name the
// exact requests behind them.
type latSample struct {
	ns    int64
	trace sepdc.TraceContext
}

// worker is one connection's deterministic request loop. Latencies are
// appended to lat (request wall time, nanoseconds).
type worker struct {
	l     *loader
	id    int
	shape string
	g     *xrand.RNG

	lat      []latSample
	requests int64
	queries  int64
	errors   int64
	rejected int64
	golden   int64

	queries2 [][]float64 // request scratch
	frame    []byte

	// swapDone, for the swap shape, closes when its first swap returns;
	// nil for every other shape.
	swapDone chan struct{}
}

// nextBatch fills w.queries2 with the shape's next request and returns
// the closed flag.
func (w *worker) nextBatch() bool {
	cfg := w.l.cfg
	size := cfg.batch
	closed := false
	switch w.shape {
	case "uniform":
		w.queries2 = w.queries2[:0]
		for i := 0; i < size; i++ {
			w.queries2 = append(w.queries2, w.g.InCube(cfg.d))
		}
	case "hot":
		// Hot-leaf skew: all queries jitter tightly around a few stored
		// anchors, so they descend to the same handful of leaves and
		// exercise the engine's query-blocked scan path.
		w.queries2 = w.queries2[:0]
		anchor := w.l.points[w.g.IntN(8)*len(w.l.points)/8]
		for i := 0; i < size; i++ {
			q := make([]float64, cfg.d)
			for c := range q {
				q[c] = anchor[c] + (w.g.Float64()-0.5)*0.02
			}
			w.queries2 = append(w.queries2, q)
		}
	case "mixed", "swap":
		// Mixed-k traffic: varying batch sizes, stored-point replays
		// (boundary-heavy for the closed-membership mode), alternating
		// open/closed requests.
		size = 1 + w.g.IntN(2*size)
		closed = w.g.IntN(2) == 0
		w.queries2 = w.queries2[:0]
		for i := 0; i < size; i++ {
			if i%3 == 0 {
				w.queries2 = append(w.queries2, w.l.points[w.g.IntN(len(w.l.points))])
			} else {
				w.queries2 = append(w.queries2, w.g.InCube(cfg.d))
			}
		}
	default:
		panic("unknown shape " + w.shape)
	}
	return closed
}

// awaitingSwap reports whether the swap shape's first swap is still
// outstanding. The shape keeps loading past its request budget until it
// returns, so a swap always lands during load however fast the server
// drains the budget.
func (w *worker) awaitingSwap() bool {
	if w.swapDone == nil {
		return false
	}
	select {
	case <-w.swapDone:
		return false
	default:
		return true
	}
}

func (w *worker) run(url string) {
	for r := 0; r < w.l.cfg.requests || w.awaitingSwap(); r++ {
		closed := w.nextBatch()
		w.frame = serveproto.AppendRequest(w.frame[:0], w.queries2, w.l.cfg.d, closed)
		// Deterministic per-request trace context: derived from the run
		// seed, shape, connection, and request ordinal — replaying the
		// same flags replays the same trace ids, so a tail trace id from
		// one run can be found again in the next. Every -trace-every'th
		// request is sampled (forces the server's per-query timed path).
		tc := sepdc.GenerateTrace(w.l.cfg.seed+hashShape(w.shape), uint64(w.id)<<32|uint64(r))
		if w.l.cfg.traceEvery > 0 && r%w.l.cfg.traceEvery == 0 {
			tc.Sampled = true
		}
		req, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(w.frame))
		if err != nil {
			w.errors++
			continue
		}
		req.Header.Set("Content-Type", binaryContentType)
		req.Header.Set("Traceparent", tc.Traceparent())
		start := time.Now()
		resp, err := w.l.client.Do(req)
		if err != nil {
			w.errors++
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		took := time.Since(start)
		if resp.StatusCode == http.StatusServiceUnavailable {
			w.rejected++
			continue
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			w.errors++
			continue
		}
		dec, err := serveproto.DecodeResponse(raw)
		if err != nil || len(dec.Rows) != len(w.queries2) {
			w.errors++
			continue
		}
		w.lat = append(w.lat, latSample{ns: took.Nanoseconds(), trace: tc})
		w.requests++
		w.queries += int64(len(w.queries2))
		if w.l.refs != nil {
			w.check(dec, closed)
		}
	}
}

// check golden-verifies one response against the local reference.
func (w *worker) check(dec *serveproto.Response, closed bool) {
	ref := w.l.refs[w.id]
	var err error
	if closed {
		err = ref.RunClosed(w.queries2)
	} else {
		err = ref.Run(w.queries2)
	}
	if err != nil {
		w.golden++
		return
	}
	for i := range w.queries2 {
		want := ref.Result(i)
		got := dec.Rows[i]
		if len(got) != len(want) {
			w.golden++
			return
		}
		for j := range want {
			if int(got[j]) != want[j] {
				w.golden++
				return
			}
		}
	}
}

func percentile(sorted []latSample, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].ns) / 1e3 // ns -> us
}

// traceAt names the request at a percentile: the 32-hex trace id of the
// sample the percentile index lands on.
func traceAt(sorted []latSample, p float64) string {
	if len(sorted) == 0 {
		return ""
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx].trace.TraceIDString()
}

// runShape drives one traffic shape to completion and aggregates the
// per-connection measurements.
func (l *loader) runShape(shape string) (ShapeResult, error) {
	url := "http://" + l.cfg.addr
	workers := make([]*worker, l.cfg.conns)
	for i := range workers {
		workers[i] = &worker{
			l: l, id: i, shape: shape,
			// Per-connection seed: deterministic, distinct, and distinct
			// from the point-set seed.
			g:   xrand.New(l.cfg.seed*1_000_000_007 + uint64(i)*7919 + hashShape(shape)),
			lat: make([]latSample, 0, l.cfg.requests),
		}
	}

	var swaps atomic.Int64
	stop := make(chan struct{})
	var swapWG sync.WaitGroup
	if shape == "swap" {
		// Hot swaps on a fixed cadence for the whole run: the load's
		// answers must stay golden across every one of them.
		swapDone := make(chan struct{})
		for _, w := range workers {
			w.swapDone = swapDone
		}
		swapWG.Add(1)
		go func() {
			defer swapWG.Done()
			tick := time.NewTicker(time.Duration(l.cfg.swapMS) * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					resp, err := l.client.Post(url+"/swap", "", nil)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode == http.StatusOK {
							swaps.Add(1)
						}
					}
					if swapDone != nil {
						close(swapDone)
						swapDone = nil
					}
				}
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(url)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	swapWG.Wait()

	res := ShapeResult{
		Shape:   shape,
		Conns:   l.cfg.conns,
		Batch:   l.cfg.batch,
		Swaps:   swaps.Load(),
		Elapsed: float64(elapsed.Microseconds()) / 1e3,
	}
	var all []latSample
	for _, w := range workers {
		res.Requests += w.requests
		res.Queries += w.queries
		res.Errors += w.errors
		res.Rejected += w.rejected
		res.GoldenBad += w.golden
		all = append(all, w.lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ns < all[j].ns })
	res.QPS = float64(res.Queries) / elapsed.Seconds()
	res.P50us = percentile(all, 0.50)
	res.P90us = percentile(all, 0.90)
	res.P99us = percentile(all, 0.99)
	res.P999us = percentile(all, 0.999)
	res.P99Trace = traceAt(all, 0.99)
	res.P999Trace = traceAt(all, 0.999)
	if len(all) > 0 {
		res.MaxUs = float64(all[len(all)-1].ns) / 1e3
	}
	return res, nil
}

func hashShape(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// mergeBench merges the serve section into an existing BENCH_knn.json,
// preserving every other section verbatim (the file is knnbench's; this
// tool owns only the "serve" key).
func mergeBench(path string, sec *ServeSection) error {
	doc := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	enc, err := json.Marshal(sec)
	if err != nil {
		return err
	}
	doc["serve"] = enc
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "knnserve host:port")
		dist     = flag.String("dist", string(pointgen.UniformCube), "point distribution (must match the server)")
		n        = flag.Int("n", 20000, "number of points (must match the server)")
		d        = flag.Int("d", 2, "dimension (must match the server)")
		k        = flag.Int("k", 3, "neighborhood size (must match the server)")
		seed     = flag.Uint64("seed", 1, "point-set seed (must match the server)")
		shapes   = flag.String("shapes", "uniform,hot,mixed,swap", "comma-separated traffic shapes")
		conns    = flag.Int("conns", 8, "concurrent connections")
		requests = flag.Int("requests", 200, "requests per connection per shape")
		batch    = flag.Int("batch", 16, "base queries per request")
		swapMS   = flag.Int("swap-every", 150, "swap cadence in ms for the swap shape")
		golden   = flag.Bool("golden", false, "verify every answer against a local reference structure")
		bench    = flag.String("bench", "", "merge results into this BENCH_knn.json (empty = stdout only)")
		traceN   = flag.Int("trace-every", 16, "mark every Nth request per connection sampled (0 = never); all requests carry deterministic traceparents")
	)
	flag.Parse()

	l, err := newLoader(loadConfig{
		addr: *addr, dist: pointgen.Dist(*dist),
		n: *n, d: *d, k: *k, seed: *seed,
		conns: *conns, requests: *requests, batch: *batch,
		swapMS: *swapMS, golden: *golden, traceEvery: *traceN,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "knnload:", err)
		os.Exit(1)
	}

	sec := &ServeSection{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Addr:      *addr,
		N:         *n, D: *d, K: *k, Seed: *seed,
		Golden: *golden,
		Note: "binary wire protocol, per-request wall-time percentiles under concurrent load; " +
			"rejected = 503 admission sheds (not errors); swap shape issues POST /swap on a fixed " +
			"cadence during load and runs past its request budget until the first swap returns — " +
			"golden_failures counts answers differing from a locally built reference structure " +
			"over the same point set",
	}
	failed := false
	for _, shape := range strings.Split(*shapes, ",") {
		shape = strings.TrimSpace(shape)
		if shape == "" {
			continue
		}
		res, err := l.runShape(shape)
		if err != nil {
			fmt.Fprintf(os.Stderr, "knnload: shape %s: %v\n", shape, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%-8s %6d req %8d queries  %8.0f q/s  p50 %7.0fus  p99 %7.0fus  p999 %7.0fus  errors %d  rejected %d  swaps %d  golden_bad %d\n",
			res.Shape, res.Requests, res.Queries, res.QPS, res.P50us, res.P99us, res.P999us,
			res.Errors, res.Rejected, res.Swaps, res.GoldenBad)
		if res.P99Trace != "" {
			fmt.Fprintf(os.Stderr, "%-8s tail traces: p99 %s  p999 %s\n", "", res.P99Trace, res.P999Trace)
		}
		if res.Errors > 0 || res.GoldenBad > 0 || res.Requests == 0 {
			failed = true
		}
		sec.Shapes = append(sec.Shapes, res)
	}

	enc, _ := json.MarshalIndent(sec, "", "  ")
	fmt.Println(string(enc))
	if *bench != "" {
		if err := mergeBench(*bench, sec); err != nil {
			fmt.Fprintln(os.Stderr, "knnload:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "knnload: serve section merged into %s\n", *bench)
	}
	if failed {
		os.Exit(1)
	}
}
