package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sepdc"
	"sepdc/internal/obs"
	"sepdc/internal/pointgen"
	"sepdc/internal/serveproto"
	"sepdc/internal/snapshot"
	"sepdc/internal/xrand"
)

// binaryContentType is the wire-format media type; anything else on
// /query is treated as JSON.
const binaryContentType = "application/x-sepdc-query"

type serverConfig struct {
	dist    pointgen.Dist
	n, d, k int
	seed    uint64

	replicas int   // coalescer strands (queues + goroutines)
	workers  int   // Batcher strands per replica (0 = GOMAXPROCS)
	queue    int   // per-replica pending-op queue bound
	maxBody  int64 // request body cap, bytes
	ringSize int   // journal ring capacity per strand (0 = default 4096)

	flightDir     string        // flight-recorder bundle directory ("" = off)
	flightLatency time.Duration // per-pass latency SLO objective
}

func (c *serverConfig) defaults() {
	if c.dist == "" {
		c.dist = pointgen.UniformCube
	}
	if c.replicas <= 0 {
		c.replicas = 2
	}
	if c.queue <= 0 {
		c.queue = 256
	}
	if c.maxBody <= 0 {
		c.maxBody = 64 << 20
	}
}

// generation is one built snapshot: the immutable query structure and
// one Batcher per replica (a Batcher is a single-goroutine engine; the
// replica's coalescer goroutine is that goroutine). Generations travel
// through the snapshot.Holder; the release callback fires only after
// the last pass pinned to this generation unpins.
type generation struct {
	epoch    uint64
	seed     uint64 // tree-build seed (answers are seed-independent)
	qs       *sepdc.QueryStructure
	batchers []*sepdc.Batcher
	inflight atomic.Int64 // passes currently pinned to this generation
}

// server owns the serving state: the point set (fixed for the process
// lifetime — answers are a pure function of points and k, which is what
// makes rebuild-and-swap answer-preserving), the current snapshot
// generation, and the replica coalescers.
type server struct {
	cfg    serverConfig
	points [][]float64

	snap *snapshot.Holder[*generation]
	gens atomic.Uint64 // generations built; epoch source
	reps []*replica
	rr   atomic.Uint64 // round-robin admission cursor

	// passLat is the per-pass serving latency histogram: multi-writer
	// safe, so the SLO/flight evaluator may read it concurrently with
	// serving — the property FlightRecorder.Watch needs from a source
	// in a process whose Batchers are replaced by every swap.
	passLat obs.AtomicHist

	// observers and journals are per replica and live for the process:
	// every generation's Batcher for replica i attaches observers[i] and
	// journals[i], so counters never reset across swaps. Sharing is safe
	// because one replica goroutine drives each generation's Batcher in
	// turn.
	observers []*sepdc.ServeObserver
	journals  []*sepdc.QueryJournal

	// traces is the request-trace log behind /traces: every request gets
	// a trace context (parsed from its traceparent header, else generated
	// deterministically from the process seed and traceN) and publishes a
	// queue → coalesce → pass span summary on completion.
	traces *sepdc.TraceLog
	traceN atomic.Uint64 // per-request counter for generated trace ids

	// fr, when configured, burns the passLat SLO and captures flight
	// bundles; the evaluator goroutine ticks it because the serving hot
	// path never has a "between Runs" moment of its own.
	fr     *sepdc.FlightRecorder
	frStop chan struct{}

	swapMu sync.Mutex // serializes rebuilds (never held on a serve path)

	// onRelease, when set (tests), observes every generation release in
	// addition to the default bookkeeping.
	onRelease func(*generation)

	rejected atomic.Int64 // admission-control rejections (503s)
	swapped  atomic.Int64 // completed snapshot swaps

	wg     sync.WaitGroup
	closed atomic.Bool

	opPool sync.Pool
}

// observerName returns the per-replica exposition name of replica i's
// observer and journal.
func observerName(i int) string { return "serve" + strconv.Itoa(i) }

// newServer generates the point set, builds generation 0, registers
// per-replica observers and journals, and starts the coalescers.
func newServer(cfg serverConfig) (*server, error) {
	cfg.defaults()
	pts, err := pointgen.Generate(cfg.dist, cfg.n, cfg.d, xrand.New(cfg.seed))
	if err != nil {
		return nil, err
	}
	pts = pointgen.Dedup(pts)
	points := make([][]float64, len(pts))
	for i, p := range pts {
		points[i] = p
	}
	s := &server{cfg: cfg, points: points}
	s.passLat.Reset()
	s.opPool.New = func() any { return newOp() }

	s.observers = make([]*sepdc.ServeObserver, cfg.replicas)
	s.journals = make([]*sepdc.QueryJournal, cfg.replicas)
	for i := range s.journals {
		s.observers[i] = sepdc.NewServeObserver(observerName(i), sepdc.ServeObserverConfig{})
		s.journals[i] = sepdc.NewQueryJournal(observerName(i), sepdc.QueryJournalConfig{PerStrand: cfg.ringSize})
	}
	s.traces = sepdc.NewTraceLog("serve", sepdc.TraceLogConfig{})

	gen, err := s.buildGeneration(cfg.seed)
	if err != nil {
		return nil, err
	}
	s.snap = snapshot.New(gen, s.releaseGeneration)

	s.reps = make([]*replica, cfg.replicas)
	for i := range s.reps {
		s.reps[i] = newReplica(s, i)
		s.wg.Add(1)
		go s.reps[i].loop()
	}

	if cfg.flightDir != "" {
		if err := s.startFlight(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// startFlight attaches a FlightRecorder to the process-level pass
// latency histogram (stable across snapshot swaps, unlike any one
// generation's Batchers) and ticks its burn-rate evaluator from a
// dedicated goroutine — AtomicHist sources may be evaluated
// concurrently with serving. Bundles carry replica 0's journal, its
// observer's slow tail (tail.json) and the request traces.
func (s *server) startFlight() error {
	fr, err := sepdc.NewFlightRecorder(sepdc.FlightConfig{
		Dir:              s.cfg.flightDir,
		LatencyObjective: s.cfg.flightLatency,
		CaptureWindow:    100 * time.Millisecond,
		Cooldown:         time.Second,
	})
	if err != nil {
		return err
	}
	if err := fr.Watch("serve_pass", s.passLat.Snapshot, s.journals[0], s.observers[0], s.traces); err != nil {
		return err
	}
	s.fr = fr
	s.frStop = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.fr.Evaluate()
			case <-s.frStop:
				return
			}
		}
	}()
	return nil
}

// buildGeneration builds one snapshot generation: the query structure
// and per-replica Batchers attached to the replicas' observers and
// journals.
func (s *server) buildGeneration(seed uint64) (*generation, error) {
	qs, err := sepdc.NewQueryStructure(s.points, s.cfg.k, seed)
	if err != nil {
		return nil, err
	}
	gen := &generation{
		epoch:    s.gens.Load(),
		seed:     seed,
		qs:       qs,
		batchers: make([]*sepdc.Batcher, s.cfg.replicas),
	}
	s.gens.Add(1)
	for i := 0; i < s.cfg.replicas; i++ {
		bt := qs.NewBatcher(s.cfg.workers)
		bt.Observe(s.observers[i])
		bt.Journal(s.journals[i])
		gen.batchers[i] = bt
	}
	return gen, nil
}

// releaseGeneration is the snapshot.Holder release callback: it runs
// once, after the swap that replaced gen AND the last reader's unpin.
func (s *server) releaseGeneration(gen *generation) {
	obs.SetGauge(obs.GaugeKey{Name: "sepdc_serve_generations_released"},
		"Snapshot generations fully drained and released.",
		float64(s.swapped.Load()))
	if s.onRelease != nil {
		s.onRelease(gen)
	}
}

// Swap rebuilds the snapshot from the server's point set under a new
// tree seed and publishes it atomically. Serving continues on the old
// generation for the whole build; the old generation is released after
// its last in-flight pass unpins. Returns the new epoch.
func (s *server) Swap(seed uint64) (uint64, time.Duration, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	start := time.Now()
	gen, err := s.buildGeneration(seed)
	if err != nil {
		return 0, 0, err
	}
	s.snap.Swap(gen, s.releaseGeneration)
	s.swapped.Add(1)
	return gen.epoch, time.Since(start), nil
}

// Epoch returns the epoch of the currently published generation.
func (s *server) Epoch() uint64 {
	pin := s.snap.Acquire()
	e := pin.Value().epoch
	pin.Unpin()
	return e
}

// dispatch runs one op through a replica coalescer, blocking until the
// pass that contains it completes. Admission control: every replica
// queue full → false (shed; the handler maps it to 503).
func (s *server) dispatch(o *op) bool {
	start := int(s.rr.Add(1)-1) % len(s.reps)
	for i := 0; i < len(s.reps); i++ {
		if s.reps[(start+i)%len(s.reps)].submit(o) {
			<-o.done
			return true
		}
	}
	s.rejected.Add(1)
	return false
}

// getOp / putOp recycle ops (and their arenas, query headers, and done
// channels) through the pool.
func (s *server) getOp() *op { return s.opPool.Get().(*op) }

func (s *server) putOp(o *op) {
	o.queries = o.queries[:0]
	o.err = nil
	o.trace = sepdc.TraceContext{}
	s.opPool.Put(o)
}

// Close stops the coalescers (draining queued ops), drops the publisher
// reference on the current generation, and waits for the goroutines.
func (s *server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	if s.frStop != nil {
		close(s.frStop)
	}
	for _, r := range s.reps {
		close(r.stop)
	}
	s.wg.Wait()
	if s.fr != nil {
		s.fr.Close()
	}
	s.snap.Close()
	for i := range s.journals {
		s.observers[i].Close()
		s.journals[i].Close()
	}
	s.traces.Close()
}

// ---- HTTP layer ----

// handler returns the service mux: the query/swap/health endpoints plus
// the full observability surface (/metrics, /statsz, /journal, /traces).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /swap", s.handleSwap)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mh := sepdc.MetricsHandler()
	mux.Handle("/metrics", mh)
	mux.Handle("/statsz", mh)
	mux.Handle("/journal", mh)
	mux.Handle("/traces", mh)
	return mux
}

type jsonQueryRequest struct {
	Queries [][]float64 `json:"queries"`
	Closed  bool        `json:"closed"`
}

type jsonQueryResponse struct {
	Epoch   uint64  `json:"epoch"`
	Closed  bool    `json:"closed"`
	Results [][]int `json:"results"`
}

// pooledBuf recycles the binary request/response scratch of the binary
// /query path: body bytes, decoded request, and encoded response frame.
type pooledBuf struct {
	body []byte
	req  serveproto.Request
	resp []byte
}

var bufPool = sync.Pool{New: func() any { return &pooledBuf{} }}

func (s *server) handleQuery(w http.ResponseWriter, req *http.Request) {
	if s.closed.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	if req.ContentLength > s.cfg.maxBody {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	// Every request is traced: a valid traceparent header adopts the
	// caller's context (a sampled one forces the engine's timed path for
	// the request's queries); anything else gets a deterministic
	// server-generated, unsampled context.
	tc, ok := sepdc.ParseTraceparent(req.Header.Get("Traceparent"))
	if !ok {
		tc = sepdc.GenerateTrace(s.cfg.seed, s.traceN.Add(1)-1)
	}
	body := http.MaxBytesReader(w, req.Body, s.cfg.maxBody)
	if req.Header.Get("Content-Type") == binaryContentType {
		s.handleQueryBinary(w, body, tc)
		return
	}
	s.handleQueryJSON(w, body, tc)
}

func (s *server) handleQueryBinary(w http.ResponseWriter, body io.Reader, tc sepdc.TraceContext) {
	pb := bufPool.Get().(*pooledBuf)
	defer bufPool.Put(pb)
	var err error
	pb.body, err = readAll(body, pb.body[:0])
	if err != nil {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if err := serveproto.DecodeRequestInto(pb.body, &pb.req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if pb.req.Dim != s.cfg.d {
		http.Error(w, fmt.Sprintf("query dimension %d, structure is %d-dimensional", pb.req.Dim, s.cfg.d), http.StatusBadRequest)
		return
	}

	o := s.getOp()
	o.queries = pb.req.Queries
	o.closed = pb.req.Closed
	o.trace = tc
	o.enq = time.Now()
	if !s.serveOp(w, o) {
		return
	}
	pb.resp = serveproto.AppendResponse(pb.resp[:0], o.epoch, o.closed, len(o.res),
		func(i int) []int { return o.res[i] })
	w.Header().Set("Content-Type", binaryContentType)
	w.Header().Set("Sepdc-Epoch", strconv.FormatUint(o.epoch, 10))
	w.Header().Set("Traceparent", tc.Traceparent())
	w.Write(pb.resp)
	s.putOp(o)
}

func (s *server) handleQueryJSON(w http.ResponseWriter, body io.Reader, tc sepdc.TraceContext) {
	var jreq jsonQueryRequest
	if err := json.NewDecoder(body).Decode(&jreq); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(jreq.Queries) > serveproto.MaxQueries {
		http.Error(w, "too many queries", http.StatusBadRequest)
		return
	}
	for i, q := range jreq.Queries {
		if len(q) != s.cfg.d {
			http.Error(w, fmt.Sprintf("query %d has %d coordinates, structure is %d-dimensional", i, len(q), s.cfg.d), http.StatusBadRequest)
			return
		}
		for c, x := range q {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				http.Error(w, fmt.Sprintf("query %d coordinate %d is not finite", i, c), http.StatusBadRequest)
				return
			}
		}
	}

	o := s.getOp()
	o.queries = jreq.Queries
	o.closed = jreq.Closed
	o.trace = tc
	o.enq = time.Now()
	if !s.serveOp(w, o) {
		return
	}
	resp := jsonQueryResponse{Epoch: o.epoch, Closed: o.closed, Results: o.res}
	if resp.Results == nil {
		resp.Results = [][]int{}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Sepdc-Epoch", strconv.FormatUint(o.epoch, 10))
	w.Header().Set("Traceparent", tc.Traceparent())
	json.NewEncoder(w).Encode(resp)
	s.putOp(o)
}

// serveOp dispatches o and maps coalescer outcomes to HTTP errors.
// Returns true when the caller should encode o's results (and then
// return o to the pool).
func (s *server) serveOp(w http.ResponseWriter, o *op) bool {
	if !s.dispatch(o) {
		s.putOp(o)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "serving queues full", http.StatusServiceUnavailable)
		return false
	}
	if o.err != nil {
		err := o.err
		s.putOp(o)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return false
	}
	return true
}

func (s *server) handleSwap(w http.ResponseWriter, req *http.Request) {
	seed := s.cfg.seed + s.gens.Load()
	if arg := req.URL.Query().Get("seed"); arg != "" {
		v, err := strconv.ParseUint(arg, 10, 64)
		if err != nil {
			http.Error(w, "bad seed: "+err.Error(), http.StatusBadRequest)
			return
		}
		seed = v
	}
	epoch, took, err := s.Swap(seed)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"epoch":    epoch,
		"seed":     seed,
		"build_ms": float64(took.Microseconds()) / 1000,
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var rejected, passes, coalesced int64
	rejected = s.rejected.Load()
	for _, r := range s.reps {
		passes += r.passes.Load()
		coalesced += r.coalesc.Load()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"epoch":     s.Epoch(),
		"points":    len(s.points),
		"dim":       s.cfg.d,
		"k":         s.cfg.k,
		"replicas":  s.cfg.replicas,
		"swaps":     s.swapped.Load(),
		"passes":    passes,
		"coalesced": coalesced,
		"rejected":  rejected,
	})
}

// readAll is io.ReadAll into a reusable buffer.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
