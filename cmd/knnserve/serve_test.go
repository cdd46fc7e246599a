package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sepdc"
	"sepdc/internal/obs"
	"sepdc/internal/serveproto"
	"sepdc/internal/xrand"
)

// serveChaosSpecs mirrors the library's chaos profile table: every
// fault-injection route the build and serving paths own. The golden e2e
// contract must hold under each.
var serveChaosSpecs = map[string]string{
	"clean":        "",
	"sep-fail-all": "sep-fail=all",
	"punt-all":     "punt=all",
	"march-abort":  "march-abort=all",
	"march-level":  "march-level=1",
	"kitchen-sink": "sep-fail=all;punt=all;march-level=1;stall=200us",
}

func testConfig() serverConfig {
	return serverConfig{
		n: 900, d: 2, k: 3, seed: 11,
		replicas: 2, workers: 2,
		queue: 64,
	}
}

// newTestServer boots a server plus an httptest front end and tears both
// down in order (HTTP first — Close requires no in-flight handlers).
func newTestServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// goldenBatcher builds the reference answers the direct way: a Batcher
// on a structure over the server's own retained points. The tree seed
// deliberately differs from every seed the server will ever use —
// covering-ball answers are a function of the point set and k only,
// which is exactly what makes hot snapshot swaps answer-preserving.
func goldenBatcher(t *testing.T, srv *server) *sepdc.Batcher {
	t.Helper()
	qs, err := sepdc.NewQueryStructure(srv.points, srv.cfg.k, 987654321)
	if err != nil {
		t.Fatal(err)
	}
	return qs.NewBatcher(2)
}

func golden(t *testing.T, bt *sepdc.Batcher, queries [][]float64, closed bool) [][]int {
	t.Helper()
	var err error
	if closed {
		err = bt.RunClosed(queries)
	} else {
		err = bt.Run(queries)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int, len(queries))
	for i := range queries {
		out[i] = append([]int{}, bt.Result(i)...)
	}
	return out
}

func testQueries(srv *server, n int, seed uint64) [][]float64 {
	g := xrand.New(seed)
	out := make([][]float64, n)
	for i := range out {
		if i%3 == 0 {
			out[i] = srv.points[g.IntN(len(srv.points))]
		} else {
			out[i] = g.InCube(srv.cfg.d)
		}
	}
	return out
}

func postJSON(t *testing.T, client *http.Client, url string, queries [][]float64, closed bool) ([][]int, uint64) {
	t.Helper()
	body, _ := json.Marshal(jsonQueryRequest{Queries: queries, Closed: closed})
	resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /query: %s: %s", resp.Status, msg)
	}
	var jr jsonQueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Closed != closed {
		t.Fatalf("response closed = %v, want %v", jr.Closed, closed)
	}
	return jr.Results, jr.Epoch
}

func postBinary(t *testing.T, client *http.Client, url string, queries [][]float64, dim int, closed bool) ([][]uint32, uint64) {
	t.Helper()
	frame := serveproto.AppendRequest(nil, queries, dim, closed)
	resp, err := client.Post(url+"/query", binaryContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /query (binary): %s: %s", resp.Status, msg)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := serveproto.DecodeResponse(raw)
	if err != nil {
		t.Fatalf("response frame: %v", err)
	}
	if dec.Closed != closed {
		t.Fatalf("response closed = %v, want %v", dec.Closed, closed)
	}
	return dec.Rows, dec.Epoch
}

func sameRowInts(got []int, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func sameRowU32(got []uint32, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if int(got[i]) != want[i] {
			return false
		}
	}
	return true
}

// TestServeGoldenE2E is the end-to-end golden contract: under every
// chaos profile, answers served over HTTP — both the JSON and the binary
// wire path, open and closed membership — must be element-for-element
// identical to a direct Batcher over the same point set.
func TestServeGoldenE2E(t *testing.T) {
	for name, spec := range serveChaosSpecs {
		t.Run(name, func(t *testing.T) {
			if spec != "" {
				t.Setenv("KNN_CHAOS", spec)
			}
			srv, ts := newTestServer(t, testConfig())
			ref := goldenBatcher(t, srv)
			queries := testQueries(srv, 120, 71)

			for _, closed := range []bool{false, true} {
				want := golden(t, ref, queries, closed)
				gotJ, _ := postJSON(t, ts.Client(), ts.URL, queries, closed)
				if len(gotJ) != len(want) {
					t.Fatalf("JSON: %d rows, want %d", len(gotJ), len(want))
				}
				for i := range want {
					if !sameRowInts(gotJ[i], want[i]) {
						t.Fatalf("JSON closed=%v query %d: %v, want %v", closed, i, gotJ[i], want[i])
					}
				}
				gotB, _ := postBinary(t, ts.Client(), ts.URL, queries, srv.cfg.d, closed)
				for i := range want {
					if !sameRowU32(gotB[i], want[i]) {
						t.Fatalf("binary closed=%v query %d: %v, want %v", closed, i, gotB[i], want[i])
					}
				}
			}
		})
	}
}

// TestServeValidation: malformed requests are rejected at the front
// door with 400s, not passed into the engine.
func TestServeValidation(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	client := ts.Client()
	cases := []struct {
		name string
		ct   string
		body []byte
	}{
		{"bad json", "application/json", []byte(`{"queries":[[0.1`)},
		{"wrong dim", "application/json", []byte(`{"queries":[[0.1,0.2,0.3]]}`)},
		{"non-finite", "application/json", []byte(`{"queries":[[0.1,1e999]]}`)},
		{"bad magic", binaryContentType, []byte("NOPExxxxxxxxxxxx")},
		{"binary wrong dim", binaryContentType,
			serveproto.AppendRequest(nil, [][]float64{{1, 2, 3}}, 3, false)},
	}
	for _, tc := range cases {
		resp, err := client.Post(ts.URL+"/query", tc.ct, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	_ = srv
}

// TestServeSwapMidStream drives waves of queries with snapshot swaps
// interleaved between and DURING them: every answer stays golden, the
// epoch advances, and every superseded generation is released with zero
// passes still pinned to it.
func TestServeSwapMidStream(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())

	var releases atomic.Int64
	var badReleases atomic.Int64
	srv.onRelease = func(g *generation) {
		releases.Add(1)
		if g.inflight.Load() != 0 {
			badReleases.Add(1)
		}
	}

	ref := goldenBatcher(t, srv)
	queries := testQueries(srv, 80, 133)
	want := golden(t, ref, queries, false)
	wantClosed := golden(t, ref, queries, true)

	client := ts.Client()
	epoch0 := srv.Epoch()

	const swaps = 5
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for i := 0; i < swaps; i++ {
			resp, err := client.Post(ts.URL+"/swap", "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(time.Millisecond)
		}
	}()

	for wave := 0; wave < 12; wave++ {
		got, _ := postJSON(t, client, ts.URL, queries, false)
		for i := range want {
			if !sameRowInts(got[i], want[i]) {
				t.Fatalf("wave %d query %d: %v, want %v", wave, i, got[i], want[i])
			}
		}
		gotC, _ := postBinary(t, client, ts.URL, queries, srv.cfg.d, true)
		for i := range wantClosed {
			if !sameRowU32(gotC[i], wantClosed[i]) {
				t.Fatalf("wave %d closed query %d: %v, want %v", wave, i, gotC[i], wantClosed[i])
			}
		}
	}
	swapWG.Wait()

	if got := srv.Epoch(); got <= epoch0 {
		t.Errorf("epoch did not advance: %d -> %d", epoch0, got)
	}
	if got := srv.swapped.Load(); got != swaps {
		t.Errorf("swaps recorded = %d, want %d", got, swaps)
	}
	if badReleases.Load() != 0 {
		t.Errorf("%d generations released with passes still pinned", badReleases.Load())
	}

	// Swapped-out generations (all but the live one) must have drained
	// and released by now — swap drops the publisher ref, and no pass
	// outlives its HTTP request.
	deadline := time.Now().Add(2 * time.Second)
	for releases.Load() < swaps && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := releases.Load(); got != swaps {
		t.Errorf("released %d generations, want %d (stale snapshot leak)", got, swaps)
	}
}

// TestServeRaceHammer is the -race workout: concurrent query traffic on
// both wire formats, repeated snapshot swaps, and a telemetry observer
// snapshotting mid-flight. Run via `make race-serve`. Correctness of
// answers is golden-checked under fire; release ordering is asserted by
// the inflight counter.
func TestServeRaceHammer(t *testing.T) {
	cfg := testConfig()
	cfg.n = 500
	srv, ts := newTestServer(t, cfg)

	var badReleases atomic.Int64
	srv.onRelease = func(g *generation) {
		if g.inflight.Load() != 0 {
			badReleases.Add(1)
		}
	}

	ref := goldenBatcher(t, srv)
	queries := testQueries(srv, 40, 7)
	want := golden(t, ref, queries, false)
	wantClosed := golden(t, ref, queries, true)

	client := ts.Client()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}

	const clients, rounds = 4, 30
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				closed := (c+i)%2 == 0
				if c%2 == 0 {
					rows, _ := postBinaryE(client, ts.URL, queries, srv.cfg.d, closed)
					if rows == nil {
						continue // shed under saturation is legal
					}
					ws := want
					if closed {
						ws = wantClosed
					}
					for qi := range ws {
						if !sameRowU32(rows[qi], ws[qi]) {
							report("client %d round %d query %d: wrong answer", c, i, qi)
							return
						}
					}
				} else {
					body, _ := json.Marshal(jsonQueryRequest{Queries: queries, Closed: closed})
					resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
					if err != nil {
						report("client %d: %v", c, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
						report("client %d: status %d", c, resp.StatusCode)
						return
					}
				}
			}
		}(c)
	}

	// Swapper: rebuild and publish as fast as the build allows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, _, err := srv.Swap(srv.cfg.seed + uint64(100+i)); err != nil {
				report("swap %d: %v", i, err)
				return
			}
		}
	}()

	// Observer: concurrent telemetry snapshots across the swaps.
	obsDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(obsDone)
		for i := 0; i < 200; i++ {
			if rec := obs.LookupServe(observerName(0)); rec != nil {
				rec.Snapshot()
			}
			for _, j := range srv.journals {
				j.Snapshot()
			}
		}
	}()

	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if badReleases.Load() != 0 {
		t.Fatalf("%d generations released while passes were pinned", badReleases.Load())
	}
}

// postBinaryE is postBinary without the test dependency: nil rows on
// any non-200 (the race hammer tolerates 503 shedding).
func postBinaryE(client *http.Client, url string, queries [][]float64, dim int, closed bool) ([][]uint32, uint64) {
	frame := serveproto.AppendRequest(nil, queries, dim, closed)
	resp, err := client.Post(url+"/query", binaryContentType, bytes.NewReader(frame))
	if err != nil {
		return nil, 0
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, 0
	}
	dec, err := serveproto.DecodeResponse(raw)
	if err != nil {
		return nil, 0
	}
	return dec.Rows, dec.Epoch
}

// TestCoalescerSteadyStateAllocs pins the coalescer's zero-allocation
// steady state: once ops and arenas are warm, submit → coalesce → serve
// → signal allocates nothing. The HTTP layer is bypassed (requests and
// JSON allocate by nature); this is the layer the issue holds to zero.
func TestCoalescerSteadyStateAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.replicas = 1
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	queries := testQueries(srv, 8, 99)
	o := newOp()
	o.queries = queries
	run := func() {
		if !srv.reps[0].submit(o) {
			t.Fatal("queue full with no traffic")
		}
		<-o.done
		if o.err != nil {
			t.Fatal(o.err)
		}
	}
	for i := 0; i < 1000; i++ { // warm engine arenas, op arena, telemetry rings
		run()
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("coalescer steady state allocates: %.2f allocs/op", avg)
	}
}

// TestAdmissionControl: the bounded queue is the admission valve — a
// replica whose queue is full refuses the op, and dispatch surfaces the
// refusal (503 at the HTTP layer) instead of queueing unboundedly.
func TestAdmissionControl(t *testing.T) {
	cfg := testConfig()
	cfg.replicas = 1
	cfg.queue = 1
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The valve is replica.submit; test it directly on an unstarted
	// replica so the queue stays full deterministically.
	r := &replica{srv: srv, idx: 0, ch: make(chan *op, 1), stop: make(chan struct{})}
	o1, o2 := newOp(), newOp()
	if !r.submit(o1) {
		t.Fatal("first submit refused on empty queue")
	}
	if r.submit(o2) {
		t.Fatal("second submit accepted past the queue bound")
	}
}

// TestCoalescerSharesPass: ops already queued when the coalescer picks
// one up share its pass — one pass per membership mode — and a queue
// holding more than maxBatch queries splits across passes. Every op's
// answers stay golden either way.
func TestCoalescerSharesPass(t *testing.T) {
	t.Run("mixed modes", func(t *testing.T) {
		const ops = 12
		r := serveQueued(t, ops, func(i int) (int, bool) { return 1 + i%5, i%2 == 1 })
		if p := r.passes.Load(); p != 2 {
			t.Errorf("%d passes, want 2 (one per membership mode)", p)
		}
		if c := r.coalesc.Load(); c != ops {
			t.Errorf("coalesced %d ops, want %d", c, ops)
		}
	})
	t.Run("over maxBatch", func(t *testing.T) {
		r := serveQueued(t, 8, func(int) (int, bool) { return maxBatch / 4, false })
		if p := r.passes.Load(); p < 2 {
			t.Errorf("%d passes for %d queued queries, want >= 2", p, 2*maxBatch)
		}
	})
}

// serveQueued queues n ops (shape(i) gives op i's query count and
// membership mode) on a replica whose loop has not started, so all are
// waiting when it first looks; then it starts the loop, waits for every
// op, checks each answer against the golden Batcher, and returns the
// stopped replica. The replica shares replica 0's Batchers, which stay
// idle: no traffic reaches srv.reps.
func serveQueued(t *testing.T, n int, shape func(i int) (int, bool)) *replica {
	t.Helper()
	cfg := testConfig()
	cfg.replicas = 1
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ref := goldenBatcher(t, srv)

	r := newReplica(srv, 0)
	ops := make([]*op, n)
	for i := range ops {
		nq, closed := shape(i)
		ops[i] = newOp()
		ops[i].queries = testQueries(srv, nq, uint64(300+i))
		ops[i].closed = closed
		if !r.submit(ops[i]) {
			t.Fatalf("op %d refused", i)
		}
	}
	srv.wg.Add(1)
	go r.loop()
	for _, o := range ops {
		<-o.done
	}
	close(r.stop)

	for i, o := range ops {
		if o.err != nil {
			t.Fatalf("op %d: %v", i, o.err)
		}
		want := golden(t, ref, o.queries, o.closed)
		for qi := range want {
			if !sameRowInts(o.res[qi], want[qi]) {
				t.Fatalf("op %d query %d: %v, want %v", i, qi, o.res[qi], want[qi])
			}
		}
	}
	return r
}

// TestServeLoneOpNotHeld: on an idle server a lone request is served as
// soon as the coalescer picks it up; nothing holds its pass open waiting
// for company. The median tolerates one scheduler hiccup.
func TestServeLoneOpNotHeld(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	const requests = 24
	queries := testQueries(srv, 4, 17)
	sent := map[sepdc.TraceContext]bool{}
	for i := 0; i < requests; i++ {
		postJSON(t, ts.Client(), ts.URL, queries, i%2 == 1)
		sent[sepdc.GenerateTrace(srv.cfg.seed, uint64(i))] = true
	}
	var coalesce []int64
	for _, rt := range srv.traces.Snapshot() {
		if sent[rt.Trace] {
			coalesce = append(coalesce, rt.CoalesceNs)
		}
	}
	if len(coalesce) != requests {
		t.Fatalf("%d traces for %d requests", len(coalesce), requests)
	}
	slices.Sort(coalesce)
	if med := time.Duration(coalesce[requests/2]); med >= time.Millisecond {
		t.Fatalf("median coalesce %v for a lone request, want < 1ms", med)
	}
}

// TestServeHealthz: the health endpoint reports the serving shape and
// progresses its counters.
func TestServeHealthz(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	postJSON(t, ts.Client(), ts.URL, testQueries(srv, 10, 3), false)

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "ok" {
		t.Fatalf("status = %v", doc["status"])
	}
	if doc["passes"].(float64) < 1 {
		t.Fatalf("no passes recorded: %v", doc)
	}
	if int(doc["points"].(float64)) != len(srv.points) {
		t.Fatalf("points = %v, want %d", doc["points"], len(srv.points))
	}
}

// TestServeMetricsExposed: the serving process exposes its per-replica
// observers on /metrics after traffic.
func TestServeMetricsExposed(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	postJSON(t, ts.Client(), ts.URL, testQueries(srv, 32, 5), false)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("sepdc_serve_serve0_")) &&
		!bytes.Contains(body, []byte("sepdc_serve_serve1_")) {
		t.Fatalf("/metrics missing serve observer series:\n%.2000s", body)
	}
}

// TestServeTraceEndToEnd: a request carrying a W3C traceparent is
// traceable through the whole serving path — the context is echoed on
// the response, the request's span summary appears on /traces, every
// per-query journal event is stamped with the trace id and a derived
// child span, and the trace renders as Chrome trace_event JSON.
func TestServeTraceEndToEnd(t *testing.T) {
	const (
		hdr     = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
		traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	)
	srv, ts := newTestServer(t, testConfig())
	client := ts.Client()
	queries := testQueries(srv, 6, 55)

	body, _ := json.Marshal(jsonQueryRequest{Queries: queries})
	req, err := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", hdr)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: %s", resp.Status)
	}
	if got := resp.Header.Get("Traceparent"); got != hdr {
		t.Fatalf("traceparent echo %q, want %q", got, hdr)
	}

	// The request's queue → coalesce → pass span summary is on /traces.
	get := func(path string) (int, string) {
		t.Helper()
		r, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r.StatusCode, string(b)
	}
	status, traces := get("/traces?id=" + traceID)
	if status != http.StatusOK {
		t.Fatalf("/traces?id=: %d: %s", status, traces)
	}
	var line struct {
		Engine  string `json:"engine"`
		TraceID string `json:"trace_id"`
		SpanID  string `json:"span_id"`
		Sampled bool   `json:"sampled"`
		QueueNs int64  `json:"queue_ns"`
		PassNs  int64  `json:"pass_ns"`
		TotalNs int64  `json:"total_ns"`
		Queries int32  `json:"queries"`
	}
	if err := json.Unmarshal([]byte(strings.Split(strings.TrimSpace(traces), "\n")[0]), &line); err != nil {
		t.Fatalf("bad /traces line: %v\n%s", err, traces)
	}
	if line.Engine != "serve" || line.TraceID != traceID || !line.Sampled ||
		line.Queries != int32(len(queries)) {
		t.Fatalf("/traces line: %+v", line)
	}
	if line.QueueNs < 0 || line.PassNs <= 0 || line.TotalNs < line.PassNs {
		t.Fatalf("span split not coherent: %+v", line)
	}

	// Every query of the request journals under the trace, each with its
	// own derived child span; the sampled flag forced the timed path.
	_, journal := get("/journal")
	spans := map[string]bool{}
	for _, jl := range strings.Split(strings.TrimSpace(journal), "\n") {
		var ev struct {
			TraceID   string `json:"trace_id"`
			SpanID    string `json:"span_id"`
			Sampled   bool   `json:"sampled"`
			LatencyNs int64  `json:"latency_ns"`
		}
		if err := json.Unmarshal([]byte(jl), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", jl, err)
		}
		if ev.TraceID != traceID {
			continue
		}
		if len(ev.SpanID) != 16 {
			t.Fatalf("journal event span id %q", ev.SpanID)
		}
		if !ev.Sampled || ev.LatencyNs <= 0 {
			t.Fatalf("sampled traceparent did not force the timed path: %s", jl)
		}
		spans[ev.SpanID] = true
	}
	if len(spans) != len(queries) {
		t.Fatalf("journal carries %d spans for the trace, want %d", len(spans), len(queries))
	}

	// The trace renders as Chrome trace_event JSON with request and
	// per-query lanes.
	status, chrome := get("/traces?id=" + traceID + "&format=chrome")
	if status != http.StatusOK {
		t.Fatalf("chrome render: %d: %s", status, chrome)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome), &doc); err != nil {
		t.Fatalf("chrome render not JSON: %v", err)
	}
	byName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name]++
	}
	for _, want := range []string{"queue", "coalesce", "pass", "descend", "scan"} {
		if byName[want] == 0 {
			t.Fatalf("chrome render missing %q spans: %v", want, byName)
		}
	}
	if byName["descend"] != len(queries) {
		t.Fatalf("%d descend spans, want one per query (%d)", byName["descend"], len(queries))
	}

	// The trace rides the latency histograms as an OpenMetrics exemplar
	// even though no tick-sampled observation has landed yet — exactly
	// the fresh-recorder state a scrape sees right after a swap. A
	// forced query must never feed the bucket counts themselves.
	_, metrics := get("/metrics")
	if !strings.Contains(metrics, `trace_id="`+traceID+`"`) {
		t.Fatalf("traced request left no exemplar on /metrics:\n%s", metrics)
	}

	// A request without a traceparent gets a server-generated, unsampled
	// context — still echoed, still valid.
	resp2, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	gen, ok := sepdc.ParseTraceparent(resp2.Header.Get("Traceparent"))
	if !ok || gen.Sampled {
		t.Fatalf("generated traceparent %q (ok=%v sampled=%v)",
			resp2.Header.Get("Traceparent"), ok, gen.Sampled)
	}
}

// TestCoalescerTracedOpAllocs: tracing must not cost the coalescer its
// zero-allocation steady state — a warm op carrying a sampled trace
// context (the most expensive variant: timed engine path, journal trace
// stamps, and a TraceSink publish per op) still allocates nothing.
func TestCoalescerTracedOpAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.replicas = 1
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc, ok := sepdc.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("test vector rejected")
	}
	queries := testQueries(srv, 8, 99)
	o := newOp()
	o.queries = queries
	o.trace = tc
	run := func() {
		o.enq = time.Now()
		if !srv.reps[0].submit(o) {
			t.Fatal("queue full with no traffic")
		}
		<-o.done
		if o.err != nil {
			t.Fatal(o.err)
		}
	}
	for i := 0; i < 1000; i++ { // warm arenas, rings, and the trace sink
		run()
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("traced coalescer steady state allocates: %.2f allocs/op", avg)
	}
	if srv.traces.Snapshot() == nil {
		t.Fatal("no request traces published")
	}
}
