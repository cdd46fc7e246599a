package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sepdc"
	"sepdc/internal/pointgen"
	"sepdc/internal/serveproto"
	"sepdc/internal/xrand"
)

const (
	serveDim       = 2
	serveK         = 4
	serveRate      = 200.0 // Poisson arrivals per second
	maxReqQueries  = 64
	swapInterval   = 2 * time.Second
	sloLimit       = 10 * time.Millisecond
	binaryType     = "application/x-sepdc-query"
	bootTimeout    = 60 * time.Second
	requestTimeout = 10 * time.Second
	warmupRequests = 64
)

// serveConns is the number of keep-alive connections the load generator
// holds: two, or fewer on a host with fewer CPUs.
func serveConns() int { return min(2, runtime.NumCPU()) }

func serveN(cfg *config) int {
	if cfg.tiny {
		return 2000
	}
	return 20000
}

// job is one scheduled query request.
type job struct {
	due     time.Duration // offset from the schedule's start
	queries [][]float64
	closed  bool
	tc      sepdc.TraceContext
	want    [][]int32
}

// outcomeRec is what one job measured; each is written by the one worker
// that ran the job and read after all workers have finished.
type outcomeRec struct {
	status   int // 0 = transport failure
	wrong    bool
	released time.Time // when the generator released it
	// Set by httptrace hooks, which run on the transport's goroutines:
	// nanoseconds since clockBase.
	wrote     atomic.Int64 // request fully written (traced)
	firstByte atomic.Int64 // first response byte (traced)
	done      time.Time
	encode    time.Duration
	decode    time.Duration
}

// clockBase anchors the monotonic instants the httptrace hooks store.
var clockBase = time.Now()

func at(ns int64) time.Time { return clockBase.Add(time.Duration(ns)) }

// swapRec is one POST /swap.
type swapRec struct {
	status     int
	sent, done time.Time
	buildMs    float64 // the server's reported build time
}

// serveBench drives a knnserve process built from the tree under test.
type serveBench struct {
	cfg       *config
	swapEvery time.Duration // 0: no swaps
	swapper   *http.Client
	srv       *serverProc
	jobs      []job
	clients   []*http.Client
	warmed    bool
}

func setupServe(cfg *config, swaps bool) (bench, error) {
	every := time.Duration(0)
	if swaps {
		every = swapInterval
	}
	return newServeBench(cfg, serveN(cfg), every, time.Duration(cfg.seconds*float64(time.Second)))
}

// newServeBench generates the point set knnserve will generate, a seeded
// open-loop schedule for span, and every request's expected rows from a
// local reference structure built under another seed; then it boots
// knnserve and waits for /healthz. swapEvery > 0 adds a POST /swap at
// that interval.
func newServeBench(cfg *config, n int, swapEvery, span time.Duration) (*serveBench, error) {
	if cfg.knnserve == "" {
		return nil, errors.New("--knnserve is required for the serve workloads")
	}
	points := rows(pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, n, serveDim, xrand.New(cfg.seed))))
	ref, err := sepdc.NewQueryStructure(points, serveK, cfg.seed^0x9e3779b97f4a7c15)
	if err != nil {
		return nil, fmt.Errorf("reference structure: %w", err)
	}
	b := &serveBench{cfg: cfg, swapEvery: swapEvery}
	b.jobs, err = schedule(cfg.seed, points, ref, span)
	if err != nil {
		return nil, err
	}
	if cfg.corrupt {
		b.jobs[0].want[0] = append(b.jobs[0].want[0], -1)
	}
	for i := 0; i < serveConns(); i++ {
		b.clients = append(b.clients, &http.Client{
			Timeout: requestTimeout,
			// One transport per worker, one connection per transport.
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	// Swaps are control traffic, not load: each goes on a connection of
	// its own that closes after it, so a rebuild never holds one of the
	// two load connections.
	b.swapper = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{DisableKeepAlives: true}}
	b.srv, err = startServer(cfg.knnserve,
		"-n", strconv.Itoa(n), "-d", strconv.Itoa(serveDim), "-k", strconv.Itoa(serveK),
		"-seed", strconv.FormatUint(cfg.seed, 10))
	if err != nil {
		return nil, err
	}
	return b, nil
}

// schedule builds the seeded open-loop arrival schedule: Poisson
// arrivals at serveRate, 1-64 queries per request, a third of the
// requests replaying stored points, half of them closed.
func schedule(seed uint64, points [][]float64, ref *sepdc.QueryStructure, span time.Duration) ([]job, error) {
	g := xrand.New(seed ^ 0x5e7e5e7e)
	var jobs []job
	t := 0.0
	for i := uint64(0); ; i++ {
		t += -math.Log(1-g.Float64()) / serveRate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			break
		}
		j := job{due: due, closed: g.Bernoulli(0.5)}
		replay := g.Bernoulli(1.0 / 3)
		nq := 1 + g.IntN(maxReqQueries)
		for q := 0; q < nq; q++ {
			if replay {
				j.queries = append(j.queries, points[g.IntN(len(points))])
			} else {
				j.queries = append(j.queries, g.InCube(serveDim))
			}
		}
		j.tc = sepdc.GenerateTrace(seed, i)
		j.tc.Sampled = i%traceEvery == 0
		jobs = append(jobs, j)
	}
	// Expected rows, one reference pass per membership mode.
	bt := ref.NewBatcher(0)
	for _, closed := range []bool{false, true} {
		var qs [][]float64
		var idx []int
		for i := range jobs {
			if jobs[i].closed == closed {
				qs = append(qs, jobs[i].queries...)
				idx = append(idx, i)
			}
		}
		var err error
		if closed {
			err = bt.RunClosed(qs)
		} else {
			err = bt.Run(qs)
		}
		if err != nil {
			return nil, fmt.Errorf("reference answers: %w", err)
		}
		r := 0
		for _, i := range idx {
			for range jobs[i].queries {
				jobs[i].want = append(jobs[i].want, int32Row(bt.Result(r)))
				r++
			}
		}
	}
	return jobs, nil
}

func (b *serveBench) peakRSSMB() (float64, error) {
	return vmHWMMB(strconv.Itoa(b.srv.cmd.Process.Pid))
}

func (b *serveBench) close() {
	b.srv.stop()
	for _, c := range b.clients {
		c.CloseIdleConnections()
	}
}

// fail stops knnserve and returns err with the server's output attached.
func (b *serveBench) fail(err error) error {
	b.srv.stop()
	return fmt.Errorf("%w\nknnserve output:\n%s", err, b.srv.logs())
}

func (b *serveBench) url(path string) string { return b.srv.base + path }

func (b *serveBench) run(dur time.Duration, traced bool) (*segment, error) {
	if !b.warmed {
		if err := b.warmup(); err != nil {
			return nil, b.fail(err)
		}
		b.warmed = true
	}
	// Every segment replays the schedule from its start, so the untraced
	// and traced halves of a traced run send the same requests.
	hi := 0
	for hi < len(b.jobs) && b.jobs[hi].due < dur {
		hi++
	}
	jobs := b.jobs[:hi]

	var h0 health
	if traced {
		var err error
		if h0, err = b.health(); err != nil {
			return nil, b.fail(err)
		}
	}
	// The generator releases each job at its due time into a queue the
	// connections drain; a job waits there while both are busy.
	recs := make([]outcomeRec, len(jobs))
	ready := make(chan int, len(jobs)) // every job fits: the generator never blocks
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	swapped := make(chan []swapRec, 1)
	go func() { swapped <- b.swaps(start, dur) }()
	for w := range b.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var buf []byte
			for i := range ready {
				buf = b.do(c, &jobs[i], &recs[i], buf, traced)
			}
		}(b.clients[w])
	}
	for i := range jobs {
		sleepUntil(start.Add(jobs[i].due))
		recs[i].released = time.Now()
		ready <- i
	}
	close(ready)
	wg.Wait()
	swaps := <-swapped
	// Throughput over the span from the first due time to the last answer.
	var last time.Time
	for i := range recs {
		if recs[i].done.After(last) {
			last = recs[i].done
		}
	}
	wall := last.Sub(start)

	seg := newSegment()
	var lat, late, connWait, server, enc, dec, swapRT, swapBuild []float64
	var okQueries, missed int64
	for _, sw := range swaps {
		seg.attempted++
		if sw.status != http.StatusOK {
			seg.failed++
			continue
		}
		swapRT = append(swapRT, sw.done.Sub(sw.sent).Seconds())
		swapBuild = append(swapBuild, sw.buildMs)
	}
	for i := range jobs {
		j, r := &jobs[i], &recs[i]
		due := start.Add(j.due)
		seg.attempted++
		ok := r.status == http.StatusOK && !r.wrong
		switch {
		case r.status != http.StatusOK:
			seg.failed++
		case r.wrong:
			seg.wrong++
		}
		if !ok || r.done.Sub(due) > sloLimit {
			missed++
		}
		if !ok {
			continue
		}
		okQueries += int64(len(j.queries))
		lat = append(lat, r.done.Sub(due).Seconds()*1e3)
		late = append(late, r.released.Sub(due).Seconds()*1e3)
		if traced {
			connWait = append(connWait, at(r.wrote.Load()).Sub(due).Seconds()*1e3)
			server = append(server, float64(r.firstByte.Load()-r.wrote.Load())/1e6)
			enc = append(enc, r.encode.Seconds()*1e6)
			dec = append(dec, r.decode.Seconds()*1e6)
		}
	}
	if len(lat) == 0 {
		return nil, b.fail(fmt.Errorf("no request succeeded (%d attempted)", seg.attempted))
	}
	if seg.failed+seg.wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed, %d wrong; knnserve output:\n%s\n", seg.failed, seg.wrong, b.srv.logs())
	}
	seg.e2e.set("p50_ms", median(lat), "ms")
	seg.e2e.set("p99_ms", quantile(lat, 0.99), "ms")
	seg.e2e.set("qps", float64(okQueries)/wall.Seconds(), "1/s")
	seg.e2e.set("slo_miss_rate", float64(missed)/float64(len(jobs)), "ratio")
	if b.swapEvery > 0 {
		seg.e2e.set("swap_s", median(swapRT), "s")
	}
	if !traced {
		return seg, nil
	}

	l := seg.layers
	l.set("serveproto.encode_us", median(enc), "us")
	l.set("serveproto.decode_us", median(dec), "us")
	l.set("http.server_ms_p50", median(server), "ms")
	l.set("http.server_ms_p99", quantile(server, 0.99), "ms")
	l.set("loadgen.conn_wait_ms_p50", median(connWait), "ms")
	l.set("loadgen.late_ms_p99", quantile(late, 0.99), "ms")

	// Server-side stages of each request, joined by its trace id.
	stages, err := b.traces()
	if err != nil {
		return nil, b.fail(err)
	}
	var queue, coalesce, pass, resid []float64
	for i := range jobs {
		j, r := &jobs[i], &recs[i]
		st, ok := stages[j.tc.TraceIDString()]
		if !ok || r.status != http.StatusOK {
			continue
		}
		queue = append(queue, float64(st.QueueNs)/1e3)
		coalesce = append(coalesce, float64(st.CoalesceNs)/1e3)
		pass = append(pass, float64(st.PassNs)/1e3)
		srvUs := float64(r.firstByte.Load()-r.wrote.Load()) / 1e3
		resid = append(resid, srvUs-float64(st.QueueNs+st.CoalesceNs+st.PassNs)/1e3)
	}
	if len(queue) == 0 {
		return nil, b.fail(errors.New("/traces retained none of this segment's requests"))
	}
	l.set("knnserve.queue_us_p50", median(queue), "us")
	l.set("knnserve.coalesce_us_p50", median(coalesce), "us")
	l.set("knnserve.coalesce_us_p99", quantile(coalesce, 0.99), "us")
	l.set("knnserve.pass_us_p50", median(pass), "us")
	l.set("knnserve.pass_us_p99", quantile(pass, 0.99), "us")
	l.set("knnserve.residual_us_p50", median(resid), "us")
	l.set("knnserve.traced_requests", float64(len(queue)), "count")

	h1, err := b.health()
	if err != nil {
		return nil, b.fail(err)
	}
	answered := float64(len(lat))
	l.set("knnserve.queries_per_pass", float64(okQueries)/float64(h1.Passes-h0.Passes), "count")
	l.set("knnserve.coalesced_share", float64(h1.Coalesced-h0.Coalesced)/answered, "ratio")
	l.set("knnserve.rejected", float64(h1.Rejected-h0.Rejected), "count")

	if b.swapEvery > 0 {
		var inSwap []float64
		for i := range jobs {
			j, r := &jobs[i], &recs[i]
			if r.status != http.StatusOK {
				continue
			}
			due := start.Add(j.due)
			for _, s := range swaps {
				if due.Before(s.done) && r.done.After(s.sent) {
					inSwap = append(inSwap, r.done.Sub(due).Seconds()*1e3)
					break
				}
			}
		}
		l.set("snapshot.swap_build_ms", median(swapBuild), "ms")
		l.set("serve.in_swap_p99_ms", quantile(inSwap, 0.99), "ms")
	}
	return seg, nil
}

// do runs one job on client c and records its outcome in r. buf is the
// worker's reusable request buffer.
func (b *serveBench) do(c *http.Client, j *job, r *outcomeRec, buf []byte, traced bool) []byte {
	t0 := time.Now()
	buf = serveproto.AppendRequest(buf[:0], j.queries, serveDim, j.closed)
	r.encode = time.Since(t0)
	req, err := http.NewRequest(http.MethodPost, b.url("/query"), bytes.NewReader(buf))
	if err != nil {
		r.done = time.Now()
		return buf
	}
	req.Header.Set("Content-Type", binaryType)
	req.Header.Set("Traceparent", j.tc.Traceparent())
	if traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { r.wrote.Store(int64(time.Since(clockBase))) },
			GotFirstResponseByte: func() { r.firstByte.Store(int64(time.Since(clockBase))) },
		}))
	}
	resp, err := c.Do(req)
	if err != nil {
		r.done = time.Now()
		return buf
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	if err != nil {
		return buf
	}
	r.status = resp.StatusCode
	if r.status != http.StatusOK {
		return buf
	}
	t0 = time.Now()
	dr, err := serveproto.DecodeResponse(body)
	r.decode = time.Since(t0)
	r.wrong = err != nil || !equalResponse(dr, j.want)
	return buf
}

func equalResponse(dr *serveproto.Response, want [][]int32) bool {
	if len(dr.Rows) != len(want) {
		return false
	}
	for i, row := range dr.Rows {
		if len(row) != len(want[i]) {
			return false
		}
		for k, id := range row {
			if int32(id) != want[i][k] {
				return false
			}
		}
	}
	return true
}

// sleepUntil blocks the calling thread in nanosleep until t. Go's timers
// wait in whole milliseconds here, which released jobs about half a
// millisecond late at the median; nanosleep is late by under 0.1 ms.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// swaps posts /swap every swapEvery after start until dur has passed.
func (b *serveBench) swaps(start time.Time, dur time.Duration) []swapRec {
	var out []swapRec
	for at := b.swapEvery; b.swapEvery > 0 && at < dur; at += b.swapEvery {
		time.Sleep(time.Until(start.Add(at)))
		r := swapRec{sent: time.Now()}
		r.status, r.buildMs = b.swap()
		r.done = time.Now()
		out = append(out, r)
	}
	return out
}

// swap posts /swap and returns the status and the server's build time.
func (b *serveBench) swap() (int, float64) {
	resp, err := b.swapper.Post(b.url("/swap"), "application/json", nil)
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var out struct {
		BuildMs float64 `json:"build_ms"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil {
		return resp.StatusCode, 0
	}
	return resp.StatusCode, out.BuildMs
}

// warmup sends requests back to back (outside any schedule) until the
// connections and server pools are warm, checking every answer.
func (b *serveBench) warmup() error {
	q := b.jobs[:min(warmupRequests, len(b.jobs))]
	var wg sync.WaitGroup
	errs := make([]error, len(b.clients))
	for w, c := range b.clients {
		wg.Add(1)
		go func(w int, c *http.Client) {
			defer wg.Done()
			var buf []byte
			for i := w; i < len(q); i += len(b.clients) {
				var r outcomeRec
				buf = b.do(c, &q[i], &r, buf, false)
				if r.status != http.StatusOK || r.wrong {
					errs[w] = fmt.Errorf("warm-up request failed: status %d, wrong answer %v", r.status, r.wrong)
					return
				}
			}
		}(w, c)
	}
	wg.Wait()
	if b.cfg.corrupt {
		return nil // the corrupted answer must surface in the measured run
	}
	return errors.Join(errs...)
}

// health is knnserve's /healthz counter block.
type health struct {
	Passes    int64 `json:"passes"`
	Coalesced int64 `json:"coalesced"`
	Rejected  int64 `json:"rejected"`
}

func (b *serveBench) health() (health, error) {
	var h health
	resp, err := b.clients[0].Get(b.url("/healthz"))
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("/healthz: %s", resp.Status)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// stage is one request's server-side span summary from /traces.
type stage struct {
	TraceID    string `json:"trace_id"`
	QueueNs    int64  `json:"queue_ns"`
	CoalesceNs int64  `json:"coalesce_ns"`
	PassNs     int64  `json:"pass_ns"`
}

// traces fetches the request traces knnserve retains, keyed by trace id:
// one read after the segment instead of one /traces?id= lookup per
// request, so the lookups do not load the server while it is measured.
func (b *serveBench) traces() (map[string]stage, error) {
	resp, err := b.clients[0].Get(b.url("/traces?name=serve"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/traces: %s", resp.Status)
	}
	out := map[string]stage{}
	dec := json.NewDecoder(resp.Body)
	for {
		var s stage
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("/traces: %w", err)
		}
		out[s.TraceID] = s
	}
}

// ---- knnserve process lifecycle ----

// serverProc is a running knnserve. Every started server is registered
// so that any exit path, including signals and the run-time watchdog,
// can stop it.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	out     lockedBuffer // stdout and stderr
	exited  chan struct{}
	stopped sync.Once
}

var (
	liveMu  sync.Mutex
	liveSrv = map[*serverProc]bool{}
)

func stopAllServers() {
	liveMu.Lock()
	srvs := make([]*serverProc, 0, len(liveSrv))
	for s := range liveSrv {
		srvs = append(srvs, s)
	}
	liveMu.Unlock()
	for _, s := range srvs {
		s.stop()
	}
}

// startServer starts knnserve on a free loopback port and waits until
// /healthz answers. A boot that loses the port race is retried.
func startServer(bin string, args ...string) (*serverProc, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var s *serverProc
		if s, err = tryStart(bin, args); err == nil {
			return s, nil
		}
	}
	return nil, err
}

func tryStart(bin string, args []string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &serverProc{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout = &s.out
	s.cmd.Stderr = &s.out
	// The kernel kills knnserve if this process dies without reaping it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start knnserve: %w", err)
	}
	liveMu.Lock()
	liveSrv[s] = true
	liveMu.Unlock()
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()

	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(bootTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("knnserve exited during boot:\n%s", s.logs())
		default:
		}
		if resp, err := c.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("knnserve did not answer /healthz within %v:\n%s", bootTimeout, s.logs())
}

// stop asks knnserve to shut down, kills it if it has not exited within
// five seconds, and waits until it has exited.
func (s *serverProc) stop() {
	s.stopped.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(5 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
		liveMu.Lock()
		delete(liveSrv, s)
		liveMu.Unlock()
	})
}

func (s *serverProc) logs() string { return s.out.String() }

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// lockedBuffer is a bytes.Buffer safe for the exec copier to write while
// another goroutine reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
