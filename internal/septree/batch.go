package septree

import (
	"sync"
	"sync/atomic"
	"time"

	"sepdc/internal/chaos"
	"sepdc/internal/obs"
	"sepdc/internal/pool"
)

// Batch is a reusable batched-query engine over a Frozen tree. One Batch
// owns a fixed set of strands (worker-shard pairs); each Run fans the
// query slice across them through the shared worker pool, with queries
// handed out in chunks off one atomic counter so stragglers self-balance.
//
// Every strand appends result ids into its own arena and records a
// (shard, start, end) span per query, so the steady state — capacities
// warmed up by earlier runs — performs zero heap allocations per Run:
// the task closures are pre-allocated at construction, dispatch is one
// pool submission per strand (a slot handoff to a worker still spinning
// after the previous Run, or a channel send that wakes a parked one), and
// result storage is recycled.
//
// A Batch is NOT safe for concurrent use; callers serialize Runs (or use
// one Batch per goroutine over the same Frozen, which is safe — the
// Frozen is immutable).
type Batch struct {
	f      *Frozen
	pool   *pool.Pool
	shards []batchShard
	submit []func() // pre-allocated strand closures (strands 1..W-1)
	wg     sync.WaitGroup

	// Per-run state. queries and traces are only held during Run.
	queries [][]float64
	traces  []obs.TraceContext // per-query trace contexts (nil = untraced run)
	spans   []span
	next    atomic.Int64
	nq      int64
	closed  bool

	// inj is the serving-side chaos seam (nil = no injection, one
	// predictable branch per claimed chunk): the stall clause delays a
	// strand before each chunk it processes, modeling a lagging serving
	// worker without changing any answer.
	inj *chaos.Injector

	// curBatch is the 1-based ordinal of the Run in flight, stamped on
	// journal events. Written between runs, read by strands during one.
	curBatch int64

	// Cumulative engine statistics.
	batches int64
	latency obs.LogHist
}

type span struct {
	shard      int32
	start, end int32
}

// batchShard is one strand's result arena and counters. Padded so two
// strands' append cursors never share a cache line.
type batchShard struct {
	ids     []int
	queries int64
	nodes   int64
	scanned int64
	// serve and journal are this strand's slots in the attached
	// telemetry recorder and wide-event journal (nil = detached). When
	// either is attached, each query fills its slot of jbuf with plain
	// stores, and the chunk ends in one obs.PublishChunk: one ring copy
	// and one aggregate fold, one lock each, zero allocations.
	serve   *obs.ServeStrand
	journal *obs.JournalStrand
	jbuf    [batchChunk]obs.JournalEvent
	// paths holds each slot's descent path for timed queries; the
	// buffers never shrink, so steady state times without allocating.
	// probe carries one timed query's route and mid-point clock read.
	paths [batchChunk][]int32
	probe Probe
	// tick is the strand's sample clock: with an observer attached,
	// every query advances it and 1 in mask+1 is timed for the
	// recorder's aggregates. Deterministic: no RNG, no clock read.
	tick, mask uint64
	_          [64]byte
}

// batchChunk is how many queries a strand claims per atomic fetch-add:
// large enough that counter contention is negligible, small enough that
// an unlucky strand stuck with deep queries sheds load to the others.
const batchChunk = 16

// NewBatch returns an engine with the given strand count over f.
// workers <= 0 selects GOMAXPROCS. With one strand the engine runs
// entirely on the caller; otherwise strands beyond the first are offered
// to the shared worker pool and degrade to inline execution when it is
// saturated.
func NewBatch(f *Frozen, workers int) *Batch {
	p := pool.Shared()
	if workers <= 0 {
		workers = p.Size()
	}
	b := &Batch{f: f, shards: make([]batchShard, workers)}
	if workers > 1 {
		b.pool = p
		b.submit = make([]func(), workers-1)
		for t := 1; t < workers; t++ {
			t := t
			b.submit[t-1] = func() {
				b.strand(t)
				b.wg.Done()
			}
		}
	}
	return b
}

// Workers returns the engine's strand count.
func (b *Batch) Workers() int { return len(b.shards) }

// Observe attaches a serving telemetry recorder: each strand folds its
// chunks into its own recorder slot (exact query counts; phase-split
// timed samples at the recorder's sampling rate; slowest-query tail with
// descent paths). A nil recorder detaches. Not safe to call concurrently
// with Run; results of timed queries are bit-identical to untimed ones.
func (b *Batch) Observe(r *obs.ServeRecorder) {
	for i := range b.shards {
		sh := &b.shards[i]
		sh.serve = r.Strand(i) // nil recorder hands out nil strands
		sh.tick, sh.mask = 0, uint64(r.SampleEvery()-1)
		sh.allocPaths()
	}
}

// Journal attaches a wide-event journal: each strand publishes one
// fixed-size structured event per served query (batch/query ids,
// destination leaf where known, descent depth, candidates scanned,
// balls reported, phase-split latency for sampled queries) into its own
// bounded ring, one lock per chunk. A nil journal detaches. Not safe to
// call concurrently with Run; answers are unaffected.
func (b *Batch) Journal(j *obs.Journal) {
	for i := range b.shards {
		b.shards[i].journal = j.Strand(i) // nil journal hands out nil strands
		b.shards[i].allocPaths()
	}
}

// allocPaths gives every chunk slot its descent-path buffer once
// telemetry is attached, so the first timed query in a slot does not
// allocate.
func (sh *batchShard) allocPaths() {
	if sh.paths[0] != nil || (sh.serve == nil && sh.journal == nil) {
		return
	}
	for i := range sh.paths {
		sh.paths[i] = make([]int32, 0, 64)
	}
}

// Chaos attaches a fault injector to the serving engine. Only the stall
// clause applies here: each strand sleeps the configured duration before
// every chunk of queries it claims, the serving analogue of the build
// pool's lagging-worker injection — per-batch latency inflates, answers
// are bit-identical. Nil detaches. Not safe to call concurrently with
// Run.
func (b *Batch) Chaos(inj *chaos.Injector) { b.inj = inj }

// Run answers a covering query for every element of queries: the open
// predicate (Covering), or with closed set the boundary-inclusive one
// (CoveringClosed). Results are read back with Result; they remain valid
// until the next Run. Queries must match the tree's dimension — the
// engine does not validate (the public API layer does).
//
// traces carries per-query trace contexts: nil for an untraced run, or
// len(queries) long with traces[i] query i's request context (the zero
// value marks an untraced query). Traced queries stamp their TraceID and
// a per-query derived SpanID on journal events; a trace with the sampled
// flag forces the timed phase-split path (and so an exemplar +
// absolute-timeline journal event) even when the strand's own sample
// tick does not fire. The engine holds the slice only for the duration
// of the run. Answers do not depend on traces.
func (b *Batch) Run(queries [][]float64, traces []obs.TraceContext, closed bool) {
	start := time.Now()
	b.queries, b.traces, b.closed = queries, traces, closed
	b.curBatch = b.batches + 1
	b.nq = int64(len(queries))
	if cap(b.spans) < len(queries) {
		b.spans = make([]span, len(queries))
	} else {
		b.spans = b.spans[:len(queries)]
	}
	for i := range b.shards {
		b.shards[i].ids = b.shards[i].ids[:0]
	}
	b.next.Store(0)

	// Deploy at most one strand per chunk of work; tiny batches stay on
	// the caller. Strand 0 always runs inline on the calling goroutine.
	deploy := len(b.shards)
	if need := int((b.nq + batchChunk - 1) / batchChunk); deploy > need {
		deploy = need
	}
	if deploy > 1 {
		b.wg.Add(deploy - 1)
		for t := 1; t < deploy; t++ {
			if !b.pool.TrySubmit(b.submit[t-1]) {
				b.submit[t-1]()
			}
		}
	}
	b.strand(0)
	if deploy > 1 {
		b.wg.Wait()
	}
	b.queries, b.traces = nil, nil
	b.batches++
	b.latency.Observe(time.Since(start).Nanoseconds())
}

// traceOf returns query qi's request trace context and its derived
// per-query span id (ChildSpan of the request span, salted with the
// query index — deterministic, collision-free within a request). The
// untraced-run fast path is the tr == nil check the callers hoist.
func traceOf(tr []obs.TraceContext, qi int64) (obs.TraceContext, uint64) {
	if tr == nil {
		return obs.TraceContext{}, 0
	}
	tc := tr[qi]
	if !tc.Valid() {
		return tc, 0
	}
	return tc, obs.ChildSpan(tc.Span, uint64(qi))
}

// strand is one worker's loop: claim a chunk of query indices, answer
// each into this strand's arena, repeat until the batch is drained.
func (b *Batch) strand(id int) {
	sh := &b.shards[id]
	f := b.f
	closed := b.closed
	tr := b.traces
	observed := sh.serve != nil
	publish := observed || sh.journal != nil
	for {
		lo := b.next.Add(batchChunk) - batchChunk
		if lo >= b.nq {
			return
		}
		hi := lo + batchChunk
		if hi > b.nq {
			hi = b.nq
		}
		b.inj.Stall(nil) // chaos: a lagging serving worker (nil = no-op)
		for qi := lo; qi < hi; qi++ {
			before := len(sh.ids)
			tc, qspan := traceOf(tr, qi)
			// A client-sampled trace forces the timed path; the tick
			// still advances so the deterministic cadence of untraced
			// sampling is unchanged. Only tick-selected queries feed the
			// recorder's aggregates (the fold reads Ticked), so traced
			// traffic cannot skew the sampled statistics.
			sh.tick++
			tick := observed && sh.tick&sh.mask == 0
			sampled := tick || tc.Sampled
			// A timed query runs the same traversal with the strand's
			// probe, which keeps the route in the slot's path buffer for
			// the tail and splits the clock between descent and scan.
			var p *Probe
			var t0 time.Time
			if sampled {
				p = &sh.probe
				p.Path = sh.paths[qi-lo][:0]
				t0 = time.Now()
			}
			var nodes, scanned int
			sh.ids, nodes, scanned = f.Query(b.queries[qi], sh.ids, closed, p)
			leaf := int32(-1)
			var descNs, scanNs, startNs int64
			if sampled {
				t2 := time.Now()
				sh.paths[qi-lo] = p.Path
				leaf = p.Leaf
				descNs, scanNs = p.Mid.Sub(t0).Nanoseconds(), t2.Sub(p.Mid).Nanoseconds()
				if tc.Valid() {
					startNs = t0.UnixNano()
				}
			}
			b.spans[qi] = span{shard: int32(id), start: int32(before), end: int32(len(sh.ids))}
			sh.queries++
			sh.nodes += int64(nodes)
			sh.scanned += int64(scanned)
			if publish {
				sh.jbuf[qi-lo] = obs.JournalEvent{
					Batch: b.curBatch, Query: int32(qi), Leaf: leaf,
					Nodes: int32(nodes), Scanned: int32(scanned),
					Reported: int32(len(sh.ids) - before),
					Sampled:  sampled, Ticked: tick,
					LatencyNs: descNs + scanNs, DescentNs: descNs, ScanNs: scanNs,
					TraceHi: tc.TraceHi, TraceLo: tc.TraceLo, Span: qspan,
					StartNs: startNs,
				}
			}
		}
		if publish {
			obs.PublishChunk(sh.journal, sh.serve, sh.jbuf[:hi-lo], sh.paths[:hi-lo])
		}
	}
}

// Len returns the number of queries answered by the last Run.
func (b *Batch) Len() int { return len(b.spans) }

// Result returns the ball ids covering query i of the last Run, in
// ascending order. The slice aliases engine-owned storage: it is valid
// until the next Run and must not be modified.
func (b *Batch) Result(i int) []int {
	sp := b.spans[i]
	return b.shards[sp.shard].ids[sp.start:sp.end:sp.end]
}

// BatchStats is a Batch's cumulative served-traffic record.
type BatchStats struct {
	Batches      int64    // Run invocations
	Queries      int64    // queries answered
	NodesVisited int64    // Σ nodes visited across all queries
	LeafScanned  int64    // Σ leaf candidates scanned
	Latency      obs.Hist // per-batch wall-time histogram (ns)
}

// Stats snapshots the engine's cumulative counters. Call between Runs.
func (b *Batch) Stats() BatchStats {
	st := BatchStats{Batches: b.batches, Latency: b.latency.Snapshot()}
	for i := range b.shards {
		st.Queries += b.shards[i].queries
		st.NodesVisited += b.shards[i].nodes
		st.LeafScanned += b.shards[i].scanned
	}
	return st
}
