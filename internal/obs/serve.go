package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the serving-side half of the observability layer: where a
// build Recorder observes one construction and dies with it, a
// ServeRecorder is a long-lived per-engine latency capture for the
// batched query path. It records nothing per query. The batch engine
// writes one JournalEvent per query into a strand-local chunk buffer and
// ends each chunk with one PublishChunk call, which folds the chunk's
// events into the recorder's aggregates — exact query count, sampled
// phase-split histograms, rolling-window quantiles, slowest-query tail,
// exemplars — under one strand lock. Design constraints, in order:
//
//  1. A nil recorder (or nil strand) costs nothing per query and
//     allocates nothing — the same contract as Shard.
//
//  2. An enabled recorder must not serialize the strands and must not
//     allocate in steady state. Each batch strand folds into its own
//     cache-padded ServeStrand; its one mutex is taken once per chunk by
//     the owning strand and briefly by Snapshot readers.
//
//  3. Full per-query timing is sampled. The frozen descent costs a few
//     hundred nanoseconds; bracketing every query with three monotonic
//     clock reads would be a double-digit-percent tax. The engine times
//     1 in SampleEvery queries (deterministically, on a strand-local
//     tick) and marks them Ticked; only those feed the histograms,
//     window and tail. A query timed because its request carried a
//     sampled trace feeds only its latency bucket's exemplar, so traced
//     traffic cannot skew the sampled statistics.

// ServeConfig configures a ServeRecorder.
type ServeConfig struct {
	// SampleEvery times 1 in SampleEvery queries, rounded up to a power
	// of two; 1 times every query (costly — for tests and offline
	// analysis, not serving). 0 selects 16.
	SampleEvery int
}

const (
	defaultSampleEvery = 16
	// serveWindow is each strand's rolling window, in sampled queries,
	// behind the p50/p95/p99/p999 snapshot quantiles; snapshots merge
	// the windows of every strand.
	serveWindow = 512
	// serveTail is how many of the slowest sampled queries each strand
	// retains, with descent path and candidate counts.
	serveTail = 8
	// tailPathCap bounds the descent-path nodes stored per tail sample
	// (deeper paths are truncated) — comfortably above the O(log n)
	// height of any feasible tree.
	tailPathCap = 64
)

// ServeRecorder is a long-lived, sharded latency recorder for a batched
// query engine. All methods are nil-safe; Snapshot may be called
// concurrently with publishing.
type ServeRecorder struct {
	every   int64
	strands strandSet[ServeStrand]
	seq     atomic.Uint64 // global tail-admission sequence (recency)
}

// NewServeRecorder returns a recorder with the given strand count
// (grown on demand by Strand).
func NewServeRecorder(cfg ServeConfig, strands int) *ServeRecorder {
	every := int64(defaultSampleEvery)
	if cfg.SampleEvery > 0 {
		every = 1
		for every < int64(cfg.SampleEvery) {
			every <<= 1
		}
	}
	r := &ServeRecorder{every: every}
	if strands > 0 {
		r.Strand(strands - 1)
	}
	return r
}

// SampleEvery returns the power-of-two sampling period (1 = every
// query; 0 for a nil recorder).
func (r *ServeRecorder) SampleEvery() int64 {
	if r == nil {
		return 0
	}
	return r.every
}

// Strand returns strand i, growing the recorder if needed. Nil-safe: a
// nil recorder hands out a nil strand that folds nothing.
func (r *ServeRecorder) Strand(i int) *ServeStrand {
	if r == nil {
		return nil
	}
	return r.strands.at(i, r.newStrand)
}

func (r *ServeRecorder) newStrand(int) *ServeStrand {
	s := &ServeStrand{
		rec:  r,
		ring: make([]int64, serveWindow),
		tail: make([]TailSample, 0, serveTail),
	}
	for _, h := range []*histogram{&s.descent, &s.scan, &s.total, &s.nodes, &s.cands} {
		h.min = math.MaxInt64
	}
	return s
}

// TailSample is one retained slow query: its phase-split latency, the
// descent path it took (node ids of the frozen tree, truncated to
// tailPathCap), and its candidate accounting.
type TailSample struct {
	Seq       uint64  `json:"seq"`        // global sample sequence (recency)
	Strand    int     `json:"strand"`     // strand that served it
	LatencyNs int64   `json:"latency_ns"` // descent + leaf scan
	DescentNs int64   `json:"descent_ns"`
	ScanNs    int64   `json:"scan_ns"`
	Nodes     int     `json:"nodes_visited"` // root-to-leaf node count
	Scanned   int     `json:"leaf_scanned"`  // leaf candidates tested
	Reported  int     `json:"reported"`      // balls reported
	Path      []int32 `json:"path,omitempty"`
}

// ServeStrand is one batch strand's aggregates. Every field is plain and
// guarded by mu, which fold takes once per published chunk and Snapshot
// takes to read. Methods are nil-safe no-ops.
type ServeStrand struct {
	rec *ServeRecorder

	mu      sync.Mutex
	queries int64 // all queries seen (sampled or not)
	sampled int64

	descent histogram // sampled descent wall time (ns)
	scan    histogram // sampled leaf-scan wall time (ns)
	total   histogram // sampled descent+scan (ns)
	nodes   histogram // nodes visited per sampled query
	cands   histogram // leaf candidates scanned per sampled query

	ring    []int64 // rolling window of sampled total latencies
	ringPos int64   // monotonically increasing write cursor

	tail    []TailSample // ≤ serveTail entries, each with its own Path buffer
	tailMin int64        // admission threshold once the tail is full

	ex [histBuckets]exemplarSlot

	_ [64]byte // keep hot strands off each other's cache lines
}

// exemplarSlot is one latency bucket's most recent traced observation:
// the raw trace id (hex rendered at scrape time), the observed latency,
// and its wall-clock timestamp. A zero trace id means "no exemplar yet".
type exemplarSlot struct {
	traceHi, traceLo uint64
	value            int64
	unixNs           int64
}

// PublishChunk ends one batch chunk: it writes events to the journal
// strand's ring and folds them into the serve strand's aggregates.
// paths[i] is event i's descent path; it is read only for Ticked events
// and only when one enters the tail. Either strand may be nil. The
// caller keeps ownership of events and paths.
func PublishChunk(j *JournalStrand, s *ServeStrand, events []JournalEvent, paths [][]int32) {
	j.Publish(events)
	s.fold(events, paths)
}

// fold adds one chunk to the strand's aggregates under one lock.
func (s *ServeStrand) fold(events []JournalEvent, paths [][]int32) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.queries += int64(len(events))
	for i := range events {
		e := &events[i]
		if !e.Sampled {
			continue
		}
		total := max(e.DescentNs+e.ScanNs, 0)
		if e.Traced() {
			s.ex[bucketOf(total)] = exemplarSlot{traceHi: e.TraceHi, traceLo: e.TraceLo, value: total, unixNs: e.StartNs}
		}
		if !e.Ticked {
			continue
		}
		s.sampled++
		s.descent.observe(e.DescentNs)
		s.scan.observe(e.ScanNs)
		s.total.observe(total)
		s.nodes.observe(int64(e.Nodes))
		s.cands.observe(int64(e.Scanned))
		s.ring[s.ringPos%serveWindow] = total
		s.ringPos++
		if len(s.tail) < serveTail || total > s.tailMin {
			s.admitTail(e, total, paths[i])
		}
	}
	s.mu.Unlock()
}

// admitTail stores e in the tail: appended while the tail grows (the
// only allocations the tail ever makes), otherwise displacing the
// fastest retained sample in place. Called with mu held.
func (s *ServeStrand) admitTail(e *JournalEvent, total int64, path []int32) {
	slot := len(s.tail)
	if slot < serveTail {
		s.tail = append(s.tail, TailSample{Path: make([]int32, 0, tailPathCap)})
	} else {
		for i := range s.tail {
			if s.tail[i].LatencyNs == s.tailMin {
				slot = i
				break
			}
		}
	}
	if len(path) > tailPathCap {
		path = path[:tailPathCap]
	}
	s.tail[slot] = TailSample{
		Seq:       s.rec.seq.Add(1),
		LatencyNs: total,
		DescentNs: e.DescentNs,
		ScanNs:    e.ScanNs,
		Nodes:     int(e.Nodes),
		Scanned:   int(e.Scanned),
		Reported:  int(e.Reported),
		Path:      append(s.tail[slot].Path[:0], path...),
	}
	if len(s.tail) == serveTail {
		s.tailMin = math.MaxInt64
		for i := range s.tail {
			s.tailMin = min(s.tailMin, s.tail[i].LatencyNs)
		}
	}
}

// ServeQuantiles is a rolling-window latency summary: nearest-rank
// quantiles over the merged per-strand windows of sampled total
// latencies.
type ServeQuantiles struct {
	Window int   `json:"window"` // entries the quantiles were computed over
	P50    int64 `json:"p50_ns"`
	P95    int64 `json:"p95_ns"`
	P99    int64 `json:"p99_ns"`
	P999   int64 `json:"p999_ns"`
}

// ServeSnapshot is a point-in-time, JSON-ready view of a ServeRecorder:
// exact served counts, sampled phase-split histograms, rolling-window
// quantiles, and the retained slowest queries. Histograms and quantiles
// merge commutatively across strands, so a snapshot of an N-strand
// recorder fed a query stream equals a single-strand recorder fed the
// same stream (asserted by TestServeMergeMatchesSingleStrand).
type ServeSnapshot struct {
	Strands     int   `json:"strands"`
	Queries     int64 `json:"queries"`
	Sampled     int64 `json:"sampled"`
	SampleEvery int64 `json:"sample_every"`

	Latency Hist `json:"latency_ns"`   // sampled descent+scan
	Descent Hist `json:"descent_ns"`   // sampled descent phase
	Scan    Hist `json:"leaf_scan_ns"` // sampled leaf-scan phase
	Nodes   Hist `json:"nodes_visited"`
	Scanned Hist `json:"leaf_scanned"`

	Window ServeQuantiles `json:"window"`
	Tail   []TailSample   `json:"tail,omitempty"`

	// LatencyExemplars is the latest traced observation per non-empty
	// latency bucket (ascending Le) — the OpenMetrics exemplar set the
	// /metrics handler attaches to the latency histogram so a bucket
	// count links to a concrete trace id.
	LatencyExemplars []LatencyExemplar `json:"latency_exemplars,omitempty"`
}

// LatencyExemplar is one latency bucket's exemplar in export form: the
// bucket's inclusive upper bound, the hex trace id of the most recent
// traced query that landed in it, the observed latency, and when.
type LatencyExemplar struct {
	Le      int64  `json:"le"`
	TraceID string `json:"trace_id"`
	ValueNs int64  `json:"value_ns"`
	UnixNs  int64  `json:"unix_ns"`
}

// Snapshot merges every strand. Safe to call while strands publish; each
// strand is read whole under its lock, so the result is exact as of
// each strand's last published chunk. Nil-safe.
func (r *ServeRecorder) Snapshot() *ServeSnapshot {
	if r == nil {
		return nil
	}
	strands := r.strands.all()
	snap := &ServeSnapshot{Strands: len(strands), SampleEvery: r.every}
	var lat, desc, scan, nodes, cands histogram
	for _, h := range []*histogram{&lat, &desc, &scan, &nodes, &cands} {
		h.min = math.MaxInt64
	}
	var window []int64
	var ex [histBuckets]exemplarSlot
	for si, s := range strands {
		s.mu.Lock()
		snap.Queries += s.queries
		snap.Sampled += s.sampled
		lat.merge(&s.total)
		desc.merge(&s.descent)
		scan.merge(&s.scan)
		nodes.merge(&s.nodes)
		cands.merge(&s.cands)
		window = append(window, s.ring[:min(s.ringPos, serveWindow)]...)
		for i := range s.tail {
			ts := s.tail[i]
			ts.Path = append([]int32(nil), ts.Path...)
			ts.Strand = si
			snap.Tail = append(snap.Tail, ts)
		}
		// Per bucket, the most recent traced observation across strands
		// wins.
		for b, e := range s.ex {
			if e.traceHi|e.traceLo != 0 && (ex[b].traceHi|ex[b].traceLo == 0 || e.unixNs > ex[b].unixNs) {
				ex[b] = e
			}
		}
		s.mu.Unlock()
	}
	snap.Latency = lat.snapshot()
	snap.Descent = desc.snapshot()
	snap.Scan = scan.snapshot()
	snap.Nodes = nodes.snapshot()
	snap.Scanned = cands.snapshot()
	snap.Window = windowQuantiles(window)
	for b := range ex {
		if ex[b].traceHi|ex[b].traceLo == 0 {
			continue
		}
		snap.LatencyExemplars = append(snap.LatencyExemplars, LatencyExemplar{
			Le:      bucketLe(b),
			TraceID: TraceIDString(ex[b].traceHi, ex[b].traceLo),
			ValueNs: ex[b].value,
			UnixNs:  ex[b].unixNs,
		})
	}
	sort.Slice(snap.Tail, func(i, j int) bool {
		if snap.Tail[i].LatencyNs != snap.Tail[j].LatencyNs {
			return snap.Tail[i].LatencyNs > snap.Tail[j].LatencyNs
		}
		return snap.Tail[i].Seq < snap.Tail[j].Seq
	})
	return snap
}

// windowQuantiles computes nearest-rank quantiles over the merged window
// values (order-independent: the merge sorts, so a multi-strand window
// equals a single-strand window over the same samples).
func windowQuantiles(vals []int64) ServeQuantiles {
	q := ServeQuantiles{Window: len(vals)}
	if len(vals) == 0 {
		return q
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	rank := func(p float64) int64 {
		i := int(math.Ceil(p*float64(len(vals)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(vals) {
			i = len(vals) - 1
		}
		return vals[i]
	}
	q.P50 = rank(0.50)
	q.P95 = rank(0.95)
	q.P99 = rank(0.99)
	q.P999 = rank(0.999)
	return q
}
