package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// This file is the wide-event query journal: the flight-recorder
// counterpart of the ServeRecorder. Where the recorder keeps aggregates
// (histograms, quantiles, a slow tail), the journal keeps the *events* —
// one fixed-size structured record per served query, in a bounded
// per-strand ring that newest traffic overwrites — so a latency breach
// can be diagnosed from the exact queries around it, not just their
// distribution. Design constraints mirror serve.go:
//
//  1. A detached journal (nil strand) costs one predictable branch per
//     chunk on the batch hot loop and allocates nothing.
//
//  2. An attached journal must not serialize strands and must not
//     allocate in steady state. The batch engine fills a strand-local
//     scratch array of events while answering a chunk (plain stores, no
//     synchronization — the strand owns the scratch) and publishes the
//     whole chunk with ONE mutex acquisition and one compacting pass
//     into the strand's pre-allocated ring of fixed-size records.
//     Sixteen queries per lock keeps the amortized cost in low
//     single-digit nanoseconds per query.
//
//  3. Draining is scrape-path work: it locks each strand briefly, copies
//     events out, and renders JSONL. Two read modes exist — Snapshot
//     (non-consuming: the flight recorder wants the ring as evidence,
//     repeatedly) and Drain (consuming: a streaming consumer wants each
//     event once, with exact dropped-event accounting in between).

// JournalEvent is one wide event: everything the engine knows about one
// served query, every field fixed-size so rings never allocate.
type JournalEvent struct {
	// Seq is the per-strand publication sequence (1-based, monotone).
	Seq uint64 `json:"seq"`
	// Batch is the engine's Run ordinal (1-based) the query belonged to.
	Batch int64 `json:"batch"`
	// Query is the index within the batch's query slice.
	Query int32 `json:"query"`
	// Strand is the engine strand that answered it.
	Strand int32 `json:"strand"`
	// Leaf is the destination leaf node id, or -1 when the engine
	// answered through a fused path that does not expose it (unsampled
	// queries).
	Leaf int32 `json:"leaf"`
	// Nodes is the descent depth (root-to-leaf nodes visited).
	Nodes int32 `json:"nodes_visited"`
	// Scanned is the leaf candidates tested.
	Scanned int32 `json:"leaf_scanned"`
	// Reported is the covering balls reported.
	Reported int32 `json:"reported"`
	// Sampled marks a fully timed phase-split query; only then are the
	// three latency fields non-zero.
	Sampled bool `json:"sampled"`
	// Ticked marks a query timed by the engine's own 1-in-SampleEvery
	// tick: only those feed a ServeRecorder's aggregates. A Sampled
	// event without it was timed because its request carried a sampled
	// trace, and feeds only its latency bucket's exemplar. Not stored in
	// the journal ring.
	Ticked bool `json:"-"`
	// LatencyNs is always DescentNs + ScanNs: the ring stores the phase
	// split and derives the total (with Seq and Strand) at read time, so
	// the hot path moves fewer bytes per query than the export form.
	LatencyNs int64 `json:"latency_ns"`
	DescentNs int64 `json:"descent_ns"`
	ScanNs    int64 `json:"scan_ns"`

	// TraceHi/TraceLo/Span carry the request's W3C trace context in raw
	// form on the publish path; all three are zero for untraced queries.
	// The hex strings the JSON form wants (TraceID, SpanID) are derived
	// at read time so the hot path never touches a string.
	TraceHi uint64 `json:"-"`
	TraceLo uint64 `json:"-"`
	Span    uint64 `json:"-"`
	// StartNs is the query's wall-clock start (UnixNano), recorded only
	// for sampled traced queries so /traces can place descent/scan spans
	// on an absolute timeline; zero otherwise.
	StartNs int64 `json:"start_unix_ns,omitempty"`
	// TraceID and SpanID are the hex renderings of the raw trace fields,
	// filled by the read path for traced events and empty ("",omitted)
	// everywhere on the publish path.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// Traced reports whether the event carries a trace context.
func (e *JournalEvent) Traced() bool { return e.TraceHi|e.TraceLo != 0 }

// journalRec is the stored form of a JournalEvent: the fields the ring
// must remember. Seq is the ring position + 1, Strand is the owning
// strand's index, LatencyNs is DescentNs + ScanNs, and the TraceID /
// SpanID hex strings render from the raw ids — all derivable, none
// stored. 80 bytes versus the export form's ~130 (with strings) keeps
// write traffic down and retained history per ring byte up; the four
// trace words are zero for untraced queries and cost only their stores.
type journalRec struct {
	batch             int64
	descentNs, scanNs int64
	traceHi, traceLo  uint64
	span              uint64
	startNs           int64
	query, leaf       int32
	nodes, scanned    int32
	reported          int32
	sampled           bool
}

// JournalConfig configures a Journal. The zero value selects the
// defaults noted per field.
type JournalConfig struct {
	// PerStrand is each strand's ring capacity in events. 0 selects 4096.
	PerStrand int
}

const defaultJournalPerStrand = 4096

func (c JournalConfig) perStrand() int {
	if c.PerStrand <= 0 {
		return defaultJournalPerStrand
	}
	return c.PerStrand
}

// Journal is a long-lived, sharded wide-event ring. All methods are
// nil-safe; Snapshot/Drain may be called concurrently with publishing.
type Journal struct {
	cfg     JournalConfig
	strands strandSet[JournalStrand]
}

// NewJournal returns a journal with the given strand count (grown on
// demand by Strand).
func NewJournal(cfg JournalConfig, strands int) *Journal {
	j := &Journal{cfg: cfg}
	if strands > 0 {
		j.Strand(strands - 1)
	}
	return j
}

// Config returns the journal's resolved configuration.
func (j *Journal) Config() JournalConfig { return j.cfg }

// Strand returns strand i, growing the journal if needed. Nil-safe: a
// nil journal hands out a nil strand whose methods all no-op.
func (j *Journal) Strand(i int) *JournalStrand {
	if j == nil {
		return nil
	}
	return j.strands.at(i, j.newStrand)
}

func (j *Journal) newStrand(idx int) *JournalStrand {
	return &JournalStrand{idx: idx, ring: make([]journalRec, j.cfg.perStrand())}
}

// strandSet is the grow-only per-strand list behind Journal and
// ServeRecorder. Element pointers are stable and the slice is replaced,
// never resized in place, so growing is safe concurrently with
// publishing on existing strands.
type strandSet[T any] struct {
	mu   sync.Mutex
	list []*T
}

// at returns element i, creating elements up to i with mk.
func (s *strandSet[T]) at(i int, mk func(idx int) *T) *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.list) <= i {
		s.list = append(s.list, mk(len(s.list)))
	}
	return s.list[i]
}

// all returns a copy of the current elements.
func (s *strandSet[T]) all() []*T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*T(nil), s.list...)
}

// JournalStrand is one strand's event ring. Publish is driven by one
// goroutine at a time (the batch engine's strand discipline); the
// strand mutex exists so concurrent drains are race-free, and is taken
// once per published chunk, never per event.
type JournalStrand struct {
	idx int

	mu        sync.Mutex
	ring      []journalRec
	published uint64 // total events ever published
	drained   uint64 // publication position the last Drain consumed through
	dropped   uint64 // events overwritten before any Drain saw them

	_ [64]byte // keep hot strands off each other's cache lines
}

// Publish appends a chunk of events to the strand's ring. Seq, Strand,
// and LatencyNs on the input are ignored — they are derived at read
// time (Seq from ring position, Strand from ring ownership, LatencyNs
// as DescentNs + ScanNs). One lock per chunk, no per-event modulo (a
// 64-bit modulo per event is measurable against sub-microsecond
// queries), zero allocations. The caller keeps ownership of events.
func (s *JournalStrand) Publish(events []JournalEvent) {
	if s == nil || len(events) == 0 {
		return
	}
	s.mu.Lock()
	n := uint64(len(s.ring))
	// A chunk larger than the ring keeps only its newest n events.
	src, start := events, s.published
	if k := uint64(len(events)); k > n {
		src, start = events[k-n:], s.published+(k-n)
	}
	pos := start % n
	for i := range src {
		e := &src[i]
		s.ring[pos] = journalRec{
			batch: e.Batch, descentNs: e.DescentNs, scanNs: e.ScanNs,
			traceHi: e.TraceHi, traceLo: e.TraceLo, span: e.Span,
			startNs: e.StartNs,
			query:   e.Query, leaf: e.Leaf, nodes: e.Nodes,
			scanned: e.Scanned, reported: e.Reported, sampled: e.Sampled,
		}
		if pos++; pos == n {
			pos = 0
		}
	}
	s.published += uint64(len(events))
	s.mu.Unlock()
}

// read copies out events under the strand lock. When consume is true the
// read advances the drain cursor and charges overwritten-and-never-seen
// events to dropped; when false it returns the full retained window
// without touching the accounting.
func (s *JournalStrand) read(consume bool, out []JournalEvent) ([]JournalEvent, uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := uint64(len(s.ring))
	from := s.published - min64(s.published, n) // oldest retained position
	if consume {
		if s.drained > from {
			from = s.drained
		} else {
			s.dropped += from - s.drained
		}
		s.drained = s.published
	}
	for pos := from; pos < s.published; pos++ {
		r := &s.ring[pos%n]
		ev := JournalEvent{
			Seq: pos + 1, Batch: r.batch, Query: r.query,
			Strand: int32(s.idx), Leaf: r.leaf, Nodes: r.nodes,
			Scanned: r.scanned, Reported: r.reported, Sampled: r.sampled,
			LatencyNs: r.descentNs + r.scanNs,
			DescentNs: r.descentNs, ScanNs: r.scanNs,
			TraceHi: r.traceHi, TraceLo: r.traceLo, Span: r.span,
			StartNs: r.startNs,
		}
		if ev.Traced() {
			// Hex rendering is scrape-path work: the strings exist only
			// in the export copy, never in the ring.
			ev.TraceID = TraceIDString(r.traceHi, r.traceLo)
			ev.SpanID = SpanIDString(r.span)
		}
		out = append(out, ev)
	}
	return out, s.published, s.dropped
}

// accounting returns the strand's publication totals under its lock:
// events ever published, events already overwritten out of the ring
// (whether or not a Drain saw them first), and events overwritten
// before any Drain saw them.
func (s *JournalStrand) accounting() (published, overwritten, dropped uint64) {
	if s == nil {
		return 0, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := uint64(len(s.ring))
	return s.published, s.published - min64(s.published, n), s.dropped
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// JournalAccounting is a journal's ring-pressure summary, cheap enough
// for every scrape: no event copying, one brief lock per strand.
type JournalAccounting struct {
	// Published is the events ever published across all strands.
	Published uint64
	// Overwritten is the events the rings have already evicted —
	// published but no longer retained, whether or not a Drain saw them.
	// Overwritten/Published is the ring-saturation ("overwrite") rate: a
	// value near 1 means the rings retain a vanishing fraction of served
	// traffic and a latency breach will have little surrounding evidence
	// left by the time anyone looks. Grow JournalConfig.PerStrand (or
	// drain more often) to lower it.
	Overwritten uint64
	// Dropped is the subset of Overwritten that no Drain ever returned.
	Dropped uint64
}

// OverwriteRate returns Overwritten/Published, or 0 before any publish.
func (a JournalAccounting) OverwriteRate() float64 {
	if a.Published == 0 {
		return 0
	}
	return float64(a.Overwritten) / float64(a.Published)
}

// Accounting sums the ring accounting across strands without copying
// any events — the scrape path's view of journal saturation. Nil-safe.
func (j *Journal) Accounting() JournalAccounting {
	if j == nil {
		return JournalAccounting{}
	}
	strands := j.strands.all()
	var acc JournalAccounting
	for _, s := range strands {
		pub, over, drop := s.accounting()
		acc.Published += pub
		acc.Overwritten += over
		acc.Dropped += drop
	}
	return acc
}

// JournalDrain is the result of one Snapshot or Drain: the events in a
// deterministic global order plus the ring accounting needed to judge
// how much history the rings are keeping under the current load.
type JournalDrain struct {
	Strands   int            `json:"strands"`
	Capacity  int            `json:"capacity_per_strand"`
	Published uint64         `json:"published"` // events ever published
	Dropped   uint64         `json:"dropped"`   // overwritten before any Drain saw them
	Events    []JournalEvent `json:"events"`
}

// Snapshot returns the journal's currently retained events without
// consuming them — the flight recorder's read. Events are ordered by
// (Batch, Query), a total order since each query index appears once per
// engine Run. Nil-safe.
func (j *Journal) Snapshot() JournalDrain { return j.read(false) }

// Drain returns every retained event not returned by a previous Drain
// and advances the drop accounting: events overwritten between drains
// count toward Dropped. Snapshot reads do not consume. Nil-safe.
func (j *Journal) Drain() JournalDrain { return j.read(true) }

func (j *Journal) read(consume bool) JournalDrain {
	if j == nil {
		return JournalDrain{}
	}
	strands := j.strands.all()
	d := JournalDrain{Strands: len(strands), Capacity: j.cfg.perStrand()}
	for _, s := range strands {
		var pub, drop uint64
		d.Events, pub, drop = s.read(consume, d.Events)
		d.Published += pub
		d.Dropped += drop
	}
	sort.Slice(d.Events, func(a, b int) bool {
		if d.Events[a].Batch != d.Events[b].Batch {
			return d.Events[a].Batch < d.Events[b].Batch
		}
		return d.Events[a].Query < d.Events[b].Query
	})
	return d
}

// WriteJSONL renders a drain as JSON Lines: one event object per line,
// ordered by (Batch, Query), preceded by no header — the accounting
// fields travel separately (flight bundles put them in meta.json; the
// /journal endpoint exposes them as response headers). Every write
// error from w is propagated, matching the BuildReport.WriteText
// discipline: a telemetry sink that silently drops events is worse than
// an error.
func (d JournalDrain) WriteJSONL(w io.Writer) error {
	for i := range d.Events {
		b, err := json.Marshal(&d.Events[i])
		if err != nil {
			return fmt.Errorf("obs: journal event %d: %w", i, err)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return nil
}
