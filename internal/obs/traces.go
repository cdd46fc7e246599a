package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// This file is the request-level half of tracing: where the journal
// keeps one event per *query*, the TraceSink keeps one record per
// *request* — the queue → coalesce → pass span breakdown a slow HTTP
// request decomposes into before the batch engine ever sees its
// queries. Design constraints:
//
//  1. Publishing is per-request, not per-query, so a mutex-guarded ring
//     is cheap enough; the stored record is fixed-size (no strings), so
//     the steady state allocates nothing.
//
//  2. Two retention tiers: a bounded ring of the most recent requests
//     (the /traces endpoint's live view) and a slowest-N tail keyed to
//     the SLO engine's interest — when a burn-rate trip fires, the
//     flight bundle freezes both, so the traces worth keeping survive
//     the traffic that overwrote everything else.
//
//  3. Hex trace/span ids are derived at read time, like the journal's
//     Seq: the hot path moves two uint64s, the scrape path pays for the
//     strings.

// RequestTrace is one traced request's span summary in export form:
// where the request's wall time went between admission and completion.
// QueueNs is admission → coalescer pickup, CoalesceNs is pickup → pass
// start (the cutover/gather wait), PassNs is the batch-engine pass that
// answered it, TotalNs is admission → results copied out. Per-query
// descent/scan spans live in the journal, joined by TraceID.
type RequestTrace struct {
	TraceID string `json:"trace_id"` // 32 hex digits; derived at read time
	SpanID  string `json:"span_id"`  // 16 hex digits; derived at read time
	Sampled bool   `json:"sampled"`

	StartUnixNs int64 `json:"start_unix_ns"` // admission wall-clock time
	QueueNs     int64 `json:"queue_ns"`
	CoalesceNs  int64 `json:"coalesce_ns"`
	PassNs      int64 `json:"pass_ns"`
	TotalNs     int64 `json:"total_ns"`

	Queries int32  `json:"queries"`
	Closed  bool   `json:"closed"`
	Replica int32  `json:"replica"`
	Epoch   uint64 `json:"epoch"`

	// Trace carries the raw ids on the publish path (the strings above
	// are filled from it at read time, never on the hot path).
	Trace TraceContext `json:"-"`
}

// render fills the derived hex fields from the raw context.
func (rt *RequestTrace) render() {
	rt.TraceID = rt.Trace.TraceIDString()
	rt.SpanID = rt.Trace.SpanIDString()
	rt.Sampled = rt.Trace.Sampled
}

// requestRec is the stored form of a RequestTrace: fixed size, no
// strings, so ring and tail slots never allocate.
type requestRec struct {
	trace       TraceContext
	startUnixNs int64
	queueNs     int64
	coalesceNs  int64
	passNs      int64
	totalNs     int64
	queries     int32
	replica     int32
	epoch       uint64
	closed      bool
}

func (r *requestRec) export() RequestTrace {
	rt := RequestTrace{
		Trace:       r.trace,
		StartUnixNs: r.startUnixNs,
		QueueNs:     r.queueNs,
		CoalesceNs:  r.coalesceNs,
		PassNs:      r.passNs,
		TotalNs:     r.totalNs,
		Queries:     r.queries,
		Closed:      r.closed,
		Replica:     r.replica,
		Epoch:       r.epoch,
	}
	rt.render()
	return rt
}

const (
	// traceRing is the recent-request ring capacity.
	traceRing = 1024
	// traceTail is how many of the slowest requests a sink retains
	// regardless of ring overwrites — the SLO-keyed evidence tier.
	traceTail = 32
)

// TraceSink is a bounded store of completed request traces. All methods
// are nil-safe; Publish may race with Snapshot/Slowest/Retained.
type TraceSink struct {
	mu        sync.Mutex
	ring      []requestRec
	published uint64
	tail      []requestRec // slowest-TotalNs retained requests
	tailMin   int64        // smallest retained tail latency once full
}

// NewTraceSink returns a sink with pre-allocated ring and tail storage:
// the 1024 most recent requests and the 32 slowest.
func NewTraceSink() *TraceSink {
	return &TraceSink{
		ring: make([]requestRec, traceRing),
		tail: make([]requestRec, 0, traceTail),
	}
}

// Publish stores one completed request trace: always into the recent
// ring, and into the slowest-N tail when it beats the admission
// threshold. One mutex per request, zero allocations.
func (t *TraceSink) Publish(rt RequestTrace) {
	if t == nil || !rt.Trace.Valid() {
		return
	}
	rec := requestRec{
		trace:       rt.Trace,
		startUnixNs: rt.StartUnixNs,
		queueNs:     rt.QueueNs,
		coalesceNs:  rt.CoalesceNs,
		passNs:      rt.PassNs,
		totalNs:     rt.TotalNs,
		queries:     rt.Queries,
		replica:     rt.Replica,
		epoch:       rt.Epoch,
		closed:      rt.Closed,
	}
	t.mu.Lock()
	t.ring[t.published%uint64(len(t.ring))] = rec
	t.published++
	if len(t.tail) < cap(t.tail) {
		t.tail = append(t.tail, rec)
		if len(t.tail) == cap(t.tail) {
			t.tailMin = tailMinOf(t.tail)
		}
	} else if rec.totalNs > t.tailMin {
		// Displace the fastest retained request in place.
		slot, min := 0, t.tail[0].totalNs
		for i := 1; i < len(t.tail); i++ {
			if t.tail[i].totalNs < min {
				slot, min = i, t.tail[i].totalNs
			}
		}
		t.tail[slot] = rec
		t.tailMin = tailMinOf(t.tail)
	}
	t.mu.Unlock()
}

func tailMinOf(tail []requestRec) int64 {
	min := tail[0].totalNs
	for i := 1; i < len(tail); i++ {
		if tail[i].totalNs < min {
			min = tail[i].totalNs
		}
	}
	return min
}

// Published returns how many request traces were ever published.
func (t *TraceSink) Published() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.published
}

// Snapshot returns the retained recent requests, oldest first.
func (t *TraceSink) Snapshot() []RequestTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.ring))
	from := t.published - min64(t.published, n)
	out := make([]RequestTrace, 0, t.published-from)
	for pos := from; pos < t.published; pos++ {
		out = append(out, t.ring[pos%n].export())
	}
	return out
}

// Slowest returns the slowest retained requests, slowest first — the
// tier a burn-rate trip freezes into the flight bundle.
func (t *TraceSink) Slowest() []RequestTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]RequestTrace, 0, len(t.tail))
	for i := range t.tail {
		out = append(out, t.tail[i].export())
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TotalNs > out[j].TotalNs })
	return out
}

// Retained returns the slowest-N tail followed by every recent-ring
// request not already in it (slowest first, then oldest first) — the
// flight bundle's traces.jsonl content: the traces worth keeping plus
// the traffic around the trip.
func (t *TraceSink) Retained() []RequestTrace {
	if t == nil {
		return nil
	}
	slow := t.Slowest()
	seen := make(map[[3]uint64]bool, len(slow))
	for i := range slow {
		seen[traceKey(slow[i].Trace)] = true
	}
	for _, rt := range t.Snapshot() {
		if !seen[traceKey(rt.Trace)] {
			seen[traceKey(rt.Trace)] = true
			slow = append(slow, rt)
		}
	}
	return slow
}

// Find returns every retained request (tail or ring) whose 128-bit
// trace id matches, oldest first.
func (t *TraceSink) Find(hi, lo uint64) []RequestTrace {
	if t == nil {
		return nil
	}
	var out []RequestTrace
	for _, rt := range t.Retained() {
		if rt.Trace.TraceHi == hi && rt.Trace.TraceLo == lo {
			out = append(out, rt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNs < out[j].StartUnixNs })
	return out
}

func traceKey(tc TraceContext) [3]uint64 {
	return [3]uint64{tc.TraceHi, tc.TraceLo, tc.Span}
}

// WriteRequestTracesJSONL renders request traces as JSON Lines, one
// object per line, propagating every write error (the journal's
// WriteJSONL discipline).
func WriteRequestTracesJSONL(w io.Writer, traces []RequestTrace) error {
	for i := range traces {
		b, err := json.Marshal(&traces[i])
		if err != nil {
			return fmt.Errorf("obs: request trace %d: %w", i, err)
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

// WriteChromeTrace renders one trace (request-level spans plus the
// journal's per-query descent/scan spans) as Chrome trace_event JSON —
// load in chrome://tracing or https://ui.perfetto.dev. Request spans
// occupy one lane per replica ("replica-R requests"); each engine
// strand that served a sampled query of the trace gets its own lane
// ("strand-S"), reconstructing queue → coalesce → pass → descent → scan
// causality visually. Journal events must already be filtered to the
// trace (matching TraceHi/TraceLo); events without a start timestamp
// (untimed queries) are placed by duration at the pass start of the
// owning request when one is known, else skipped.
func WriteChromeTrace(w io.Writer, traces []RequestTrace, events []JournalEvent) error {
	if len(traces) == 0 {
		return fmt.Errorf("obs: no request traces to render")
	}
	// Normalize timestamps to the earliest request admission so the
	// viewer opens at t=0.
	t0 := traces[0].StartUnixNs
	for _, rt := range traces {
		if rt.StartUnixNs < t0 {
			t0 = rt.StartUnixNs
		}
	}
	doc := newChromeTrace("sepdc serve trace " + traces[0].TraceID)
	for _, rt := range traces {
		lane := int(rt.Replica)
		doc.lane(lane, fmt.Sprintf("replica-%d requests", rt.Replica))
		start := rt.StartUnixNs - t0
		args := map[string]any{"span_id": rt.SpanID, "queries": rt.Queries, "epoch": rt.Epoch}
		doc.span("queue", lane, start, rt.QueueNs, args)
		doc.span("coalesce", lane, start+rt.QueueNs, rt.CoalesceNs, args)
		doc.span("pass", lane, start+rt.QueueNs+rt.CoalesceNs, rt.PassNs, args)
	}
	// Per-query descent/scan spans from the journal, one lane per engine
	// strand, offset past the request lanes.
	const strandLane = 100
	passStart := traces[0].StartUnixNs + traces[0].QueueNs + traces[0].CoalesceNs - t0
	for _, ev := range events {
		lane := strandLane + int(ev.Strand)
		doc.lane(lane, fmt.Sprintf("strand-%d", ev.Strand))
		start := ev.StartNs - t0
		if ev.StartNs == 0 {
			if ev.LatencyNs == 0 {
				continue // untimed query: no span to draw
			}
			start = passStart
		}
		args := map[string]any{
			"span_id": ev.SpanID, "query": ev.Query, "leaf": ev.Leaf,
			"nodes": ev.Nodes, "scanned": ev.Scanned, "reported": ev.Reported,
		}
		doc.span("descend", lane, start, ev.DescentNs, args)
		doc.span("scan", lane, start+ev.DescentNs, ev.ScanNs, args)
	}
	return doc.write(w)
}
