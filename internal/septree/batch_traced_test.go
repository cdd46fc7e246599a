package septree

import (
	"testing"

	"sepdc/internal/obs"
)

// mkTraces builds a per-query trace slice grouped reqSize queries to a
// "request" (all queries of a request share its context), with every
// sampleEvery'th request sampled. untracedEvery > 0 zeroes every Nth
// request's context, mixing traced and untraced queries in one run.
func mkTraces(n, reqSize int, seed uint64, sampleEvery, untracedEvery int) []obs.TraceContext {
	tr := make([]obs.TraceContext, n)
	for i := range tr {
		req := uint64(i / reqSize)
		if untracedEvery > 0 && int(req)%untracedEvery == 0 {
			continue // zero context: untraced request
		}
		tc := obs.GenTrace(seed, req)
		if sampleEvery > 0 && int(req)%sampleEvery == 0 {
			tc.Sampled = true
		}
		tr[i] = tc
	}
	return tr
}

// TestTracedBatchIdenticalResults: threading trace contexts through a
// run must not change a single answer, engine counter, or recorder
// statistic, in every serving mode and with traced, untraced, and
// sampled requests mixed. (Client-sampled queries record only their
// exemplar — the recorder's deterministic 1-in-SampleEvery aggregates
// must be untouched by who traces what.)
func TestTracedBatchIdenticalResults(t *testing.T) {
	f, pts := buildUniform(t, 1200, 3, 3, 29, nil)
	queries := queryMix(pts, 3, 333, 31)
	traces := mkTraces(len(queries), 8, 77, 4, 5)
	for _, workers := range []int{1, 4} {
		plainRec := obs.NewServeRecorder(obs.ServeConfig{SampleEvery: 4}, workers)
		tracedRec := obs.NewServeRecorder(obs.ServeConfig{SampleEvery: 4}, workers)
		plain := NewBatch(f, workers)
		plain.Observe(plainRec)
		traced := NewBatch(f, workers)
		traced.Observe(tracedRec)
		traced.Journal(obs.NewJournal(obs.JournalConfig{PerStrand: 512}, workers))
		for _, closed := range []bool{false, true} {
			plain.Run(queries, nil, closed)
			traced.Run(queries, traces, closed)
			for i := range queries {
				if !equalInts(plain.Result(i), traced.Result(i)) {
					t.Fatalf("workers=%d closed=%v query %d: traced %v, plain %v",
						workers, closed, i, traced.Result(i), plain.Result(i))
				}
			}
		}
		a, b := plain.Stats(), traced.Stats()
		if a.Queries != b.Queries || a.NodesVisited != b.NodesVisited || a.LeafScanned != b.LeafScanned {
			t.Fatalf("workers=%d: traced stats %+v diverge from plain %+v",
				workers, b, a)
		}
		// With one worker the per-strand sample cadence is fully
		// deterministic: the traced recorder's aggregates must match
		// an untraced recorder over the same stream exactly.
		if workers == 1 {
			ps, ts := plainRec.Snapshot(), tracedRec.Snapshot()
			if ps.Queries != ts.Queries || ps.Sampled != ts.Sampled ||
				ps.Latency.Count != ts.Latency.Count {
				t.Fatalf("tracing skewed recorder stats: plain queries=%d sampled=%d count=%d, traced queries=%d sampled=%d count=%d",
					ps.Queries, ps.Sampled, ps.Latency.Count,
					ts.Queries, ts.Sampled, ts.Latency.Count)
			}
		}
	}
}

// TestTracedBatchJournalStamps: every journal event of a traced query
// carries the request's raw trace id, the deterministic per-query child
// span, and (for sampled traces) an absolute start timestamp; untraced
// queries publish zero trace fields and no hex strings.
func TestTracedBatchJournalStamps(t *testing.T) {
	f, pts := buildUniform(t, 1500, 2, 3, 7, nil)
	queries := queryMix(pts, 2, 300, 13)
	traces := mkTraces(len(queries), 8, 99, 4, 5)
	b := NewBatch(f, 4)
	b.Observe(obs.NewServeRecorder(obs.ServeConfig{SampleEvery: 4}, 4))
	j := obs.NewJournal(obs.JournalConfig{PerStrand: 2048}, 4)
	b.Journal(j)
	b.Run(queries, traces, false)

	d := j.Snapshot()
	if d.Published != uint64(len(queries)) {
		t.Fatalf("published %d events, want %d", d.Published, len(queries))
	}
	tracedEvents, sampledTraced := 0, 0
	for _, ev := range d.Events {
		tc := traces[ev.Query]
		if !tc.Valid() {
			if ev.Traced() || ev.TraceID != "" || ev.SpanID != "" {
				t.Fatalf("untraced query %d carries trace fields: %+v", ev.Query, ev)
			}
			continue
		}
		tracedEvents++
		if ev.TraceHi != tc.TraceHi || ev.TraceLo != tc.TraceLo {
			t.Fatalf("query %d trace %x%x, want %x%x",
				ev.Query, ev.TraceHi, ev.TraceLo, tc.TraceHi, tc.TraceLo)
		}
		wantSpan := obs.ChildSpan(tc.Span, uint64(ev.Query))
		if ev.Span != wantSpan {
			t.Fatalf("query %d span %x, want ChildSpan %x", ev.Query, ev.Span, wantSpan)
		}
		if ev.TraceID != obs.TraceIDString(tc.TraceHi, tc.TraceLo) {
			t.Fatalf("query %d trace id %q not derived from raw ids", ev.Query, ev.TraceID)
		}
		if ev.SpanID != obs.SpanIDString(wantSpan) {
			t.Fatalf("query %d span id %q, want %q",
				ev.Query, ev.SpanID, obs.SpanIDString(wantSpan))
		}
		if tc.Sampled {
			// A client-sampled trace forces the timed path: the event
			// must carry phase latencies and a wall-clock start.
			if !ev.Sampled || ev.LatencyNs <= 0 || ev.StartNs <= 0 {
				t.Fatalf("sampled trace query %d not timed: %+v", ev.Query, ev)
			}
			sampledTraced++
		}
	}
	if tracedEvents == 0 || sampledTraced == 0 {
		t.Fatalf("traced=%d sampledTraced=%d, want both > 0", tracedEvents, sampledTraced)
	}
}

// TestTracedBatchZeroAllocSteadyState: the fully traced instrumented
// path — recorder, journal, and a trace context on every query — must
// serve warm batches with zero allocations, the same bar the untraced
// journaled path holds.
func TestTracedBatchZeroAllocSteadyState(t *testing.T) {
	f, pts := buildUniform(t, 2000, 2, 3, 5, nil)
	queries := queryMix(pts, 2, 256, 9)
	traces := mkTraces(len(queries), 8, 55, 4, 0)
	for _, workers := range []int{1, 4} {
		b := NewBatch(f, workers)
		b.Observe(obs.NewServeRecorder(obs.ServeConfig{SampleEvery: 4}, workers))
		b.Journal(obs.NewJournal(obs.JournalConfig{PerStrand: 1024}, workers))
		for warm := 0; warm < 3; warm++ {
			b.Run(queries, traces, false)
		}
		if avg := testing.AllocsPerRun(50, func() { b.Run(queries, traces, false) }); avg != 0 {
			t.Fatalf("workers=%d: %v allocs per traced steady-state Run, want 0",
				workers, avg)
		}
	}
}
