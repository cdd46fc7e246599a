package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func mkRequestTrace(n uint64, totalNs int64) RequestTrace {
	return RequestTrace{
		Trace:       GenTrace(7, n),
		StartUnixNs: int64(n) * 1000,
		QueueNs:     10, CoalesceNs: 20, PassNs: totalNs - 40, TotalNs: totalNs,
		Queries: 4, Replica: int32(n % 2), Epoch: 1,
	}
}

func TestTraceSinkRingAndTail(t *testing.T) {
	s := NewTraceSink()
	// Publish 4 past the ring: it keeps the newest traceRing; the tail
	// keeps the traceTail slowest.
	const published = traceRing + 4
	for n := uint64(0); n < published; n++ {
		total := int64(100 + n*10)
		if n == 2 {
			total = 1 << 40 // the slowest request, overwritten in the ring
		}
		s.Publish(mkRequestTrace(n, total))
	}
	if got := s.Published(); got != published {
		t.Fatalf("published %d, want %d", got, published)
	}
	snap := s.Snapshot()
	if len(snap) != traceRing {
		t.Fatalf("ring retained %d, want %d", len(snap), traceRing)
	}
	for i, rt := range snap {
		want := GenTrace(7, uint64(4+i))
		if rt.Trace != want {
			t.Fatalf("ring[%d] = %+v, want request %d", i, rt.Trace, 4+i)
		}
		if rt.TraceID != want.TraceIDString() || rt.SpanID != want.SpanIDString() {
			t.Fatalf("ring[%d] hex ids not derived: %+v", i, rt)
		}
	}
	slow := s.Slowest()
	if len(slow) != traceTail {
		t.Fatalf("tail retained %d, want %d", len(slow), traceTail)
	}
	if slow[0].TotalNs != 1<<40 || slow[0].Trace != GenTrace(7, 2) {
		t.Fatalf("slowest is %+v, want overwritten request 2", slow[0])
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].TotalNs >= slow[i-1].TotalNs {
			t.Fatalf("tail not slowest-first: %d then %d", slow[i-1].TotalNs, slow[i].TotalNs)
		}
	}
	// The rest of the tail is the newest requests, the slowest after 2.
	if want := int64(100 + (published-1)*10); slow[1].TotalNs != want {
		t.Fatalf("second slowest at %dns, want %d", slow[1].TotalNs, want)
	}

	// Retained = tail ∪ ring without duplicates; request 2 survives only
	// through the tail.
	ret := s.Retained()
	seen := map[string]int{}
	for _, rt := range ret {
		seen[rt.TraceID]++
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("trace %s appears %d times in Retained", id, c)
		}
	}
	if seen[GenTrace(7, 2).TraceIDString()] != 1 {
		t.Fatal("tail-only request 2 missing from Retained")
	}

	// Find by 128-bit id.
	tc := GenTrace(7, 2)
	found := s.Find(tc.TraceHi, tc.TraceLo)
	if len(found) != 1 || found[0].TotalNs != 1<<40 {
		t.Fatalf("Find: %+v", found)
	}
	if got := s.Find(0xdead, 0xbeef); len(got) != 0 {
		t.Fatalf("Find(unknown) = %+v", got)
	}
}

func TestTraceSinkDropsInvalidAndNilSafe(t *testing.T) {
	s := NewTraceSink()
	s.Publish(RequestTrace{TotalNs: 100}) // zero trace context
	if s.Published() != 0 || len(s.Snapshot()) != 0 {
		t.Fatal("invalid trace was stored")
	}
	var nilSink *TraceSink
	nilSink.Publish(mkRequestTrace(1, 100))
	if nilSink.Published() != 0 || nilSink.Snapshot() != nil ||
		nilSink.Slowest() != nil || nilSink.Retained() != nil || nilSink.Find(1, 2) != nil {
		t.Fatal("nil sink not inert")
	}
}

func TestTraceSinkPublishZeroAlloc(t *testing.T) {
	s := NewTraceSink()
	rt := mkRequestTrace(3, 500)
	if avg := testing.AllocsPerRun(200, func() { s.Publish(rt) }); avg != 0 {
		t.Fatalf("%v allocs per Publish, want 0", avg)
	}
}

func TestWriteRequestTracesJSONL(t *testing.T) {
	s := NewTraceSink()
	for n := uint64(0); n < 3; n++ {
		s.Publish(mkRequestTrace(n, int64(100+n)))
	}
	var buf bytes.Buffer
	if err := WriteRequestTracesJSONL(&buf, s.Retained()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3", len(lines))
	}
	for _, line := range lines {
		var rt RequestTrace
		if err := json.Unmarshal([]byte(line), &rt); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if len(rt.TraceID) != 32 || len(rt.SpanID) != 16 {
			t.Fatalf("line %q: ids not rendered", line)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tc := GenTrace(11, 0)
	req := RequestTrace{
		Trace:       tc,
		StartUnixNs: 1_000_000, QueueNs: 100, CoalesceNs: 200, PassNs: 300, TotalNs: 700,
		Queries: 2, Replica: 1, Epoch: 3,
	}
	req.TraceID = tc.TraceIDString()
	req.SpanID = tc.SpanIDString()
	events := []JournalEvent{
		{ // sampled query with an absolute start: placed at its own wall clock
			Query: 0, Strand: 2, TraceHi: tc.TraceHi, TraceLo: tc.TraceLo,
			Span: ChildSpan(tc.Span, 0), SpanID: SpanIDString(ChildSpan(tc.Span, 0)),
			StartNs: 1_000_350, DescentNs: 40, ScanNs: 60, LatencyNs: 100, Sampled: true,
		},
		{ // untimed query: no start, no latency -> skipped
			Query: 1, Strand: 3, TraceHi: tc.TraceHi, TraceLo: tc.TraceLo,
			Span: ChildSpan(tc.Span, 1),
		},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []RequestTrace{req}, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name]++
	}
	for _, want := range []string{"queue", "coalesce", "pass", "descend", "scan", "process_name"} {
		if byName[want] == 0 {
			t.Fatalf("no %q event in %s", want, buf.String())
		}
	}
	// Metadata events sort first; request spans are contiguous in time.
	if doc.TraceEvents[0].Ph != "M" {
		t.Fatalf("first event not metadata: %+v", doc.TraceEvents[0])
	}
	var queueTs, coalesceTs, passTs, descendTs, scanTs float64
	var descendTid int
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "queue":
			queueTs = ev.Ts
		case "coalesce":
			coalesceTs = ev.Ts
		case "pass":
			passTs = ev.Ts
		case "descend":
			descendTs, descendTid = ev.Ts, ev.Tid
		case "scan":
			scanTs = ev.Ts
		}
	}
	if queueTs != 0 || coalesceTs != 0.1 || passTs != 0.3 {
		t.Fatalf("request spans at %v/%v/%v us, want 0/0.1/0.3", queueTs, coalesceTs, passTs)
	}
	// The sampled query starts 350ns after admission and its scan follows
	// its descent; it lives on the strand lane, offset past the replicas.
	if descendTs != 0.35 || scanTs != 0.39 {
		t.Fatalf("descend/scan at %v/%v us, want 0.35/0.39", descendTs, scanTs)
	}
	if descendTid != 102 {
		t.Fatalf("descend on lane %d, want strand lane 102", descendTid)
	}
	// The untimed query contributed nothing.
	if byName["descend"] != 1 || byName["scan"] != 1 {
		t.Fatalf("untimed query drew spans: %v", byName)
	}

	if err := WriteChromeTrace(&buf, nil, nil); err == nil {
		t.Fatal("empty trace list accepted")
	}
}
