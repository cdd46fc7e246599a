package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sepdc/internal/obs/promtext"
)

func httpGet(t *testing.T, srv *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestTracesEndpointJSONL: /traces streams every retained request trace
// as JSON Lines with the engine name, hex ids, and the publication count
// in Sepdc-Traces-Published; ?id= narrows to one trace and ?slowest=1
// returns the slow tail, slowest first.
func TestTracesEndpointJSONL(t *testing.T) {
	s := NewTraceSink(TraceSinkConfig{Ring: 8, Tail: 2})
	for n := uint64(0); n < 3; n++ {
		s.Publish(mkRequestTrace(n, int64(1000+n*100)))
	}
	RegisterTraces("httptraces", s)
	defer UnregisterTraces("httptraces", s)

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, body := httpGet(t, srv, "/traces?name=httptraces")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("content type = %q", ct)
	}
	if got := resp.Header.Get("Sepdc-Traces-Published"); got != "3" {
		t.Errorf("Sepdc-Traces-Published = %q, want 3", got)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3:\n%s", len(lines), body)
	}
	for _, line := range lines {
		var doc struct {
			Engine  string `json:"engine"`
			TraceID string `json:"trace_id"`
			SpanID  string `json:"span_id"`
			TotalNs int64  `json:"total_ns"`
		}
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if doc.Engine != "httptraces" || len(doc.TraceID) != 32 || len(doc.SpanID) != 16 || doc.TotalNs < 1000 {
			t.Fatalf("line fields: %+v", doc)
		}
	}

	// ?id= returns only the matching trace.
	tc := GenTrace(7, 1)
	resp, body = httpGet(t, srv, "/traces?id="+tc.TraceIDString())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("id lookup status %d", resp.StatusCode)
	}
	lines = strings.Split(strings.TrimSpace(body), "\n")
	var one struct {
		TraceID string `json:"trace_id"`
		TotalNs int64  `json:"total_ns"`
	}
	if len(lines) != 1 {
		t.Fatalf("id filter returned %d lines:\n%s", len(lines), body)
	}
	if err := json.Unmarshal([]byte(lines[0]), &one); err != nil {
		t.Fatal(err)
	}
	if one.TraceID != tc.TraceIDString() || one.TotalNs != 1100 {
		t.Fatalf("id lookup: %+v", one)
	}

	// ?slowest=1 orders by total, slowest first.
	_, body = httpGet(t, srv, "/traces?name=httptraces&slowest=1")
	lines = strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("slowest returned %d lines:\n%s", len(lines), body)
	}
	var a, b struct {
		TotalNs int64 `json:"total_ns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &b); err != nil {
		t.Fatal(err)
	}
	if a.TotalNs < b.TotalNs {
		t.Fatalf("slowest not slowest-first: %d then %d", a.TotalNs, b.TotalNs)
	}

	// Malformed ids are rejected before any sink is consulted.
	for _, bad := range []string{
		"deadbeef",                         // too short
		"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz", // non-hex
		"00000000000000000000000000000000", // all-zero
	} {
		resp, _ := httpGet(t, srv, "/traces?id="+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("id=%q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestTracesChromeEndpoint: ?format=chrome renders one trace as Chrome
// trace_event JSON, joining the per-query descend/scan spans from every
// registered journal by trace id; the format requires an id and 404s on
// traces the sink no longer retains.
func TestTracesChromeEndpoint(t *testing.T) {
	tc := GenTrace(21, 0)
	s := NewTraceSink(TraceSinkConfig{Ring: 8, Tail: 2})
	req := RequestTrace{
		Trace:       tc,
		StartUnixNs: 5_000_000, QueueNs: 100, CoalesceNs: 200, PassNs: 300, TotalNs: 700,
		Queries: 1, Replica: 0, Epoch: 1,
	}
	s.Publish(req)
	RegisterTraces("chromeeng", s)
	defer UnregisterTraces("chromeeng", s)

	j := NewJournal(JournalConfig{PerStrand: 8}, 1)
	j.Strand(0).Publish([]JournalEvent{{
		Batch: 1, Query: 0, Strand: 0, Leaf: 3, Nodes: 5, Scanned: 9, Reported: 2,
		Sampled: true, LatencyNs: 100, DescentNs: 40, ScanNs: 60,
		TraceHi: tc.TraceHi, TraceLo: tc.TraceLo, Span: ChildSpan(tc.Span, 0),
		StartNs: 5_000_350,
	}})
	RegisterJournal("chromeeng", j)
	defer UnregisterJournal("chromeeng", j)

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, body := httpGet(t, srv, "/traces?id="+tc.TraceIDString()+"&format=chrome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("not trace_event JSON: %v\n%s", err, body)
	}
	byName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name]++
	}
	for _, want := range []string{"queue", "coalesce", "pass", "descend", "scan"} {
		if byName[want] == 0 {
			t.Errorf("no %q span in rendering: %v", want, byName)
		}
	}

	// chrome format without an id is a client error, not a full dump.
	if resp, _ := httpGet(t, srv, "/traces?format=chrome"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("chrome without id: status %d, want 400", resp.StatusCode)
	}
	// A well-formed id the sink never saw (or already overwrote) is 404.
	other := GenTrace(99, 7)
	if resp, _ := httpGet(t, srv, "/traces?id="+other.TraceIDString()+"&format=chrome"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}
}

// TestJournalResponseHeaders: /journal reports saturation in one hit —
// X-Journal-Drained counts the events in this response and
// X-Journal-Overwritten the events the rings evicted before anyone read
// them; ?drain=1 consumes, so a second drain carries zero events.
func TestJournalResponseHeaders(t *testing.T) {
	j := NewJournal(JournalConfig{PerStrand: 4}, 1)
	j.Strand(0).Publish(mkEvents(1, 0, 6)) // ring of 4: 2 already overwritten
	RegisterJournal("hdrjournal", j)
	defer UnregisterJournal("hdrjournal", j)

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, body := httpGet(t, srv, "/journal?name=hdrjournal")
	if got := resp.Header.Get("Sepdc-Journal-Published"); got != "6" {
		t.Errorf("Sepdc-Journal-Published = %q, want 6", got)
	}
	if got := resp.Header.Get("X-Journal-Drained"); got != "4" {
		t.Errorf("X-Journal-Drained = %q, want 4", got)
	}
	if got := resp.Header.Get("X-Journal-Overwritten"); got != "2" {
		t.Errorf("X-Journal-Overwritten = %q, want 2", got)
	}
	if got := len(strings.Split(strings.TrimSpace(body), "\n")); got != 4 {
		t.Fatalf("%d body lines, want 4:\n%s", got, body)
	}

	// First drain consumes the ring; the second finds it empty, while
	// the overwrite counter keeps its history.
	resp, _ = httpGet(t, srv, "/journal?name=hdrjournal&drain=1")
	if got := resp.Header.Get("X-Journal-Drained"); got != "4" {
		t.Errorf("first drain X-Journal-Drained = %q, want 4", got)
	}
	resp, body = httpGet(t, srv, "/journal?name=hdrjournal&drain=1")
	if got := resp.Header.Get("X-Journal-Drained"); got != "0" {
		t.Errorf("second drain X-Journal-Drained = %q, want 0", got)
	}
	if got := resp.Header.Get("X-Journal-Overwritten"); got != "2" {
		t.Errorf("second drain X-Journal-Overwritten = %q, want 2", got)
	}
	if strings.TrimSpace(body) != "" {
		t.Fatalf("second drain carried events:\n%s", body)
	}
}

// TestMetricsLatencyExemplar: a traced observation must surface on
// /metrics as an OpenMetrics exemplar riding the latency histogram
// bucket it landed in, carrying the trace id and the observation's
// wall-clock timestamp — and the whole exposition must still lint.
func TestMetricsLatencyExemplar(t *testing.T) {
	const hdr = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatal("test vector rejected")
	}
	rec := NewServeRecorder(ServeConfig{SampleEvery: 1}, 1)
	ev := event(TailSample{DescentNs: 400, ScanNs: 212, Nodes: 5, Scanned: 9, Reported: 2}, true)
	ev.TraceHi, ev.TraceLo, ev.StartNs = tc.TraceHi, tc.TraceLo, 1_700_000_000_250_000_000
	PublishChunk(nil, rec.Strand(0), []JournalEvent{ev}, [][]int32{{0, 1}})
	RegisterServe("exemplareng", rec)
	defer UnregisterServe("exemplareng", rec)

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, err := promtext.Lint(resp.Body)
	if err != nil {
		t.Fatalf("exposition with exemplars failed lint: %v", err)
	}
	var found *promtext.Exemplar
	for _, smp := range exp.Find("sepdc_serve_exemplareng_latency_ns_bucket") {
		if smp.Exemplar != nil {
			if found != nil {
				t.Fatal("one traced observation produced multiple exemplars")
			}
			found = smp.Exemplar
		}
	}
	if found == nil {
		t.Fatal("no exemplar on the latency histogram")
	}
	if len(found.Labels) != 1 || found.Labels[0].Name != "trace_id" ||
		found.Labels[0].Value != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("exemplar labels: %+v", found.Labels)
	}
	if found.Value != 612 {
		t.Fatalf("exemplar value %v, want the 612ns observation", found.Value)
	}
	// The ns epoch exceeds float64's 52-bit mantissa, so the converted
	// timestamp is only ~µs-exact.
	if math.Abs(found.Ts-1700000000.25) > 1e-3 {
		t.Fatalf("exemplar ts %v, want ~1700000000.25", found.Ts)
	}
	// The descent histogram carries no exemplars — only the latency
	// family is exemplified.
	for _, smp := range exp.Find("sepdc_serve_exemplareng_descent_ns_bucket") {
		if smp.Exemplar != nil {
			t.Fatalf("descent bucket grew an exemplar: %+v", smp)
		}
	}
}

// TestMetricsExemplarOnEmptyHistogram: a query timed only because its
// request carried a sampled traceparent (Sampled, not Ticked) records
// its exemplar WITHOUT feeding the aggregate histogram. The exposition
// must still carry that exemplar — the bucket it names is synthesized
// as a zero-count cumulative point — and survive the linter. This is
// the first scrape after a traced request, before any tick-sampled
// observation lands.
func TestMetricsExemplarOnEmptyHistogram(t *testing.T) {
	const hdr = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatal("test vector rejected")
	}
	rec := NewServeRecorder(ServeConfig{SampleEvery: 1 << 20}, 1)
	forced := JournalEvent{Sampled: true, DescentNs: 700, TraceHi: tc.TraceHi, TraceLo: tc.TraceLo,
		StartNs: 1_700_000_000_000_000_000}
	PublishChunk(nil, rec.Strand(0), []JournalEvent{{}, forced, {}}, make([][]int32, 3))
	RegisterServe("forcedeng", rec)
	defer UnregisterServe("forcedeng", rec)

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, err := promtext.Lint(resp.Body)
	if err != nil {
		t.Fatalf("exposition failed lint: %v", err)
	}
	var found *promtext.Exemplar
	var cum float64
	for _, smp := range exp.Find("sepdc_serve_forcedeng_latency_ns_bucket") {
		if smp.Value < cum {
			t.Fatalf("cumulative bucket counts regressed: %v then %v", cum, smp.Value)
		}
		cum = smp.Value
		if smp.Exemplar != nil {
			if found != nil {
				t.Fatal("one forced observation produced multiple exemplars")
			}
			found = smp.Exemplar
			if smp.Value != 0 {
				t.Fatalf("forced exemplar's bucket has count %v, want 0 (aggregates untouched)", smp.Value)
			}
		}
	}
	if found == nil {
		t.Fatal("no exemplar on the empty latency histogram")
	}
	if found.Labels[0].Value != "4bf92f3577b34da6a3ce929d0e0e4736" || found.Value != 700 {
		t.Fatalf("exemplar %+v, want the forced 700ns observation", found)
	}
	if cum != 0 {
		t.Fatalf("forced observation leaked into the histogram: count %v", cum)
	}
}
