package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"sepdc/internal/obs/promtext"
)

// TestMetricsHandlerExposition: a scrape of /metrics must be a valid
// Prometheus text exposition carrying the registered telemetry.
func TestMetricsHandlerExposition(t *testing.T) {
	rec := NewServeRecorder(ServeConfig{SampleEvery: 1}, 2)
	s := rec.Strand(0)
	for i := 0; i < 100; i++ {
		feed(s, TailSample{DescentNs: int64(200 + i), ScanNs: int64(100 + i), Nodes: 6, Scanned: 9, Reported: 2},
			[]int32{0, 3, 7}, true)
	}
	RegisterServe("testengine", rec)
	defer UnregisterServe("testengine", rec)
	SetGauge(GaugeKey{Name: "sepdc_audit_pass", LabelName: "gen", LabelValue: "uniform-ball"},
		"1 when every audit check passed.", 1)

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	exp, err := promtext.Lint(resp.Body)
	if err != nil {
		t.Fatalf("exposition failed lint: %v", err)
	}
	if got := exp.Find("sepdc_serve_testengine_queries_total"); len(got) != 1 || got[0].Value != 100 {
		t.Errorf("queries counter = %+v", got)
	}
	if got := exp.Find("sepdc_serve_testengine_latency_ns_count"); len(got) != 1 || got[0].Value != 100 {
		t.Errorf("latency count = %+v", got)
	}
	if got := exp.Find("sepdc_audit_pass"); len(got) != 1 || got[0].Value != 1 ||
		len(got[0].Labels) != 1 || got[0].Labels[0] != (promtext.Label{Name: "gen", Value: "uniform-ball"}) {
		t.Errorf("audit gauge = %+v", got)
	}
	if exp.Types["sepdc_query_served_total"] != "counter" {
		t.Errorf("global counters missing: %v", exp.Types)
	}
	if got := exp.Find("sepdc_serve_testengine_window_latency_ns"); len(got) != 4 {
		t.Errorf("summary quantiles = %+v", got)
	}
}

// TestStatszJSON: /statsz must carry the full machine-readable snapshot
// including tail samples with descent paths.
func TestStatszJSON(t *testing.T) {
	rec := NewServeRecorder(ServeConfig{SampleEvery: 1}, 1)
	feed(rec.Strand(0), TailSample{DescentNs: 900, ScanNs: 600, Nodes: 5, Scanned: 7, Reported: 1},
		[]int32{0, 2, 6, 14}, true)
	RegisterServe("statszengine", rec)
	defer UnregisterServe("statszengine", rec)

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Globals map[string]int64 `json:"globals"`
		Serves  map[string]struct {
			Queries int64 `json:"queries"`
			Tail    []struct {
				LatencyNs int64   `json:"latency_ns"`
				Path      []int32 `json:"path"`
			} `json:"tail"`
		} `json:"serves"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("statsz is not valid JSON: %v", err)
	}
	eng, ok := doc.Serves["statszengine"]
	if !ok {
		t.Fatalf("statsz missing engine: %+v", doc.Serves)
	}
	if eng.Queries != 1 || len(eng.Tail) != 1 || eng.Tail[0].LatencyNs != 1500 {
		t.Fatalf("engine snapshot = %+v", eng)
	}
	if got := eng.Tail[0].Path; len(got) != 4 || got[3] != 14 {
		t.Fatalf("tail path = %v", got)
	}
}

// TestMetricsJournalOverwriteGauge: /metrics must expose one
// sepdc_journal_overwrite_rate sample per registered journal, valued at
// the ring's Overwritten/Published fraction.
func TestMetricsJournalOverwriteGauge(t *testing.T) {
	j := NewJournal(JournalConfig{PerStrand: 4}, 1)
	j.Strand(0).Publish(mkEvents(1, 0, 8)) // half the history overwritten
	RegisterJournal("gaugejournal", j)
	defer UnregisterJournal("gaugejournal", j)

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
	var found bool
	for _, s := range exp.Find("sepdc_journal_overwrite_rate") {
		if len(s.Labels) == 1 && s.Labels[0] == (promtext.Label{Name: "engine", Value: "gaugejournal"}) {
			found = true
			if s.Value != 0.5 {
				t.Errorf("overwrite rate = %v, want 0.5", s.Value)
			}
		}
	}
	if !found {
		t.Errorf("no gaugejournal sample in %+v", exp.Find("sepdc_journal_overwrite_rate"))
	}
	if exp.Types["sepdc_journal_overwrite_rate"] != "gauge" {
		t.Errorf("type = %q, want gauge", exp.Types["sepdc_journal_overwrite_rate"])
	}
}
