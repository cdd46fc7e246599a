package sepdc

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sepdc/internal/obs"
	"sepdc/internal/obs/promtext"
)

type failingWriter struct{ err error }

func (f *failingWriter) Write([]byte) (int, error) { return 0, f.err }

// TestGraphWriteTracePropagatesWriteError: a failing sink must surface
// through the public trace export, not vanish.
func TestGraphWriteTracePropagatesWriteError(t *testing.T) {
	points := genPoints(400, 2, 3)
	g, err := BuildKNNGraph(points, 2, &Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var ok bytes.Buffer
	if err := g.WriteTrace(&ok); err != nil {
		t.Fatalf("healthy writer failed: %v", err)
	}
	sink := errors.New("pipe closed")
	if err := g.WriteTrace(&failingWriter{err: sink}); !errors.Is(err, sink) {
		t.Fatalf("write error not propagated: %v", err)
	}
}

// TestStatsReportWriteText: the build report renders through the
// error-propagating WriteText used by cmd/knn.
func TestStatsReportWriteText(t *testing.T) {
	points := genPoints(400, 2, 3)
	g, err := BuildKNNGraph(points, 2, &Options{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := g.Stats().Report
	if rep == nil {
		t.Fatal("no report with Observe set")
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "observability report") {
		t.Fatalf("unexpected rendering:\n%s", buf.String())
	}
	sink := errors.New("disk full")
	if err := rep.WriteText(&failingWriter{err: sink}); !errors.Is(err, sink) {
		t.Fatalf("write error not propagated: %v", err)
	}
}

func TestStatsSnapshotJSON(t *testing.T) {
	points := genPoints(400, 2, 3)
	g, err := BuildKNNGraph(points, 2, &Options{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	raw, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if _, ok := doc["Report"]; !ok {
		t.Fatalf("snapshot missing report: %v", doc)
	}
}

// TestQueryJournalCloseSwapSafe: the /journal registry is first-wins and
// its teardown replace-safe. A replacement registers only after the owner
// unregisters, and the old handle's stale Close must not drop it.
func TestQueryJournalCloseSwapSafe(t *testing.T) {
	old := NewQueryJournal("swap-safe-j", QueryJournalConfig{})
	// A from-scratch replacement under the same name, bypassing the
	// NewQueryJournal reuse path.
	j2 := obs.NewJournal(obs.JournalConfig{}, 0)
	if got := obs.Journals.Register("swap-safe-j", j2); got != old.j {
		t.Fatal("a second registration displaced the owner")
	}
	old.Close() // the owner unregisters
	if got := obs.Journals.Register("swap-safe-j", j2); got != j2 {
		t.Fatal("replacement did not take the freed slot")
	}
	old.Close() // stale handle: must not drop j2's slot
	if got := obs.Journals.Lookup("swap-safe-j"); got != j2 {
		t.Fatal("stale journal Close dropped the replacement's registration")
	}
	obs.Journals.Unregister("swap-safe-j", j2)
	if obs.Journals.Lookup("swap-safe-j") != nil {
		t.Fatal("owner unregister left the slot registered")
	}
}

// TestNewQueryJournalConcurrentSameName: creators racing on one name all
// get the one registered journal, so no handle's rings fall out of
// /journal or flight bundles.
func TestNewQueryJournalConcurrentSameName(t *testing.T) {
	const creators = 64
	start := make(chan struct{})
	handles := make([]*QueryJournal, creators)
	var wg sync.WaitGroup
	for i := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			handles[i] = NewQueryJournal("concurrent-j", QueryJournalConfig{})
		}()
	}
	close(start)
	wg.Wait()
	defer handles[0].Close()
	owner := obs.Journals.Lookup("concurrent-j")
	for i, h := range handles {
		if h.j != owner {
			t.Fatalf("creator %d holds a journal that is not the registered one", i)
		}
	}
}

// TestMetricsHandlerEndToEnd: the public handler must serve a lintable
// exposition carrying a served Batcher's telemetry and published audit
// gauges — the in-process version of the CI scrape job.
func TestMetricsHandlerEndToEnd(t *testing.T) {
	points := genPoints(1200, 2, 41)
	qs, err := NewQueryStructure(points, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	obsv := NewServeObserver("e2e", ServeObserverConfig{SampleEvery: 2})
	defer obsv.Close()
	bt := qs.NewBatcher(2)
	bt.Observe(obsv)
	queries := queryPoints(points, 200, 43)
	for i := 0; i < 3; i++ {
		if err := bt.Run(queries); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := qs.Audit(queries)
	if err != nil {
		t.Fatal(err)
	}
	rep.Gen = "uniform-cube"
	rep.Publish()

	srv := httptest.NewServer(MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := promtext.Lint(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics failed lint: %v\n%s", err, body)
	}
	if got := exp.Find("sepdc_serve_e2e_queries_total"); len(got) != 1 || got[0].Value != 600 {
		t.Errorf("served counter = %+v", got)
	}
	if got := exp.Find("sepdc_audit_pass"); len(got) != 1 || got[0].Value != 1 {
		t.Errorf("audit pass gauge = %+v", got)
	}
	if exp.Types["sepdc_serve_e2e_latency_ns"] != "histogram" {
		t.Errorf("latency family missing: %v", exp.Types)
	}
}
