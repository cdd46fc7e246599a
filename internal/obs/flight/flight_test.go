package flight

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sepdc/internal/obs"
)

func testSources() Sources {
	j := obs.NewJournal(obs.JournalConfig{PerStrand: 64}, 2)
	j.Strand(0).Publish([]obs.JournalEvent{
		{Batch: 1, Query: 0, Leaf: 3, Nodes: 4, Scanned: 9, Reported: 2,
			Sampled: true, LatencyNs: 1200, DescentNs: 700, ScanNs: 500},
		{Batch: 1, Query: 2, Leaf: -1, Nodes: 3},
	})
	j.Strand(1).Publish([]obs.JournalEvent{{Batch: 1, Query: 1, Leaf: 5, Nodes: 4}})
	rec := obs.NewServeRecorder(obs.ServeConfig{SampleEvery: 1}, 1)
	obs.PublishChunk(nil, rec.Strand(0), []obs.JournalEvent{
		{Nodes: 4, Scanned: 9, Reported: 2, Sampled: true, Ticked: true, DescentNs: 700, ScanNs: 500},
		{}, {},
	}, [][]int32{{0, 1, 3}, nil, nil})
	return Sources{
		Journal: j,
		Serve:   rec,
		Runtime: func() map[string]float64 { return map[string]float64{"sepdc_runtime_goroutines": 7} },
		Extra:   func() any { return map[string]string{"trigger": "test"} },
	}
}

func TestCaptureProducesCompleteBundle(t *testing.T) {
	dir := t.TempDir()
	r := New(Config{Dir: dir, Window: 10 * time.Millisecond}, testSources())
	bundle, err := r.Capture("unit-test")
	if err != nil {
		t.Fatal(err)
	}
	if bundle == "" || !strings.HasPrefix(filepath.Base(bundle), "bundle-") {
		t.Fatalf("bundle path %q", bundle)
	}
	if err := CheckBundle(bundle); err != nil {
		t.Fatalf("CheckBundle: %v", err)
	}
	if r.Captures() != 1 {
		t.Fatalf("captures = %d", r.Captures())
	}

	// meta.json carries the reason, journal accounting, and extras.
	raw, err := os.ReadFile(filepath.Join(bundle, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["reason"] != "unit-test" {
		t.Fatalf("reason = %v", m["reason"])
	}
	jm, ok := m["journal"].(map[string]any)
	if !ok || jm["published"].(float64) != 3 || jm["events"].(float64) != 3 {
		t.Fatalf("journal meta = %v", m["journal"])
	}
	extra, ok := m["extra"].(map[string]any)
	if !ok || extra["trigger"] != "test" {
		t.Fatalf("extra = %v", m["extra"])
	}

	// journal.jsonl: 3 events in (batch, query) order.
	jl, err := os.ReadFile(filepath.Join(bundle, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(jl), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal.jsonl has %d lines", len(lines))
	}
	for i, ln := range lines {
		var ev obs.JournalEvent
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if int(ev.Query) != i {
			t.Fatalf("line %d holds query %d — not (batch, query) ordered", i, ev.Query)
		}
	}

	// tail.json parses back into a ServeSnapshot with the recorded sample.
	tl, err := os.ReadFile(filepath.Join(bundle, "tail.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.ServeSnapshot
	if err := json.Unmarshal(tl, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Queries != 3 || snap.Latency.Count != 1 {
		t.Fatalf("tail snapshot %+v", snap)
	}

	// runtime.json round-trips the sampler map.
	rt, err := os.ReadFile(filepath.Join(bundle, "runtime.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rm map[string]float64
	if err := json.Unmarshal(rt, &rm); err != nil {
		t.Fatal(err)
	}
	if rm["sepdc_runtime_goroutines"] != 7 {
		t.Fatalf("runtime.json = %v", rm)
	}

	// The capture window really recorded: non-empty trace and profile.
	for _, name := range []string{"trace.out", "cpu.pprof"} {
		st, err := os.Stat(filepath.Join(bundle, name))
		if err != nil || st.Size() == 0 {
			t.Fatalf("%s: %v (size %d)", name, err, st.Size())
		}
	}
	// No .tmp leftovers.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp dir %s leaked", e.Name())
		}
	}
}

func TestCaptureDoesNotConsumeJournal(t *testing.T) {
	src := testSources()
	r := New(Config{Dir: t.TempDir(), Window: time.Millisecond}, src)
	if _, err := r.Capture("a"); err != nil {
		t.Fatal(err)
	}
	// A streaming consumer still sees every event after the capture.
	if d := src.Journal.Drain(); len(d.Events) != 3 {
		t.Fatalf("capture consumed the journal: drain saw %d events", len(d.Events))
	}
}

func TestTryCaptureCooldown(t *testing.T) {
	r := New(Config{Dir: t.TempDir(), Window: time.Millisecond, Cooldown: time.Hour}, Sources{})
	b1, err := r.TryCapture("first")
	if err != nil || b1 == "" {
		t.Fatalf("first TryCapture: %q, %v", b1, err)
	}
	b2, err := r.TryCapture("second")
	if err != nil {
		t.Fatal(err)
	}
	if b2 != "" {
		t.Fatalf("cooldown ignored: %q", b2)
	}
	// Explicit Capture bypasses the cooldown.
	if b3, err := r.Capture("forced"); err != nil || b3 == "" {
		t.Fatalf("forced capture: %q, %v", b3, err)
	}
	if r.Captures() != 2 {
		t.Fatalf("captures = %d", r.Captures())
	}
}

func TestEmptySourcesBundleStillValid(t *testing.T) {
	r := New(Config{Dir: t.TempDir(), Window: time.Millisecond}, Sources{})
	bundle, err := r.Capture("bare")
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBundle(bundle); err != nil {
		t.Fatalf("CheckBundle on bare bundle: %v", err)
	}
	if _, err := os.Stat(filepath.Join(bundle, "journal.jsonl")); !os.IsNotExist(err) {
		t.Fatal("bare bundle grew a journal.jsonl")
	}
}

func TestCheckBundleCatchesCorruption(t *testing.T) {
	r := New(Config{Dir: t.TempDir(), Window: time.Millisecond}, testSources())
	bundle, err := r.Capture("x")
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the journal mid-line: CheckBundle must notice.
	p := filepath.Join(bundle, "journal.jsonl")
	raw, _ := os.ReadFile(p)
	if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckBundle(bundle); err == nil {
		t.Fatal("CheckBundle accepted a truncated journal")
	}
	if err := CheckBundle(filepath.Join(bundle, "nope")); err == nil {
		t.Fatal("CheckBundle accepted a missing bundle")
	}
	// Remove the trace without a meta note: unexplained absence is an error.
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(bundle, "trace.out")); err != nil {
		t.Fatal(err)
	}
	if err := CheckBundle(bundle); err == nil {
		t.Fatal("CheckBundle accepted a missing trace.out")
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if d, err := r.Capture("x"); d != "" || err != nil {
		t.Fatalf("nil Capture: %q, %v", d, err)
	}
	if d, err := r.TryCapture("x"); d != "" || err != nil {
		t.Fatalf("nil TryCapture: %q, %v", d, err)
	}
	if r.Captures() != 0 {
		t.Fatal("nil Captures")
	}
}

// TestCaptureBundleTraces: a recorder wired to a trace sink freezes the
// retained request traces into traces.jsonl, records the count in
// meta.json, and CheckBundle holds the file to that count and to
// well-formed trace ids.
func TestCaptureBundleTraces(t *testing.T) {
	sink := obs.NewTraceSink(obs.TraceSinkConfig{Ring: 8, Tail: 2})
	for n := uint64(0); n < 5; n++ {
		tc := obs.GenTrace(13, n)
		sink.Publish(obs.RequestTrace{
			Trace:       tc,
			StartUnixNs: int64(1000 + n),
			QueueNs:     10, CoalesceNs: 20, PassNs: 100 + int64(n)*50,
			TotalNs: 130 + int64(n)*50, Queries: 3, Replica: 0, Epoch: 1,
		})
	}
	src := testSources()
	src.Traces = sink.Retained

	dir := t.TempDir()
	r := New(Config{Dir: dir, Window: 10 * time.Millisecond}, src)
	bundle, err := r.Capture("trace-test")
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBundle(bundle); err != nil {
		t.Fatalf("CheckBundle: %v", err)
	}

	raw, err := os.ReadFile(filepath.Join(bundle, "traces.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("traces.jsonl has %d lines, want 5", len(lines))
	}
	ids := map[string]bool{}
	for _, ln := range lines {
		var rt obs.RequestTrace
		if err := json.Unmarshal([]byte(ln), &rt); err != nil {
			t.Fatalf("bad line %q: %v", ln, err)
		}
		if len(rt.TraceID) != 32 || len(rt.SpanID) != 16 {
			t.Fatalf("ids not rendered: %q", ln)
		}
		ids[rt.TraceID] = true
	}
	// The slowest request (n=4) survives; the frozen set is the sink's
	// Retained view, deduplicated.
	if len(ids) != 5 {
		t.Fatalf("%d distinct traces, want 5", len(ids))
	}
	if !ids[obs.GenTrace(13, 4).TraceIDString()] {
		t.Fatal("slowest trace missing from the bundle")
	}

	var m struct {
		Traces *int `json:"traces"`
	}
	mraw, err := os.ReadFile(filepath.Join(bundle, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mraw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Traces == nil || *m.Traces != 5 {
		t.Fatalf("meta traces = %v, want 5", m.Traces)
	}

	// Truncating traces.jsonl breaks the bundle's integrity check.
	if err := os.WriteFile(filepath.Join(bundle, "traces.jsonl"), []byte(lines[0]+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckBundle(bundle); err == nil || !strings.Contains(err.Error(), "traces.jsonl") {
		t.Fatalf("CheckBundle accepted truncated traces.jsonl: %v", err)
	}
}
