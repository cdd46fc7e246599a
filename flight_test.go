package sepdc

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sepdc/internal/obs"
)

// TestNewServeObserverDeterministicOnTakenName: the re-registration
// footgun fix — a second NewServeObserver under a live name shares the
// incumbent's recorder instead of silently stealing its exposition slot.
func TestNewServeObserverDeterministicOnTakenName(t *testing.T) {
	a := NewServeObserver("dedup-probe", ServeObserverConfig{SampleEvery: 1})
	defer a.Close()
	b := NewServeObserver("dedup-probe", ServeObserverConfig{SampleEvery: 64})
	if a.rec != b.rec {
		t.Fatal("second NewServeObserver on a taken name did not return the incumbent's recorder")
	}
	// Traffic through either handle lands in the one registration.
	points := genPoints(400, 2, 3)
	qs, err := NewQueryStructure(points, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	bt := qs.NewBatcher(1)
	bt.Observe(b)
	if err := bt.Run(queryPoints(points, 50, 5)); err != nil {
		t.Fatal(err)
	}
	if snap := a.Snapshot(); snap.Queries != 50 {
		t.Fatalf("incumbent saw %d queries, want 50", snap.Queries)
	}
}

// TestQueryJournalEndToEnd: the public journal records every served
// query and round-trips through Snapshot/Drain with the documented
// semantics.
func TestQueryJournalEndToEnd(t *testing.T) {
	points := genPoints(800, 2, 7)
	qs, err := NewQueryStructure(points, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	qj := NewQueryJournal("journal-e2e", QueryJournalConfig{PerStrand: 1024})
	defer qj.Close()
	// Taken-name path shares the incumbent's rings.
	if dup := NewQueryJournal("journal-e2e", QueryJournalConfig{}); dup.j != qj.j {
		t.Fatal("repeat NewQueryJournal did not share the incumbent's rings")
	}
	bt := qs.NewBatcher(2)
	bt.Journal(qj)
	queries := queryPoints(points, 128, 9)
	for i := 0; i < 2; i++ {
		if err := bt.Run(queries); err != nil {
			t.Fatal(err)
		}
	}
	snap := qj.Snapshot()
	if snap.Published != 256 {
		t.Fatalf("published %d events, want 256", snap.Published)
	}
	if d := qj.Drain(); len(d.Events) != 256 || d.Dropped != 0 {
		t.Fatalf("drain: events=%d dropped=%d", len(d.Events), d.Dropped)
	}
	if d := qj.Drain(); len(d.Events) != 0 {
		t.Fatalf("second drain returned %d events", len(d.Events))
	}
	// Detach stops emission.
	bt.Journal(nil)
	if err := bt.Run(queries); err != nil {
		t.Fatal(err)
	}
	if d := qj.Snapshot(); d.Published != 256 {
		t.Fatalf("detached Batcher still published: %d", d.Published)
	}
}

// TestBatcherJournaledZeroAllocSteadyState: the acceptance criterion at
// the public layer — observer AND journal attached, warm Runs allocate
// nothing.
func TestBatcherJournaledZeroAllocSteadyState(t *testing.T) {
	points := genPoints(1500, 2, 11)
	qs, err := NewQueryStructure(points, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	o := NewServeObserver("journal-alloc-probe", ServeObserverConfig{SampleEvery: 4})
	defer o.Close()
	qj := NewQueryJournal("journal-alloc-probe", QueryJournalConfig{PerStrand: 1024})
	defer qj.Close()
	bt := qs.NewBatcher(2)
	bt.Observe(o)
	bt.Journal(qj)
	queries := queryPoints(points, 256, 13)
	for warm := 0; warm < 3; warm++ {
		if err := bt.Run(queries); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(30, func() { bt.Run(queries) }); avg != 0 {
		t.Fatalf("%v allocs per journaled steady-state Run, want 0", avg)
	}
}

// TestFlightRecorderChaosStallTripsAndCaptures is the tentpole
// integration test: a KNN_CHAOS stall profile inflates per-batch
// latency, the SLO burn rate trips on both windows, and the recorder
// captures a complete bundle — journal + tail sampler + runtime trace +
// CPU profile — that CheckFlightBundle accepts.
func TestFlightRecorderChaosStallTripsAndCaptures(t *testing.T) {
	// The healthy-baseline phase below depends on chaos being off; pin
	// the env so an external KNN_CHAOS profile (the chaos matrix runs
	// this test under stall=200us) cannot stall the "clean" batches and
	// trip the SLO before the outage phase starts.
	t.Setenv("KNN_CHAOS", "")
	points := genPoints(600, 2, 17)
	qs, err := NewQueryStructure(points, 3, 17)
	if err != nil {
		t.Fatal(err)
	}

	// Build a healthy latency baseline first (no chaos): an hour of
	// synthetic clean batches at one per second.
	dir := t.TempDir()
	fr, err := NewFlightRecorder(FlightConfig{
		Dir:              dir,
		LatencyObjective: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()

	o := NewServeObserver("flight-e2e", ServeObserverConfig{SampleEvery: 4})
	defer o.Close()
	qj := NewQueryJournal("flight-e2e", QueryJournalConfig{PerStrand: 4096})
	defer qj.Close()

	queries := queryPoints(points, 64, 19)
	mkBatcher := func() *Batcher {
		bt := qs.NewBatcher(1)
		bt.Observe(o)
		bt.Journal(qj)
		return bt
	}

	bt := mkBatcher()
	if err := fr.WatchBatcher("latency", bt, qj, o); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := bt.Run(queries); err != nil {
			t.Fatal(err)
		}
		if s := fr.Evaluate(); s.Tripped {
			t.Fatalf("healthy traffic tripped the SLO: %+v", s)
		}
	}

	// Outage: a new Batcher under a KNN_CHAOS stall profile (the public
	// construction seam), serving the same traffic. 64 queries in
	// 16-query chunks = 4 chunks; stall=3ms makes every batch ~12ms,
	// far over the 4ms objective, so the bad fraction goes to ~100% and
	// both burn windows saturate.
	t.Setenv("KNN_CHAOS", "stall=3ms")
	stalled := mkBatcher()
	t.Setenv("KNN_CHAOS", "")
	if err := fr.WatchBatcher("stalled", stalled, qj, o); err == nil {
		t.Fatal("second WatchBatcher accepted")
	}

	fr2, err := NewFlightRecorder(FlightConfig{
		Dir:              dir,
		LatencyObjective: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fr2.Close()
	if err := fr2.WatchBatcher("latency-stalled", stalled, qj, o); err != nil {
		t.Fatal(err)
	}
	tripped := false
	for i := 0; i < 400 && !tripped; i++ {
		if err := stalled.Run(queries); err != nil {
			t.Fatal(err)
		}
		tripped = fr2.Evaluate().Tripped
	}
	if !tripped {
		t.Fatal("stall profile never tripped the SLO")
	}
	fr2.Close() // wait for the async capture

	bundles := fr2.Bundles()
	if len(bundles) == 0 {
		t.Fatal("trip produced no bundle")
	}
	bundle := bundles[0]
	if err := CheckFlightBundle(bundle); err != nil {
		t.Fatalf("CheckFlightBundle: %v", err)
	}

	// The bundle's evidence reflects this serving session.
	raw, err := os.ReadFile(filepath.Join(bundle, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Reason  string `json:"reason"`
		Journal struct {
			Published uint64 `json:"published"`
			Events    int    `json:"events"`
		} `json:"journal"`
		Gauges []obs.GaugeValue `json:"gauges"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Reason, "tripped") {
		t.Fatalf("reason = %q", m.Reason)
	}
	if m.Journal.Events == 0 {
		t.Fatal("bundle journal is empty")
	}
	foundTrip := false
	for _, g := range m.Gauges {
		if g.Name == "sepdc_slo_tripped" && g.LabelValue == "latency-stalled" && g.Value == 1 {
			foundTrip = true
		}
	}
	if !foundTrip {
		t.Fatalf("sepdc_slo_tripped gauge not in bundle meta: %v", m.Gauges)
	}
	for _, name := range []string{"journal.jsonl", "tail.json", "runtime.json", "trace.out", "cpu.pprof"} {
		st, err := os.Stat(filepath.Join(bundle, name))
		if err != nil || st.Size() == 0 {
			t.Fatalf("bundle evidence %s: %v", name, err)
		}
	}

	// Manual capture works too and respects no cooldown.
	dir2, err := fr2.Capture("manual")
	if err != nil || dir2 == "" {
		t.Fatalf("manual capture: %q, %v", dir2, err)
	}
	if err := CheckFlightBundle(dir2); err != nil {
		t.Fatal(err)
	}
}
