package septree

import (
	"testing"
	"time"

	"sepdc/internal/chaos"
	"sepdc/internal/obs"
)

// TestJournaledBatchIdenticalResults: attaching a journal must not
// change a single answer or engine counter, in every serving mode
// (sequential, parallel, observed+journaled together).
func TestJournaledBatchIdenticalResults(t *testing.T) {
	f, pts := buildUniform(t, 1200, 3, 3, 29, nil)
	queries := queryMix(pts, 3, 333, 31)
	for _, workers := range []int{1, 4} {
		plain := NewBatch(f, workers)
		journaled := NewBatch(f, workers)
		journaled.Observe(obs.NewServeRecorder(obs.ServeConfig{SampleEvery: 4}, workers))
		journaled.Journal(obs.NewJournal(obs.JournalConfig{PerStrand: 512}, workers))
		for _, closed := range []bool{false, true} {
			plain.Run(queries, nil, closed)
			journaled.Run(queries, nil, closed)
			for i := range queries {
				if !equalInts(plain.Result(i), journaled.Result(i)) {
					t.Fatalf("workers=%d closed=%v query %d: journaled %v, plain %v",
						workers, closed, i, journaled.Result(i), plain.Result(i))
				}
			}
		}
		a, b := plain.Stats(), journaled.Stats()
		if a.Queries != b.Queries || a.NodesVisited != b.NodesVisited || a.LeafScanned != b.LeafScanned {
			t.Fatalf("workers=%d: journaled stats %+v diverge from plain %+v",
				workers, b, a)
		}
	}
}

// TestJournaledBatchEventCorrectness: every served query appears exactly
// once per Run, and the events' per-query fields reconcile with the
// engine's exact counters and the answers read back through Result.
func TestJournaledBatchEventCorrectness(t *testing.T) {
	f, pts := buildUniform(t, 1500, 2, 3, 7, nil)
	queries := queryMix(pts, 2, 300, 13)
	b := NewBatch(f, 4)
	b.Observe(obs.NewServeRecorder(obs.ServeConfig{SampleEvery: 4}, 4))
	// Big enough that even one strand serving the whole load (pool
	// degraded to inline on a saturated box) keeps both Runs' events.
	j := obs.NewJournal(obs.JournalConfig{PerStrand: 2048}, 4)
	b.Journal(j)
	b.Run(queries, nil, false)
	b.Run(queries, nil, false)

	d := j.Snapshot()
	if d.Published != uint64(2*len(queries)) {
		t.Fatalf("published %d events, want %d", d.Published, 2*len(queries))
	}
	// Exactly one event per (batch, query), batches stamped 1 and 2.
	seen := map[[2]int64]bool{}
	var nodes, scanned int64
	sampled := 0
	for _, ev := range d.Events {
		key := [2]int64{ev.Batch, int64(ev.Query)}
		if seen[key] {
			t.Fatalf("duplicate event %+v", ev)
		}
		seen[key] = true
		if ev.Batch != 1 && ev.Batch != 2 {
			t.Fatalf("batch ordinal %d", ev.Batch)
		}
		if ev.Query < 0 || int(ev.Query) >= len(queries) {
			t.Fatalf("query id %d out of range", ev.Query)
		}
		if ev.Nodes < 1 {
			t.Fatalf("event visited %d nodes", ev.Nodes)
		}
		if ev.Leaf >= 0 && int(ev.Leaf) >= f.NumNodes() {
			t.Fatalf("leaf %d out of range", ev.Leaf)
		}
		if ev.Sampled {
			sampled++
			if ev.LatencyNs != ev.DescentNs+ev.ScanNs || ev.LatencyNs <= 0 {
				t.Fatalf("sampled latency %d != %d + %d",
					ev.LatencyNs, ev.DescentNs, ev.ScanNs)
			}
		}
		if ev.Batch == 2 {
			// The second Run's results are still addressable.
			if got := int32(len(b.Result(int(ev.Query)))); got != ev.Reported {
				t.Fatalf("query %d reported %d, Result has %d",
					ev.Query, ev.Reported, got)
			}
			nodes += int64(ev.Nodes)
			scanned += int64(ev.Scanned)
		}
	}
	if len(seen) != 2*len(queries) {
		t.Fatalf("%d distinct events, want %d", len(seen), 2*len(queries))
	}
	if sampled == 0 {
		t.Fatal("no sampled events at shift 2")
	}
	// Nodes and candidates scanned reconcile with the engine's exact
	// counters for one Run.
	st := b.Stats()
	if nodes != st.NodesVisited/2 {
		t.Fatalf("journal nodes %d, engine %d per run", nodes, st.NodesVisited/2)
	}
	if scanned != st.LeafScanned/2 {
		t.Fatalf("journal scanned %d, engine %d per run", scanned, st.LeafScanned/2)
	}
}

// TestJournaledBatchZeroAllocSteadyState extends the zero-alloc
// assertion to the journaled path: recorder AND journal attached, warm
// Runs must not allocate — the acceptance bar for leaving the flight
// recorder on in production.
func TestJournaledBatchZeroAllocSteadyState(t *testing.T) {
	f, pts := buildUniform(t, 2000, 2, 3, 5, nil)
	queries := queryMix(pts, 2, 256, 9)
	for _, workers := range []int{1, 4} {
		b := NewBatch(f, workers)
		b.Observe(obs.NewServeRecorder(obs.ServeConfig{SampleEvery: 4}, workers))
		b.Journal(obs.NewJournal(obs.JournalConfig{PerStrand: 1024}, workers))
		for warm := 0; warm < 3; warm++ {
			b.Run(queries, nil, false)
		}
		if avg := testing.AllocsPerRun(50, func() { b.Run(queries, nil, false) }); avg != 0 {
			t.Fatalf("workers=%d: %v allocs per journaled steady-state Run, want 0",
				workers, avg)
		}
	}
}

// TestBatchChaosStallInflatesLatency: the serving chaos seam must slow
// per-batch wall time without touching answers — the lever the SLO
// integration test pulls.
func TestBatchChaosStallInflatesLatency(t *testing.T) {
	f, pts := buildUniform(t, 600, 2, 3, 3, nil)
	queries := queryMix(pts, 2, 64, 5)

	plain := NewBatch(f, 1)
	plain.Run(queries, nil, false)

	inj, err := chaos.Parse("stall=5ms")
	if err != nil {
		t.Fatal(err)
	}
	stalled := NewBatch(f, 1)
	stalled.Chaos(inj)
	start := time.Now()
	stalled.Run(queries, nil, false)
	elapsed := time.Since(start)

	// 64 queries / 16-per-chunk = 4 chunks -> >= 20ms of injected stall.
	if elapsed < 20*time.Millisecond {
		t.Fatalf("stalled Run took %v, want >= 20ms of injected stall", elapsed)
	}
	for i := range queries {
		if !equalInts(plain.Result(i), stalled.Result(i)) {
			t.Fatalf("query %d: stalled %v, plain %v", i, stalled.Result(i), plain.Result(i))
		}
	}
	// Detach restores full speed semantics (nil injector branch).
	stalled.Chaos(nil)
	start = time.Now()
	stalled.Run(queries, nil, false)
	if e := time.Since(start); e > 10*time.Millisecond {
		t.Fatalf("detached Run still stalled: %v", e)
	}
}

// TestJournalDetach: a nil journal detaches cleanly and publishing stops.
func TestJournalDetach(t *testing.T) {
	f, pts := buildUniform(t, 600, 2, 3, 3, nil)
	queries := queryMix(pts, 2, 64, 5)
	b := NewBatch(f, 2)
	j := obs.NewJournal(obs.JournalConfig{PerStrand: 256}, 2)
	b.Journal(j)
	b.Run(queries, nil, false)
	if d := j.Snapshot(); d.Published != uint64(len(queries)) {
		t.Fatalf("published %d, want %d", d.Published, len(queries))
	}
	b.Journal(nil)
	b.Run(queries, nil, false)
	if d := j.Snapshot(); d.Published != uint64(len(queries)) {
		t.Fatalf("detached engine still published: %d", d.Published)
	}
}

// BenchmarkJournaledBatch times steady-state serving on one strand with
// each telemetry layer added in turn, so each layer's per-query cost has
// a name: nil (bare engine), journal (wide events only), observer (the
// default 1-in-16 recorder only), and traced (observer, journal and
// every query traced with 1 in 16 client-sampled). perfbench's
// obs.overhead_pct measures the traced set-up end to end, against nil.
func BenchmarkJournaledBatch(b *testing.B) {
	f, pts := buildUniform(b, 100000, 2, 4, 1, nil)
	queries := queryMix(pts, 2, 4096, 99)
	for _, mode := range []string{"nil", "journal", "observer", "traced"} {
		b.Run(mode, func(b *testing.B) {
			bt := NewBatch(f, 1)
			var traces []obs.TraceContext
			if mode == "journal" || mode == "traced" {
				bt.Journal(obs.NewJournal(obs.JournalConfig{}, 1))
			}
			if mode == "observer" || mode == "traced" {
				bt.Observe(obs.NewServeRecorder(obs.ServeConfig{}, 1))
			}
			if mode == "traced" {
				traces = mkTraces(len(queries), 1, 99, 16, 0)
			}
			bt.Run(queries, traces, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt.Run(queries, traces, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
		})
	}
}
