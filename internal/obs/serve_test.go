package obs

import (
	"math"
	"sync"
	"testing"
)

// synthStream is a deterministic synthetic query stream: latencies and
// traversal shapes with enough spread to land in many buckets and
// exercise the tail sampler.
func synthStream(n int) []TailSample {
	out := make([]TailSample, n)
	for i := range out {
		// A mostly-flat distribution with rare large spikes (the tail).
		lat := int64(200 + (i*37)%400)
		if i%97 == 0 {
			lat = int64(5000 + i*13)
		}
		desc := lat * 2 / 3
		out[i] = TailSample{
			DescentNs: desc,
			ScanNs:    lat - desc,
			LatencyNs: lat,
			Nodes:     8 + i%7,
			Scanned:   3 + i%29,
			Reported:  i % 5,
		}
	}
	return out
}

// event is q as a journal event; tick marks it sampled by the engine's
// own tick, so it feeds the aggregates.
func event(q TailSample, tick bool) JournalEvent {
	return JournalEvent{
		Sampled: tick, Ticked: tick,
		DescentNs: q.DescentNs, ScanNs: q.ScanNs,
		Nodes: int32(q.Nodes), Scanned: int32(q.Scanned), Reported: int32(q.Reported),
	}
}

// feed folds q into s as a one-event chunk.
func feed(s *ServeStrand, q TailSample, path []int32, tick bool) {
	PublishChunk(nil, s, []JournalEvent{event(q, tick)}, [][]int32{path})
}

// TestServeMergeMatchesSingleStrand is the satellite-4 golden: a
// snapshot merged across N strands fed round-robin must equal a
// single-strand recorder fed the same stream in order — histograms
// exactly, window quantiles exactly (the stream fits one strand's
// window), and the same top tail latencies.
func TestServeMergeMatchesSingleStrand(t *testing.T) {
	const n = serveWindow
	stream := synthStream(n)
	cfg := ServeConfig{SampleEvery: 1}

	single := NewServeRecorder(cfg, 1)
	s0 := single.Strand(0)
	path := []int32{0, 1, 2, 3}
	for _, q := range stream {
		feed(s0, q, path, true)
	}

	multi := NewServeRecorder(cfg, 4)
	for i, q := range stream {
		feed(multi.Strand(i%4), q, path, true)
	}

	a, b := single.Snapshot(), multi.Snapshot()
	if a.Queries != int64(n) || b.Queries != int64(n) {
		t.Fatalf("queries: single=%d multi=%d want %d", a.Queries, b.Queries, n)
	}
	if a.Sampled != b.Sampled {
		t.Fatalf("sampled: single=%d multi=%d", a.Sampled, b.Sampled)
	}
	for _, c := range []struct {
		name string
		x, y Hist
	}{
		{"latency", a.Latency, b.Latency},
		{"descent", a.Descent, b.Descent},
		{"scan", a.Scan, b.Scan},
		{"nodes", a.Nodes, b.Nodes},
		{"scanned", a.Scanned, b.Scanned},
	} {
		if !histEqual(c.x, c.y) {
			t.Errorf("%s: single=%+v multi=%+v", c.name, c.x, c.y)
		}
	}
	if a.Window != b.Window {
		t.Errorf("window quantiles diverge: single=%+v multi=%+v", a.Window, b.Window)
	}
	// The single recorder retains the global top-serveTail; each multi
	// strand retains its local top-serveTail, so the merged tail is a
	// superset of the true global top. Its serveTail slowest must match
	// exactly.
	if len(a.Tail) != serveTail || len(b.Tail) < serveTail {
		t.Fatalf("tail sizes: single=%d multi=%d", len(a.Tail), len(b.Tail))
	}
	for i := 0; i < serveTail; i++ {
		if a.Tail[i].LatencyNs != b.Tail[i].LatencyNs {
			t.Errorf("tail[%d]: single=%d multi=%d", i, a.Tail[i].LatencyNs, b.Tail[i].LatencyNs)
		}
	}
}

func histEqual(a, b Hist) bool {
	if a.Count != b.Count || a.Sum != b.Sum || a.Min != b.Min || a.Max != b.Max || len(a.Buckets) != len(b.Buckets) {
		return false
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			return false
		}
	}
	return true
}

// TestServeSampling: SampleEvery rounds up to a power of two, every
// folded event counts toward the exact query total, and only ticked
// events feed the aggregates — a forced (traced, unticked) timed event
// leaves them alone.
func TestServeSampling(t *testing.T) {
	r := NewServeRecorder(ServeConfig{SampleEvery: 5}, 1)
	s := r.Strand(0)
	q := TailSample{LatencyNs: 100, DescentNs: 60, ScanNs: 40, Nodes: 4, Scanned: 2}
	for i := 1; i <= 800; i++ {
		feed(s, q, nil, i%8 == 0)
	}
	snap := r.Snapshot()
	if snap.Queries != 800 {
		t.Errorf("queries = %d, want 800", snap.Queries)
	}
	if snap.Sampled != 100 {
		t.Errorf("sampled = %d, want 100 (1 in 8)", snap.Sampled)
	}
	if snap.SampleEvery != 8 {
		t.Errorf("sample_every = %d, want 8", snap.SampleEvery)
	}
	if snap.Latency.Count != 100 {
		t.Errorf("latency count = %d, want 100", snap.Latency.Count)
	}
	forced := event(q, false)
	forced.Sampled, forced.TraceLo = true, 1
	PublishChunk(nil, s, []JournalEvent{forced}, [][]int32{nil})
	if snap := r.Snapshot(); snap.Queries != 801 || snap.Sampled != 100 ||
		snap.Latency.Count != 100 || len(snap.LatencyExemplars) != 1 {
		t.Errorf("forced event: queries=%d sampled=%d latency=%d exemplars=%d, want 801/100/100/1",
			snap.Queries, snap.Sampled, snap.Latency.Count, len(snap.LatencyExemplars))
	}
}

// TestServeNilSafety: every method must be a no-op through nil
// receivers, and the nil fast path must not allocate.
func TestServeNilSafety(t *testing.T) {
	var r *ServeRecorder
	if r.Snapshot() != nil {
		t.Fatal("nil recorder produced a snapshot")
	}
	s := r.Strand(2)
	if s != nil {
		t.Fatal("nil recorder handed out a strand")
	}
	events := []JournalEvent{event(TailSample{DescentNs: 1, ScanNs: 2, Nodes: 3}, true)}
	paths := [][]int32{nil}
	PublishChunk(nil, s, events, paths)
	if r.SampleEvery() != 0 {
		t.Fatalf("nil recorder SampleEvery = %d", r.SampleEvery())
	}
	allocs := testing.AllocsPerRun(1000, func() { PublishChunk(nil, s, events, paths) })
	if allocs != 0 {
		t.Fatalf("nil serve path allocated %.1f allocs/op", allocs)
	}
}

// TestServeRecordSteadyStateZeroAllocs: once the tail is warm, the
// record path (including tail displacement) must not allocate.
func TestServeRecordSteadyStateZeroAllocs(t *testing.T) {
	r := NewServeRecorder(ServeConfig{SampleEvery: 1}, 1)
	s := r.Strand(0)
	path := []int32{0, 5, 9, 12, 17}
	for i := 0; i < serveWindow; i++ { // warm: fill tail and ring
		feed(s, TailSample{LatencyNs: int64(1000 + i), DescentNs: int64(600 + i), ScanNs: 400, Nodes: 5, Scanned: 9}, path, true)
	}
	events := make([]JournalEvent, 1)
	paths := [][]int32{path}
	lat := int64(2000)
	allocs := testing.AllocsPerRun(1000, func() {
		lat++ // strictly increasing: every fold displaces a tail entry
		events[0] = event(TailSample{DescentNs: lat * 3 / 5, ScanNs: lat * 2 / 5, Nodes: 6, Scanned: 11, Reported: 2}, true)
		PublishChunk(nil, s, events, paths)
	})
	if allocs != 0 {
		t.Fatalf("warm record path allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestServeConcurrentSnapshot races recording strands against Snapshot
// readers; run under -race this is the satellite-4 race assertion.
func TestServeConcurrentSnapshot(t *testing.T) {
	r := NewServeRecorder(ServeConfig{SampleEvery: 2}, 4)
	var recorders sync.WaitGroup
	for w := 0; w < 4; w++ {
		recorders.Add(1)
		go func(w int) {
			defer recorders.Done()
			s := r.Strand(w)
			path := []int32{int32(w), 1, 2}
			for i := 0; i < 20000; i++ {
				feed(s, TailSample{
					LatencyNs: int64(100 + i%1000),
					DescentNs: int64(60 + i%600),
					ScanNs:    int64(40 + i%400),
					Nodes:     3 + i%9,
					Scanned:   i % 31,
				}, path, i%2 == 1)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if snap.Queries < snap.Sampled {
					t.Errorf("implausible snapshot: queries=%d < sampled=%d",
						snap.Queries, snap.Sampled)
					return
				}
			}
		}()
	}
	recorders.Wait()
	close(stop)
	readers.Wait()
	snap := r.Snapshot()
	if snap.Queries != 4*20000 {
		t.Fatalf("queries = %d, want %d", snap.Queries, 4*20000)
	}
	if snap.Sampled != snap.Queries/2 {
		t.Fatalf("sampled = %d, want %d", snap.Sampled, snap.Queries/2)
	}
}

// TestHistogramBoundaries is the satellite-2 table-driven audit: values
// exactly on a power-of-two edge must open the next bucket, bucket 0
// holds only zero, and the overflow top bucket exports Le=MaxInt64.
func TestHistogramBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		wantLe int64
	}{
		{0, 0},
		{1, 1}, // 2^0 opens bucket 1 (le=1)
		{2, 3}, // 2^1 opens bucket 2 (le=3)
		{3, 3},
		{4, 7}, // 2^2 opens bucket 3
		{7, 7},
		{8, 15},
		{1 << 10, 1<<11 - 1},   // 1024 excluded from le=1023
		{1<<10 - 1, 1<<10 - 1}, // 1023 is le=1023's top value
		{1 << 20, 1<<21 - 1},
		{1<<38 - 1, 1<<38 - 1},   // last value below the overflow bucket
		{1 << 38, math.MaxInt64}, // first overflow value
		{1 << 45, math.MaxInt64}, // deep overflow still clamps
		{math.MaxInt64, math.MaxInt64},
		{-17, 0}, // negatives clamp to the zero bucket
	}
	for _, c := range cases {
		var h histogram
		h.min = math.MaxInt64
		h.observe(c.v)
		s := h.snapshot()
		if len(s.Buckets) != 1 {
			t.Fatalf("v=%d: %d buckets, want 1", c.v, len(s.Buckets))
		}
		if s.Buckets[0].Le != c.wantLe || s.Buckets[0].Count != 1 {
			t.Errorf("v=%d: bucket le=%d count=%d, want le=%d count=1",
				c.v, s.Buckets[0].Le, s.Buckets[0].Count, c.wantLe)
		}
		// AtomicHist must agree bucket for bucket.
		var ah AtomicHist
		ah.Reset()
		ah.Observe(c.v)
		as := ah.Snapshot()
		if len(as.Buckets) != 1 || as.Buckets[0] != s.Buckets[0] {
			t.Errorf("v=%d: AtomicHist bucket %+v != histogram bucket %+v",
				c.v, as.Buckets, s.Buckets)
		}
	}
}

// TestWindowQuantiles: nearest-rank definition on a known window.
func TestWindowQuantiles(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i + 1) // 1..1000
	}
	q := windowQuantiles(vals)
	if q.Window != 1000 || q.P50 != 500 || q.P95 != 950 || q.P99 != 990 || q.P999 != 999 {
		t.Fatalf("quantiles = %+v", q)
	}
	if z := windowQuantiles(nil); z.Window != 0 || z.P50 != 0 {
		t.Fatalf("empty quantiles = %+v", z)
	}
}
