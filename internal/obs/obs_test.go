package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderIsNoOp: the whole disabled surface must be callable
// through nil receivers without panicking or allocating.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	sh := r.Root()
	if sh != nil {
		t.Fatalf("nil recorder handed out a non-nil shard")
	}
	sh.Count(CNodes, 1)
	sh.Observe(HCrossingBalls, 7)
	sp := sh.Begin()
	sh.End(sp, PhaseDivide, SpanDivide, 42)
	sh.EndAdjusted(sp, PhaseRecurse, SpanRecurse, 42, 5)
	child := sh.Fork()
	if child != nil {
		t.Fatalf("nil shard forked a non-nil child")
	}
	child.Release()
	if rep := r.Finish(time.Second); rep != nil {
		t.Fatalf("nil recorder produced a report")
	}
	if err := r.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Fatalf("nil recorder wrote a trace")
	}
}

// TestDisabledPathZeroAllocs is the benchmark-delta guard in test form:
// the disabled (nil-shard, globals-off) hot path must not allocate.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var sh *Shard
	allocs := testing.AllocsPerRun(1000, func() {
		sh.Count(CSeparatorTrials, 3)
		sh.Observe(HMarchLevels, 11)
		sp := sh.Begin()
		sh.End(sp, PhaseCorrect, SpanCorrect, 9)
		sh.Fork().Release()
		Add(GSepCandidates, 1)
		if On() {
			Add(GMarchPairs, 5)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestRecorderMerge(t *testing.T) {
	r := New(Config{})
	root := r.Root()
	root.Count(CNodes, 1)
	root.Observe(HNodeSize, 1024)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		sh := root.Fork()
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				sh.Count(CSeparatorTrials, 2)
				sh.Observe(HSeparatorTrials, 2)
			}
			sh.Release()
		}(sh)
	}
	wg.Wait()
	rep := r.Finish(123 * time.Millisecond)

	if got := rep.Counter("nodes"); got != 1 {
		t.Errorf("nodes = %d, want 1", got)
	}
	if got := rep.Counter("separator_trials"); got != 80 {
		t.Errorf("separator_trials = %d, want 80", got)
	}
	h := rep.Histograms["separator_trials_per_node"]
	if h.Count != 40 || h.Sum != 80 || h.Min != 2 || h.Max != 2 {
		t.Errorf("trials hist = %+v, want count=40 sum=80 min=max=2", h)
	}
	if rep.WallNs != (123 * time.Millisecond).Nanoseconds() {
		t.Errorf("WallNs = %d", rep.WallNs)
	}
	if _, ok := rep.Phases["divide"]; !ok {
		t.Errorf("phases missing divide: %v", rep.Phases)
	}
}

// TestShardReuse: released shards come back from the freelist and keep
// accumulating (their data is merged once, at Finish).
func TestShardReuse(t *testing.T) {
	r := New(Config{})
	root := r.Root()
	a := root.Fork()
	a.Count(CBaseCases, 1)
	a.Release()
	b := root.Fork()
	if a != b {
		t.Fatalf("freelist did not reuse the released shard")
	}
	b.Count(CBaseCases, 2)
	b.Release()
	rep := r.Finish(0)
	if got := rep.Counter("base_cases"); got != 3 {
		t.Errorf("base_cases = %d, want 3", got)
	}
}

func TestGlobalRefcount(t *testing.T) {
	if On() {
		t.Skip("another test left globals enabled")
	}
	Add(GArenaAllocs, 5) // dropped: disabled
	r := New(Config{})
	if !On() {
		t.Fatalf("live recorder did not enable globals")
	}
	Add(GArenaAllocs, 7)
	rep := r.Finish(0)
	if On() {
		t.Fatalf("Finish did not release the global refcount")
	}
	if got := rep.Runtime["arena_allocs"]; got != 7 {
		t.Errorf("arena_allocs delta = %d, want 7", got)
	}
}

func TestPoolGauge(t *testing.T) {
	before := poolMaxInflight.Load()
	PoolEnter()
	PoolEnter()
	PoolExit()
	PoolExit()
	if poolInflight.Load() != 0 {
		t.Errorf("inflight = %d after balanced enter/exit", poolInflight.Load())
	}
	if poolMaxInflight.Load() < before || poolMaxInflight.Load() < 2 {
		t.Errorf("max inflight gauge did not advance: %d", poolMaxInflight.Load())
	}
}

func TestTraceJSON(t *testing.T) {
	r := New(Config{Trace: true})
	sh := r.Root()
	sp := sh.Begin()
	time.Sleep(time.Millisecond)
	sh.End(sp, PhaseDivide, SpanDivide, 512)
	sp2 := sh.Begin()
	sh.End(sp2, PhaseCorrect, SpanCorrect, 128)
	r.Finish(time.Millisecond)

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var divides, metas int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M":
			metas++
		case e.Name == "divide":
			divides++
			if e.Dur <= 0 {
				t.Errorf("divide span has non-positive duration %v", e.Dur)
			}
			if m, ok := e.Args["m"].(float64); !ok || m != 512 {
				t.Errorf("divide span args = %v, want m=512", e.Args)
			}
		}
	}
	if divides != 1 || metas < 2 {
		t.Errorf("trace has %d divide spans and %d metadata events", divides, metas)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	r := New(Config{})
	sh := r.Root()
	sh.End(sh.Begin(), PhaseBase, SpanBase, 1)
	r.Finish(0)
	for _, s := range r.shards {
		if n := len(s.events); n != 0 {
			t.Errorf("non-tracing recorder buffered %d events", n)
		}
	}
	if err := r.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Errorf("WriteTrace succeeded without Config.Trace")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h histogram
	h.min = math.MaxInt64
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.observe(v)
	}
	s := h.snapshot()
	if s.Count != 7 || s.Min != 0 || s.Max != 1000 {
		t.Fatalf("snapshot = %+v", s)
	}
	// v=-5 clamps to 0; buckets: le=0 -> {0,0}, le=1 -> {1}, le=3 -> {2,3},
	// le=7 -> {4}, le=1023 -> {1000}.
	want := map[int64]int64{0: 2, 1: 1, 3: 2, 7: 1, 1023: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
	if got := s.Mean(); got < 144 || got > 145 {
		t.Errorf("mean = %v", got)
	}
}

// BenchmarkDisabledShard measures the nil-shard event-site cost the hot
// paths pay when observability is off (the ≤2% budget of the acceptance
// criteria rides on this being ~1ns/op).
func BenchmarkDisabledShard(b *testing.B) {
	var sh *Shard
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sh.Count(CSeparatorTrials, 1)
		sh.Observe(HCrossingBalls, int64(i))
		sh.End(sh.Begin(), PhaseDivide, SpanDivide, 1)
	}
}

// BenchmarkDisabledGlobal measures the guarded global-counter site cost.
func BenchmarkDisabledGlobal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if On() {
			Add(GVMPrims, 1)
		}
	}
}

func BenchmarkEnabledShard(b *testing.B) {
	r := New(Config{})
	sh := r.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Count(CSeparatorTrials, 1)
		sh.Observe(HCrossingBalls, int64(i))
	}
	b.StopTimer()
	r.Finish(0)
}
