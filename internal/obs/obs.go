// Package obs is the library's structured tracing and metrics layer. It
// makes the paper's probabilistic cost story observable from a running
// build: separator trials (Unit Time Separator success probability),
// punt events (the Section-4 Punting Lemma's retry cascades), fast-
// correction march lengths and active-pair profiles (Lemmas 6.2/6.3),
// ι(S) crossing-ball counts (Lemma 6.1), and the vector-model simulated
// cost.
//
// Design constraints, in order:
//
//  1. A nil or absent Recorder must cost (near) nothing on the hot
//     paths. Every Shard method nil-checks its receiver and returns
//     immediately, so the disabled divide-and-conquer pays one
//     predictable branch per event site and allocates nothing.
//
//  2. An enabled Recorder must not serialize the parallel recursion.
//     Each strand of the fork-join records into its own Shard — plain
//     non-atomic fields, no locks on the record path. Shards are
//     goroutine-confined by the same discipline as vm.Ctx: a strand
//     forks a child shard for the branch that may run on another
//     worker and keeps its own for the inline branch. Shards are
//     pooled through a freelist so a build allocates O(parallelism)
//     of them, not O(nodes), and are merged once at Finish.
//
//  3. Aggregates must be schedule-independent. Histograms merge by
//     commutative addition of per-strand totals, every observation is
//     derived from deterministic algorithm state, and the counters are
//     the build's own totals handed to Finish once, so
//     BuildReport.Counters and .Histograms are identical for any worker
//     count at a fixed seed (asserted by the determinism test in the
//     root package). Phase wall times are real-time measurements and
//     are exempt.
package obs

import (
	"math"
	"sync"
	"time"
)

// Histo identifies one deterministic, shard-merged histogram.
type Histo uint8

const (
	HSeparatorTrials Histo = iota // trials per separator search (per node)
	HCrossingBalls                // ι_{B_I}(S) + ι_{B_E}(S) per node (Lemma 6.1)
	HMarchLevels                  // levels per fast-correction march (Lemma 6.3)
	HMarchMaxActive               // max active (ball, node) pairs per march (Lemma 6.2)
	HMarchVisited                 // total (ball, node) pairs per march
	HNodeSize                     // subproblem size m per internal node
	numHistos
)

var histoNames = [numHistos]string{
	HSeparatorTrials: "separator_trials_per_node",
	HCrossingBalls:   "crossing_balls",
	HMarchLevels:     "march_levels",
	HMarchMaxActive:  "march_max_active",
	HMarchVisited:    "march_visited",
	HNodeSize:        "node_size",
}

// Phase identifies one exclusive wall-time bucket of the recursion.
type Phase uint8

const (
	PhaseDivide  Phase = iota // gather + separator search + partition
	PhaseRecurse              // fork-join overhead (children excluded)
	PhaseCorrect              // crossing detection + fast/query correction
	PhaseBase                 // brute-force leaves
	numPhases
)

var phaseNames = [numPhases]string{
	PhaseDivide:  "divide",
	PhaseRecurse: "recurse",
	PhaseCorrect: "correct",
	PhaseBase:    "base",
}

// SpanKind labels a trace event. The divide/recurse/correct/base kinds
// mirror the phases; the extra kinds label sub-operations.
type SpanKind uint8

const (
	SpanDivide SpanKind = iota
	SpanRecurse
	SpanCorrect
	SpanBase
	SpanBuild // the whole construction, root lane
	SpanMarch
	SpanQueryCorrect
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	SpanDivide:       "divide",
	SpanRecurse:      "recurse",
	SpanCorrect:      "correct",
	SpanBase:         "base",
	SpanBuild:        "build",
	SpanMarch:        "march",
	SpanQueryCorrect: "query-correct",
}

// Config configures a Recorder.
type Config struct {
	// Trace additionally records a Chrome trace_event timeline of every
	// span. Off, spans only accumulate into the per-phase totals.
	Trace bool
}

// Recorder collects one build's observability data. The zero of its
// pointer type is the disabled layer: every method of (*Recorder)(nil)
// and of the nil *Shard it hands out is a cheap no-op.
type Recorder struct {
	epoch   time.Time
	tracing bool

	mu     sync.Mutex
	shards []*Shard // every shard ever created; merged at Finish
	free   []*Shard // released shards available for reuse

}

// New returns an enabled Recorder.
func New(cfg Config) *Recorder {
	return &Recorder{epoch: time.Now(), tracing: cfg.Trace}
}

// Root returns the recorder's root shard (lane 0). Nil-safe: a nil
// recorder hands out a nil shard, whose methods all no-op.
func (r *Recorder) Root() *Shard {
	if r == nil {
		return nil
	}
	return r.acquire()
}

func (r *Recorder) acquire() *Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		s := r.free[n-1]
		r.free = r.free[:n-1]
		return s
	}
	s := &Shard{rec: r, tid: len(r.shards)}
	for i := range s.histos {
		s.histos[i].min = math.MaxInt64
	}
	r.shards = append(r.shards, s)
	return s
}

func (r *Recorder) release(s *Shard) {
	r.mu.Lock()
	r.free = append(r.free, s)
	r.mu.Unlock()
}

// Finish merges every shard into the build's report. wall is the build's
// end-to-end wall time and counters its totals, which the report keeps
// as they are: the build tallies them once, so the shards do not.
// The recorder must not record after Finish.
func (r *Recorder) Finish(wall time.Duration, counters map[string]int64) *BuildReport {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &BuildReport{
		WallNs:     wall.Nanoseconds(),
		Phases:     make(map[string]int64, numPhases),
		Counters:   counters,
		Histograms: make(map[string]Hist, numHistos),
	}
	var phases [numPhases]int64
	var hists [numHistos]histogram
	for i := range hists {
		hists[i].min = math.MaxInt64
	}
	for _, s := range r.shards {
		for p, v := range s.phaseNs {
			phases[p] += v
		}
		for h := range s.histos {
			hists[h].merge(&s.histos[h])
		}
	}
	for p, v := range phases {
		rep.Phases[phaseNames[p]] = v
	}
	for h := range hists {
		rep.Histograms[histoNames[h]] = hists[h].snapshot()
	}
	return rep
}

// Shard is one strand's lock-free recording buffer. All methods are
// nil-safe no-ops, so instrumented code never branches on "is
// observability on" — it simply calls through a possibly-nil shard.
// A shard must only be used by one goroutine at a time.
type Shard struct {
	rec     *Recorder
	tid     int
	phaseNs [numPhases]int64
	histos  [numHistos]histogram
	events  []traceEvent
}

// Observe records value v into histogram h.
func (s *Shard) Observe(h Histo, v int64) {
	if s == nil {
		return
	}
	s.histos[h].observe(v)
}

// Fork returns a fresh shard for a branch that may execute on another
// worker. The branch must Release it when done.
func (s *Shard) Fork() *Shard {
	if s == nil {
		return nil
	}
	return s.rec.acquire()
}

// Release returns the shard to the recorder's freelist for reuse by a
// later strand. The releasing goroutine must not use it afterwards.
func (s *Shard) Release() {
	if s == nil {
		return
	}
	s.rec.release(s)
}

// SpanStart is an opaque span-begin token (nanoseconds since the
// recorder's epoch). The zero value is what a nil shard hands out.
type SpanStart int64

// Begin opens a span. Costs one monotonic clock read when enabled,
// nothing when s is nil.
func (s *Shard) Begin() SpanStart {
	if s == nil {
		return 0
	}
	return SpanStart(time.Since(s.rec.epoch))
}

// End closes a span: its duration is added to phase ph's exclusive
// total and, when tracing, a Chrome trace event of kind k with argument
// arg (typically the subproblem size) is buffered.
func (s *Shard) End(st SpanStart, ph Phase, k SpanKind, arg int64) {
	s.EndAdjusted(st, ph, k, arg, 0)
}

// EndAdjusted is End minus excludeNs from the phase attribution, floored
// at zero (the trace event keeps the full duration). The recursion uses
// it to charge the recurse phase only with fork-join overhead: the
// inclusive fork time minus the children's own run time, whose phases
// account for the rest.
func (s *Shard) EndAdjusted(st SpanStart, ph Phase, k SpanKind, arg, excludeNs int64) {
	if s == nil {
		return
	}
	now := int64(time.Since(s.rec.epoch))
	dur := now - int64(st)
	if dur < 0 {
		dur = 0
	}
	attr := dur - excludeNs
	if attr < 0 {
		attr = 0
	}
	s.phaseNs[ph] += attr
	if s.rec.tracing {
		s.events = append(s.events, traceEvent{kind: k, ts: int64(st), dur: dur, arg: arg})
	}
}

// EndTrace closes a span for the trace timeline only, with no phase
// attribution — for sub-operations (marches, query corrections) nested
// inside a phase span that already accounts for their time.
func (s *Shard) EndTrace(st SpanStart, k SpanKind, arg int64) {
	if s == nil || !s.rec.tracing {
		return
	}
	now := int64(time.Since(s.rec.epoch))
	dur := now - int64(st)
	if dur < 0 {
		dur = 0
	}
	s.events = append(s.events, traceEvent{kind: k, ts: int64(st), dur: dur, arg: arg})
}

// Now returns nanoseconds since the recorder's epoch (0 for nil shards);
// callers use it to measure child-branch durations for EndAdjusted.
func (s *Shard) Now() int64 {
	if s == nil {
		return 0
	}
	return int64(time.Since(s.rec.epoch))
}

// BuildReport is the merged observability record of one build. Counters
// and Histograms are deterministic paper quantities (identical across
// worker counts at a fixed seed); Phases and WallNs are real-time
// measurements.
type BuildReport struct {
	// WallNs is the build's end-to-end wall time in nanoseconds.
	WallNs int64 `json:"wall_ns"`
	// Phases maps divide/recurse/correct/base to exclusive nanoseconds
	// summed over all strands (recurse counts only fork-join overhead).
	Phases map[string]int64 `json:"phase_ns"`
	// Counters holds the build's deterministic totals, written once
	// from its own tally.
	Counters map[string]int64 `json:"counters"`
	// Histograms holds the shard-merged paper-quantity distributions.
	Histograms map[string]Hist `json:"histograms"`
}

// Counter returns a named counter (0 when absent).
func (r *BuildReport) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	return r.Counters[name]
}

// PhaseSeconds returns a phase's exclusive time in seconds.
func (r *BuildReport) PhaseSeconds(name string) float64 {
	if r == nil {
		return 0
	}
	return float64(r.Phases[name]) / 1e9
}

// PhaseNames lists the phase keys in recursion order.
func PhaseNames() []string { return append([]string(nil), phaseNames[:]...) }
