package sepdc

import (
	"fmt"
	"sync"
	"time"

	"sepdc/internal/obs"
	"sepdc/internal/obs/flight"
	"sepdc/internal/obs/runtimeobs"
	"sepdc/internal/obs/slo"
)

// This file is the public flight-recorder knob: a declarative latency
// SLO over a Batcher's per-batch latency histogram, multi-window
// burn-rate evaluation, and automatic capture of a diagnostic bundle
// (wide-event journal, tail sampler, runtime/trace segment, CPU
// profile, runtime/metrics snapshot) the moment the burn rate trips.
// cmd/knn -flight wires it to a flag; cmd/knnserve will consume it
// wholesale.

// FlightConfig tunes a FlightRecorder. Dir is required. The SLO's shape
// is fixed: a 0.99 success target over batches, burn-rate windows of 5m
// and 1h with trip thresholds 14.4 and 6 (a capture fires when BOTH
// windows exceed theirs), a 100ms trace and CPU-profile capture window,
// and at least 1s between automatic captures.
type FlightConfig struct {
	// Dir is where bundles are written (one timestamped directory each).
	Dir string
	// LatencyObjective is the per-batch latency SLO threshold: a batch
	// slower than this is "bad". 0 selects 100ms. The obs histogram's
	// log2 bucketing rounds the threshold down to a power-of-two
	// nanosecond bound.
	LatencyObjective time.Duration
}

// FlightRecorder watches a Batcher's latency SLO and captures flight
// bundles on burn-rate trips. Construct with NewFlightRecorder, bind
// the serving side with WatchBatcher, then call Evaluate between Runs
// (the Batcher's stats are only readable between Runs, so the recorder
// never polls them behind your back). Captures run asynchronously;
// Close waits for any in flight.
type FlightRecorder struct {
	cfg FlightConfig
	rec *flight.Recorder
	rt  *runtimeobs.Sampler

	mu      sync.Mutex
	ev      *slo.Evaluator
	bundles []string
	wg      sync.WaitGroup
}

// NewFlightRecorder returns a recorder writing bundles under cfg.Dir.
func NewFlightRecorder(cfg FlightConfig) (*FlightRecorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("sepdc: FlightConfig.Dir is required")
	}
	return &FlightRecorder{
		cfg: cfg,
		rt:  runtimeobs.New(),
	}, nil
}

// WatchBatcher binds the recorder to one Batcher's telemetry: the SLO
// objective reads the Batcher's per-batch latency histogram, and a
// capture bundles the given journal and observer (either may be nil —
// the bundle just omits that evidence). name labels the sepdc_slo_*
// gauge series. Call once, before Evaluate.
func (fr *FlightRecorder) WatchBatcher(name string, bt *Batcher, qj *QueryJournal, o *ServeObserver) error {
	if fr == nil || bt == nil {
		return fmt.Errorf("sepdc: WatchBatcher needs a recorder and a Batcher")
	}
	return fr.Watch(name, func() obs.Hist { return bt.b.Stats().Latency }, qj, o, nil)
}

// Watch is the source-agnostic form of WatchBatcher: latency supplies
// the cumulative per-pass latency histogram the SLO burns against.
// Serving processes whose engines come and go — cmd/knnserve swaps
// Batchers with every snapshot generation — feed a stable process-level
// histogram here instead of binding the recorder to one Batcher's
// lifetime. The read contract is the source's own: an AtomicHist-backed
// source may be evaluated concurrently with serving, a Batcher-backed
// one only between Runs. tl, when non-nil, folds the trace log's
// retained request traces (slowest tail first) into each bundle as
// traces.jsonl — a burn-rate trip freezes the end-to-end spans of the
// slowest complete requests alongside the journal evidence. Call once,
// before Evaluate.
func (fr *FlightRecorder) Watch(name string, latency func() obs.Hist, qj *QueryJournal, o *ServeObserver, tl *TraceLog) error {
	if fr == nil || latency == nil {
		return fmt.Errorf("sepdc: Watch needs a recorder and a latency source")
	}
	threshold := fr.cfg.LatencyObjective
	if threshold <= 0 {
		threshold = 100 * time.Millisecond
	}
	src := flight.Sources{
		Runtime: fr.rt.Snapshot,
	}
	if qj != nil {
		src.Journal = qj.j
	}
	if o != nil {
		src.Serve = o.rec
	}
	if tl != nil {
		src.Traces = tl.t.Retained
	}
	rec := flight.New(fr.cfg.Dir, src)
	ev, err := slo.New(slo.Objective{
		Name:   name,
		Source: slo.HistSource(latency, threshold.Nanoseconds()),
	}, fr.onTrip)
	if err != nil {
		return err
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.ev != nil {
		return fmt.Errorf("sepdc: FlightRecorder already watching a Batcher")
	}
	fr.rec, fr.ev = rec, ev
	return nil
}

func (fr *FlightRecorder) onTrip(s slo.Status) {
	fr.wg.Add(1)
	go func() {
		defer fr.wg.Done()
		reason := fmt.Sprintf("slo %s tripped: fast burn %.2f, slow burn %.2f (%d/%d bad)",
			s.Name, s.FastBurn, s.SlowBurn, s.Bad, s.Total)
		dir, err := fr.rec.TryCapture(reason)
		if err != nil || dir == "" {
			return
		}
		fr.mu.Lock()
		fr.bundles = append(fr.bundles, dir)
		fr.mu.Unlock()
	}()
}

// Evaluate reads the watched Batcher's counters once, updates the
// sepdc_slo_* gauges, and (asynchronously) captures a bundle if the
// burn-rate trip condition just started firing. MUST be called between
// Runs, never concurrently with one — the same contract as
// Batcher.Stats. Returns the objective's status.
func (fr *FlightRecorder) Evaluate() slo.Status {
	if fr == nil {
		return slo.Status{}
	}
	fr.mu.Lock()
	ev := fr.ev
	fr.mu.Unlock()
	return ev.Evaluate()
}

// Capture writes a bundle now, regardless of SLO state — the manual
// "grab me the evidence" button. Returns the bundle directory.
func (fr *FlightRecorder) Capture(reason string) (string, error) {
	if fr == nil {
		return "", fmt.Errorf("sepdc: nil FlightRecorder")
	}
	fr.mu.Lock()
	rec := fr.rec
	fr.mu.Unlock()
	if rec == nil {
		return "", fmt.Errorf("sepdc: FlightRecorder has no watched Batcher (call WatchBatcher first)")
	}
	dir, err := rec.Capture(reason)
	if err == nil && dir != "" {
		fr.mu.Lock()
		fr.bundles = append(fr.bundles, dir)
		fr.mu.Unlock()
	}
	return dir, err
}

// Bundles returns the directories of every bundle captured so far.
func (fr *FlightRecorder) Bundles() []string {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return append([]string(nil), fr.bundles...)
}

// Close waits for any in-flight capture to finish. The recorder stays
// readable (Bundles) but should not be evaluated afterwards.
func (fr *FlightRecorder) Close() {
	if fr == nil {
		return
	}
	fr.wg.Wait()
	fr.rt.Close()
}

// CheckFlightBundle validates a captured bundle directory: metadata
// parses, the journal JSONL is well formed with the recorded event
// count, and the trace/profile evidence is present (or its absence
// explained). The flight-smoke CI job and `knn -verify-bundle` use it.
func CheckFlightBundle(dir string) error { return flight.CheckBundle(dir) }
