// Package slo evaluates declarative service-level objectives over the
// sepdc serving telemetry with multi-window burn rates, the alerting
// shape that survives production: a fast window (minutes) catches an
// outage quickly, a slow window (an hour) confirms it is not a blip,
// and an alert fires only when BOTH burn faster than the error budget
// allows. Burn rate is (observed bad fraction) / (budgeted bad
// fraction): burn 1.0 spends exactly the SLO's error budget over the
// period, burn 14.4 spends a 30-day budget in ~2 days.
//
// The evaluator is deliberately passive: it reads cumulative (total,
// bad) counters through a Source func and publishes sepdc_slo_* gauges
// through obs.SetGauge. Sources over engine counters that are not
// concurrency-safe (Batcher.Stats between Runs) stay correct because
// the caller controls when Evaluate runs. When the objective's trip
// condition transitions to firing the evaluator invokes the onTrip hook
// — the flight recorder's actuation seam.
package slo

import (
	"fmt"
	"math"
	"sync"
	"time"

	"sepdc/internal/obs"
)

// Source reports cumulative totals since process start: events observed
// and events that violated the objective (too slow, errored). Deltas
// over time windows are the evaluator's job; sources just count.
type Source func() (total, bad int64)

// HistSource adapts a latency histogram getter into a Source: total is
// the histogram's count, bad is every event in buckets whose upper
// bound exceeds thresholdNs. The obs.Hist log2 bucketing makes the
// effective threshold the largest bucket bound <= thresholdNs — pick
// thresholds at powers of two (or accept the round-down) when exact
// cutoffs matter.
func HistSource(h func() obs.Hist, thresholdNs int64) Source {
	return func() (int64, int64) {
		hist := h()
		var bad int64
		for _, b := range hist.Buckets {
			if b.Le > thresholdNs {
				bad += b.Count
			}
		}
		return hist.Count, bad
	}
}

// The objective's fixed shape: a 99% success target, and the classic
// page-worthy multi-window pair — the alert fires when the fast window
// burns faster than FastBurn AND the slow window faster than SlowBurn.
const (
	Target     float64 = 0.99
	FastWindow         = 5 * time.Minute
	SlowWindow         = time.Hour
	FastBurn   float64 = 14.4
	SlowBurn   float64 = 6
)

// Objective is one declarative SLO; both fields are required.
type Objective struct {
	// Name labels the objective's gauge series (sepdc_slo_*{objective=Name}).
	Name string
	// Source supplies the cumulative (total, bad) counters.
	Source Source
}

// Status is the objective's most recent evaluation.
type Status struct {
	Name     string  `json:"name"`
	Total    int64   `json:"total"`
	Bad      int64   `json:"bad"`
	FastBurn float64 `json:"fast_burn"` // observed fast-window burn rate
	SlowBurn float64 `json:"slow_burn"` // observed slow-window burn rate
	Tripped  bool    `json:"tripped"`
}

// sample is one cumulative counter reading.
type sample struct {
	at         time.Time
	total, bad int64
}

// Evaluator evaluates one objective. Construct with New, then call
// Evaluate on your own cadence.
type Evaluator struct {
	mu      sync.Mutex
	obj     Objective
	history []sample // pruned to the slow window
	tripped bool
	now     func() time.Time // injectable clock for tests
	onTrip  func(Status)
}

// New returns an evaluator over the objective. onTrip (optional) fires
// each time the trip condition transitions from quiet to firing — the
// flight-recorder actuation hook. It is invoked synchronously from
// Evaluate, without the evaluator lock held.
func New(o Objective, onTrip func(Status)) (*Evaluator, error) {
	if o.Name == "" || o.Source == nil {
		return nil, fmt.Errorf("slo: objective needs a name and a source: %+v", o)
	}
	return &Evaluator{obj: o, now: time.Now, onTrip: onTrip}, nil
}

// SetClock replaces the evaluator's time source (tests drive synthetic
// windows). Not safe concurrently with Evaluate.
func (e *Evaluator) SetClock(now func() time.Time) { e.now = now }

// Evaluate reads the objective's source once, updates the burn-rate
// windows, publishes the sepdc_slo_* gauges, fires the trip hook if the
// condition just started firing, and returns the objective's status.
func (e *Evaluator) Evaluate() Status {
	if e == nil {
		return Status{}
	}
	e.mu.Lock()
	now := e.now()
	total, bad := e.obj.Source()
	e.history = append(e.history, sample{at: now, total: total, bad: bad})
	e.history = prune(e.history, now.Add(-SlowWindow))

	fast := burnOver(e.history, now.Add(-FastWindow))
	slow := burnOver(e.history, now.Add(-SlowWindow))
	firing := fast > FastBurn && slow > SlowBurn
	justTripped := firing && !e.tripped
	e.tripped = firing

	s := Status{
		Name: e.obj.Name, Total: total, Bad: bad,
		FastBurn: fast, SlowBurn: slow, Tripped: firing,
	}
	lbl := func(name, help string, v float64) {
		obs.SetGauge(obs.GaugeKey{Name: name, LabelName: "objective", LabelValue: s.Name}, help, v)
	}
	lbl("sepdc_slo_burn_fast", "Fast-window SLO burn rate (bad fraction over budgeted fraction).", round(fast))
	lbl("sepdc_slo_burn_slow", "Slow-window SLO burn rate (bad fraction over budgeted fraction).", round(slow))
	lbl("sepdc_slo_tripped", "1 while both burn-rate windows exceed their thresholds.", b2f(firing))
	e.mu.Unlock()
	if justTripped && e.onTrip != nil {
		e.onTrip(s)
	}
	return s
}

// prune drops samples older than cutoff but keeps one sample at or
// before it, so window deltas anchored at the cutoff stay exact.
func prune(h []sample, cutoff time.Time) []sample {
	keep := 0
	for i, s := range h {
		if s.at.After(cutoff) {
			break
		}
		keep = i
	}
	return h[keep:]
}

// burnOver computes the burn rate over the window starting at cutoff:
// the bad fraction of events observed inside the window, divided by the
// budgeted bad fraction (1 - Target). Windows with no traffic burn 0.
func burnOver(h []sample, cutoff time.Time) float64 {
	if len(h) == 0 {
		return 0
	}
	// Anchor: the latest sample at or before the cutoff, else the oldest.
	anchor := h[0]
	for _, s := range h {
		if s.at.After(cutoff) {
			break
		}
		anchor = s
	}
	last := h[len(h)-1]
	total := last.total - anchor.total
	bad := last.bad - anchor.bad
	if total <= 0 || bad <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - Target)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// round trims burn-rate gauges to 3 decimals so expositions diff cleanly.
func round(v float64) float64 { return math.Round(v*1000) / 1000 }
