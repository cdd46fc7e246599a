// Package flight captures diagnostic bundles at the moment an SLO burn
// rate trips: the wide-event journal rings, the serve recorder's tail
// sampler, a bounded runtime/trace segment, and a CPU profile delta,
// written atomically to a timestamped directory. The point is evidence
// — by the time a human looks at a p999 page the interesting queries
// are long gone from any live buffer, so the trip itself has to do the
// capturing.
//
// Bundle layout (one directory per capture):
//
//	meta.json     capture time, reason, journal ring accounting,
//	              every registered gauge (SLO burn rates, runtime
//	              gauges, audit results), and caller extras
//	journal.jsonl wide events, non-consuming snapshot, (batch, query) order
//	tail.json     ServeSnapshot: histograms, window quantiles, slowest
//	              queries with their descent paths
//	traces.jsonl  request traces (slowest-tail first, then the recent
//	              ring) — the end-to-end spans of the requests worth
//	              keeping at the moment of the trip
//	runtime.json  runtime/metrics gauge values at capture time
//	trace.out     runtime/trace segment over the capture window
//	cpu.pprof     CPU profile over the same window
//
// trace.out and cpu.pprof cover the same wall-clock window, recorded
// concurrently; when the runtime refuses (another trace or profile is
// active) the bundle notes the error in meta.json and carries on — a
// partial bundle beats none. The directory is written under a temp name
// and renamed into place, so a bundle that exists is complete.
package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"sync"
	"time"

	"sepdc/internal/obs"
)

const (
	// Window is how long a bundle's trace and CPU profile record: long
	// enough to catch scheduler behavior, short enough that capture does
	// not itself become the outage.
	Window = 100 * time.Millisecond
	// Cooldown is the minimum spacing between automatic captures
	// (TryCapture); explicit Capture calls ignore it.
	Cooldown = time.Second
)

// Sources are the telemetry producers a capture snapshots. Any field
// may be nil; the bundle simply omits that evidence.
type Sources struct {
	// Journal supplies journal.jsonl (non-consuming snapshot).
	Journal *obs.Journal
	// Serve supplies tail.json.
	Serve *obs.ServeRecorder
	// Runtime supplies runtime.json (runtimeobs.Sampler.Snapshot fits).
	Runtime func() map[string]float64
	// Traces supplies traces.jsonl (obs.TraceSink.Retained fits: the
	// slowest retained requests first, then the recent ring).
	Traces func() []obs.RequestTrace
	// Extra is folded into meta.json verbatim (SLO status, build info).
	Extra func() any
}

// Recorder captures flight bundles. Safe for concurrent use; captures
// are single-flight (a capture while one is running is dropped).
type Recorder struct {
	dir string
	src Sources

	mu        sync.Mutex
	capturing bool
	last      time.Time
}

// New returns a recorder writing bundles under dir.
func New(dir string, src Sources) *Recorder {
	return &Recorder{dir: dir, src: src}
}

// TryCapture captures a bundle unless one is already being captured or
// the cooldown since the last capture has not elapsed — the SLO trip
// hook's entry point, safe to wire to a hair-trigger. Returns the
// bundle directory, or "" when skipped.
func (r *Recorder) TryCapture(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	if r.capturing || (!r.last.IsZero() && time.Since(r.last) < Cooldown) {
		r.mu.Unlock()
		return "", nil
	}
	r.capturing = true
	r.mu.Unlock()
	return r.finishCapture(reason)
}

// Capture captures a bundle unconditionally (still single-flight).
// Returns the bundle directory.
func (r *Recorder) Capture(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	if r.capturing {
		r.mu.Unlock()
		return "", nil
	}
	r.capturing = true
	r.mu.Unlock()
	return r.finishCapture(reason)
}

func (r *Recorder) finishCapture(reason string) (string, error) {
	dir, err := r.capture(reason)
	r.mu.Lock()
	r.capturing = false
	r.last = time.Now()
	r.mu.Unlock()
	return dir, err
}

// meta is the bundle's meta.json document.
type meta struct {
	CapturedAt time.Time        `json:"captured_at"`
	Reason     string           `json:"reason"`
	Window     string           `json:"window"`
	Journal    *journalMeta     `json:"journal,omitempty"`
	Traces     *int             `json:"traces,omitempty"` // request traces in traces.jsonl
	Gauges     []obs.GaugeValue `json:"gauges,omitempty"`
	Errors     []string         `json:"errors,omitempty"` // partial-capture notes
	Extra      any              `json:"extra,omitempty"`
}

type journalMeta struct {
	Strands   int    `json:"strands"`
	Capacity  int    `json:"capacity_per_strand"`
	Published uint64 `json:"published"`
	Dropped   uint64 `json:"dropped"`
	Events    int    `json:"events"`
}

func (r *Recorder) capture(reason string) (string, error) {
	start := time.Now()
	final := filepath.Join(r.dir, "bundle-"+start.UTC().Format("20060102T150405.000000000Z"))
	tmp := final + ".tmp"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	m := meta{CapturedAt: start, Reason: reason, Window: Window.String()}

	// Trace + CPU profile over the same window, concurrently. Failures
	// (another profiler active) degrade to notes in meta.json.
	traceErr := r.recordWindow(tmp)
	for _, e := range traceErr {
		m.Errors = append(m.Errors, e.Error())
	}

	// Journal: non-consuming snapshot, so a streaming /journal?drain=1
	// consumer and the flight recorder never race over the same events.
	if r.src.Journal != nil {
		d := r.src.Journal.Snapshot()
		m.Journal = &journalMeta{
			Strands: d.Strands, Capacity: d.Capacity,
			Published: d.Published, Dropped: d.Dropped, Events: len(d.Events),
		}
		f, err := os.Create(filepath.Join(tmp, "journal.jsonl"))
		if err != nil {
			return "", fmt.Errorf("flight: %w", err)
		}
		werr := d.WriteJSONL(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return "", fmt.Errorf("flight: journal.jsonl: %w", werr)
		}
	}

	if r.src.Serve != nil {
		if err := writeJSON(filepath.Join(tmp, "tail.json"), r.src.Serve.Snapshot()); err != nil {
			return "", err
		}
	}
	if r.src.Traces != nil {
		traces := r.src.Traces()
		n := len(traces)
		m.Traces = &n
		f, err := os.Create(filepath.Join(tmp, "traces.jsonl"))
		if err != nil {
			return "", fmt.Errorf("flight: %w", err)
		}
		werr := obs.WriteRequestTracesJSONL(f, traces)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return "", fmt.Errorf("flight: traces.jsonl: %w", werr)
		}
	}
	if r.src.Runtime != nil {
		if err := writeJSON(filepath.Join(tmp, "runtime.json"), r.src.Runtime()); err != nil {
			return "", err
		}
	}
	m.Gauges = obs.Gauges()
	if r.src.Extra != nil {
		m.Extra = r.src.Extra()
	}
	if err := writeJSON(filepath.Join(tmp, "meta.json"), m); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	return final, nil
}

// recordWindow runs runtime/trace and the CPU profiler over the capture
// window, writing trace.out and cpu.pprof into dir. Start failures are
// returned as notes, not fatal errors.
func (r *Recorder) recordWindow(dir string) []error {
	var errs []error
	var stops []func()
	if f, err := os.Create(filepath.Join(dir, "trace.out")); err != nil {
		errs = append(errs, fmt.Errorf("trace.out: %w", err))
	} else if err := trace.Start(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		errs = append(errs, fmt.Errorf("runtime/trace: %w", err))
	} else {
		stops = append(stops, func() { trace.Stop(); f.Close() })
	}
	if f, err := os.Create(filepath.Join(dir, "cpu.pprof")); err != nil {
		errs = append(errs, fmt.Errorf("cpu.pprof: %w", err))
	} else if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		errs = append(errs, fmt.Errorf("pprof: %w", err))
	} else {
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if len(stops) > 0 {
		time.Sleep(Window)
	}
	for _, stop := range stops {
		stop()
	}
	return errs
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(v)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("flight: %s: %w", filepath.Base(path), werr)
	}
	return nil
}

// CheckBundle validates a captured bundle: meta.json parses, every
// evidence file meta.json implies is present, and journal.jsonl is
// line-by-line valid JSON with the event count meta.json recorded.
// The flight-smoke CI job and `knn -verify-bundle` call this.
func CheckBundle(dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	var m meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("flight: meta.json: %w", err)
	}
	if m.CapturedAt.IsZero() {
		return fmt.Errorf("flight: meta.json has no capture time")
	}
	if m.Journal != nil {
		raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
		if err != nil {
			return fmt.Errorf("flight: %w", err)
		}
		lines := 0
		for len(raw) > 0 {
			nl := -1
			for i, c := range raw {
				if c == '\n' {
					nl = i
					break
				}
			}
			if nl < 0 {
				return fmt.Errorf("flight: journal.jsonl: unterminated final line")
			}
			var ev obs.JournalEvent
			if err := json.Unmarshal(raw[:nl], &ev); err != nil {
				return fmt.Errorf("flight: journal.jsonl line %d: %w", lines, err)
			}
			raw = raw[nl+1:]
			lines++
		}
		if lines != m.Journal.Events {
			return fmt.Errorf("flight: journal.jsonl has %d events, meta.json recorded %d", lines, m.Journal.Events)
		}
	}
	if m.Traces != nil {
		raw, err := os.ReadFile(filepath.Join(dir, "traces.jsonl"))
		if err != nil {
			return fmt.Errorf("flight: %w", err)
		}
		lines := 0
		for len(raw) > 0 {
			nl := -1
			for i, c := range raw {
				if c == '\n' {
					nl = i
					break
				}
			}
			if nl < 0 {
				return fmt.Errorf("flight: traces.jsonl: unterminated final line")
			}
			var rt obs.RequestTrace
			if err := json.Unmarshal(raw[:nl], &rt); err != nil {
				return fmt.Errorf("flight: traces.jsonl line %d: %w", lines, err)
			}
			if len(rt.TraceID) != 32 {
				return fmt.Errorf("flight: traces.jsonl line %d: trace_id %q is not 32 hex digits", lines, rt.TraceID)
			}
			raw = raw[nl+1:]
			lines++
		}
		if lines != *m.Traces {
			return fmt.Errorf("flight: traces.jsonl has %d traces, meta.json recorded %d", lines, *m.Traces)
		}
	}
	// trace.out / cpu.pprof must exist unless meta.json noted why not.
	noted := func(sub string) bool {
		for _, e := range m.Errors {
			if strings.Contains(e, sub) {
				return true
			}
		}
		return false
	}
	for name, sub := range map[string]string{"trace.out": "trace", "cpu.pprof": "pprof"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			if noted(sub) {
				continue
			}
			return fmt.Errorf("flight: %s missing and unexplained: %w", name, err)
		}
		if st.Size() == 0 {
			return fmt.Errorf("flight: %s is empty", name)
		}
	}
	return nil
}
