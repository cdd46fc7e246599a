package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// traceEvent is one buffered span in recorder-relative nanoseconds.
type traceEvent struct {
	kind SpanKind
	ts   int64
	dur  int64
	arg  int64
}

// chromeEvent is the Chrome trace_event JSON shape ("X" complete events
// plus "M" metadata). Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the one Chrome trace_event writer behind both the build
// trace (Recorder.WriteTrace) and the serve trace (WriteChromeTrace): a
// single process, one named lane per thread id, complete spans given in
// nanoseconds. Load the output in chrome://tracing or
// https://ui.perfetto.dev.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	lanes           map[int]bool
}

func newChromeTrace(process string) *chromeTrace {
	return &chromeTrace{
		TraceEvents: []chromeEvent{{
			Name: "process_name", Ph: "M", Pid: 1,
			Args: map[string]any{"name": process},
		}},
		DisplayTimeUnit: "ms",
		lanes:           map[int]bool{},
	}
}

// lane names thread lane tid the first time it is seen.
func (c *chromeTrace) lane(tid int, name string) {
	if !c.lanes[tid] {
		c.lanes[tid] = true
		c.TraceEvents = append(c.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
}

// span adds one complete event on lane tid.
func (c *chromeTrace) span(name string, tid int, startNs, durNs int64, args map[string]any) {
	c.TraceEvents = append(c.TraceEvents, chromeEvent{
		Name: name, Ph: "X", Ts: float64(startNs) / 1e3, Dur: float64(durNs) / 1e3,
		Pid: 1, Tid: tid, Args: args,
	})
}

// write encodes the trace, metadata first, then by start time: Chrome
// accepts any order, but sorted output diffs cleanly and zips better.
func (c *chromeTrace) write(w io.Writer) error {
	sort.SliceStable(c.TraceEvents, func(i, j int) bool {
		a, b := c.TraceEvents[i], c.TraceEvents[j]
		if (a.Ph == "M") != (b.Ph == "M") {
			return a.Ph == "M"
		}
		return a.Ts < b.Ts
	})
	return json.NewEncoder(w).Encode(c)
}

// WriteTrace exports every buffered span as Chrome trace_event JSON. Each
// recursion strand is one thread lane; nested divide/recurse/correct spans
// reconstruct the recursion tree visually. Returns an error when the
// recorder was not created with Config.Trace.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil {
		return errors.New("obs: no recorder")
	}
	if !r.tracing {
		return errors.New("obs: recorder built without Config.Trace")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	trace := newChromeTrace("sepdc build")
	for _, s := range r.shards {
		trace.lane(s.tid, fmt.Sprintf("strand-%d", s.tid))
		for _, e := range s.events {
			trace.span(spanNames[e.kind], s.tid, e.ts, e.dur, map[string]any{"m": e.arg})
		}
	}
	return trace.write(w)
}

// EventCount returns the number of buffered trace events (for tests).
func (r *Recorder) EventCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.shards {
		n += len(s.events)
	}
	return n
}
