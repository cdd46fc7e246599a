package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// WriteText renders the report as the human-readable table cmd/knn
// prints: wall time, per-phase durations, non-zero counters and histogram
// summaries. Every write error from w is propagated
// (satellite contract: telemetry sinks can fail — disks fill, pipes
// close — and a rendering that silently drops output is worse than an
// error).
func (r *BuildReport) WriteText(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: WriteText on nil report")
	}
	if err := write(w, "--- observability report ---\n"); err != nil {
		return err
	}
	if r.WallNs > 0 {
		if err := write(w, "wall %v\n", time.Duration(r.WallNs).Round(time.Microsecond)); err != nil {
			return err
		}
	}
	for _, ph := range PhaseNames() {
		if ns := r.Phases[ph]; ns > 0 {
			if err := write(w, "phase %-8s %v\n", ph, time.Duration(ns).Round(time.Microsecond)); err != nil {
				return err
			}
		}
	}
	for _, name := range sortedKeys(r.Counters) {
		if v := r.Counters[name]; v != 0 {
			if err := write(w, "counter %-24s %d\n", name, v); err != nil {
				return err
			}
		}
	}
	hnames := make([]string, 0, len(r.Histograms))
	for name := range r.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := r.Histograms[name]
		if h.Count == 0 {
			continue
		}
		if err := write(w, "hist %-24s count=%d mean=%.1f min=%d max=%d\n",
			name, h.Count, h.Mean(), h.Min, h.Max); err != nil {
			return err
		}
	}
	return nil
}

func write(w io.Writer, format string, args ...any) error {
	_, err := fmt.Fprintf(w, format, args...)
	return err
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
