// Package promtext writes and lints the Prometheus text exposition
// format (version 0.0.4) with no external dependencies. It is the
// serialization half of the observability layer: internal/obs converts
// its snapshots into the neutral sample types here (this package must
// not import obs — obs imports it), and the embeddable /metrics handler
// streams the result.
//
// Scope is deliberately the subset the exposition format requires of a
// scrape target: # HELP / # TYPE comment lines, label escaping,
// cumulative le-bucketed histogram series with a +Inf bucket and _sum /
// _count, summary quantile series, and OpenMetrics exemplars on
// histogram buckets (` # {trace_id="..."} value [ts]` — the link from a
// bucket count to a concrete traced request). Sample timestamps and the
// other OpenMetrics extensions remain out of scope.
package promtext

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Label is one name="value" pair.
type Label struct {
	Name  string
	Value string
}

// BucketPoint is one cumulative histogram bucket: CumCount observations
// had a value ≤ Le. Use math.Inf(1) for the mandatory +Inf bucket; the
// Writer appends one automatically if the caller's last bucket is
// finite. Exemplar, when set, rides on the bucket's sample line in
// OpenMetrics form.
type BucketPoint struct {
	Le       float64
	CumCount int64
	Exemplar *Exemplar
}

// Exemplar is one OpenMetrics exemplar: a label set (conventionally
// trace_id), the exemplified observation's value, and an optional unix
// timestamp in seconds (0 = omitted). Per the OpenMetrics spec the
// combined rune length of the label names and values must not exceed
// 128; the Writer enforces it.
type Exemplar struct {
	Labels []Label
	Value  float64
	Ts     float64
}

// exemplarRunes returns the combined rune length of the label set.
func exemplarRunes(labels []Label) int {
	n := 0
	for _, l := range labels {
		n += utf8.RuneCountInString(l.Name) + utf8.RuneCountInString(l.Value)
	}
	return n
}

// Quantile is one summary quantile point (e.g. {0.99, 1234}).
type Quantile struct {
	Q     float64
	Value float64
}

// Writer streams one metric family at a time to an io.Writer,
// propagating every write error. Families must not repeat; the Writer
// tracks emitted names and rejects duplicates (the exposition format
// requires all samples of a family to be grouped).
type Writer struct {
	w    io.Writer
	err  error
	seen map[string]bool
}

// NewWriter returns a Writer targeting w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, seen: make(map[string]bool)}
}

// Err returns the first error encountered (write failure or format
// violation); once set, all further output is suppressed.
func (p *Writer) Err() error { return p.err }

func (p *Writer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *Writer) family(name, help, typ string) bool {
	if p.err != nil {
		return false
	}
	if !validMetricName(name) {
		p.err = fmt.Errorf("promtext: invalid metric name %q", name)
		return false
	}
	if p.seen[name] {
		p.err = fmt.Errorf("promtext: duplicate metric family %q", name)
		return false
	}
	p.seen[name] = true
	if help != "" {
		p.printf("# HELP %s %s\n", name, escapeHelp(help))
	}
	p.printf("# TYPE %s %s\n", name, typ)
	return true
}

func (p *Writer) sample(name string, labels []Label, v float64) {
	p.exemplarSample(name, labels, v, nil)
}

// exemplarSample emits one sample line, with an OpenMetrics exemplar
// suffix when ex is non-nil. The exemplar's label set is validated like
// any other (names legal, values escaped) plus the OpenMetrics 128-rune
// budget; an empty exemplar label set still prints as "{}" as the spec
// requires.
func (p *Writer) exemplarSample(name string, labels []Label, v float64, ex *Exemplar) {
	if p.err != nil {
		return
	}
	for _, l := range labels {
		if !validLabelName(l.Name) {
			p.err = fmt.Errorf("promtext: invalid label name %q on %s", l.Name, name)
			return
		}
	}
	if ex == nil {
		p.printf("%s%s %s\n", name, formatLabels(labels), formatValue(v))
		return
	}
	for _, l := range ex.Labels {
		if !validLabelName(l.Name) {
			p.err = fmt.Errorf("promtext: invalid exemplar label name %q on %s", l.Name, name)
			return
		}
	}
	if n := exemplarRunes(ex.Labels); n > 128 {
		p.err = fmt.Errorf("promtext: exemplar label set on %s is %d runes (limit 128)", name, n)
		return
	}
	lset := formatLabels(ex.Labels)
	if lset == "" {
		lset = "{}"
	}
	if ex.Ts != 0 {
		// Timestamps print fixed-point: %g would fall into scientific
		// notation for any Unix epoch and some scrapers reject that.
		p.printf("%s%s %s # %s %s %s\n", name, formatLabels(labels), formatValue(v),
			lset, formatValue(ex.Value), strconv.FormatFloat(ex.Ts, 'f', -1, 64))
		return
	}
	p.printf("%s%s %s # %s %s\n", name, formatLabels(labels), formatValue(v),
		lset, formatValue(ex.Value))
}

// Counter emits one counter family with a single sample. The exposition
// convention suffixes counters with _total; the Writer enforces it.
func (p *Writer) Counter(name, help string, labels []Label, v float64) {
	if p.err == nil && !strings.HasSuffix(name, "_total") {
		p.err = fmt.Errorf("promtext: counter %q must end in _total", name)
		return
	}
	if p.family(name, help, "counter") {
		p.sample(name, labels, v)
	}
}

// Gauge emits one gauge family with the given samples (one per label
// set). Emitting a family with no samples is valid (declares the
// family).
func (p *Writer) Gauge(name, help string, samples ...GaugeSample) {
	if p.family(name, help, "gauge") {
		for _, s := range samples {
			p.sample(name, s.Labels, s.Value)
		}
	}
}

// GaugeSample is one gauge series point.
type GaugeSample struct {
	Labels []Label
	Value  float64
}

// Histogram emits one histogram family: cumulative le buckets (a +Inf
// bucket is appended when missing), _sum and _count. Buckets must be in
// ascending Le order with non-decreasing CumCount; violations are
// reported through Err rather than written.
func (p *Writer) Histogram(name, help string, labels []Label, buckets []BucketPoint, sum float64, count int64) {
	if !p.family(name, help, "histogram") {
		return
	}
	prevLe := math.Inf(-1)
	prevCum := int64(0)
	hasInf := false
	for _, b := range buckets {
		if p.err != nil {
			return
		}
		if b.Le <= prevLe {
			p.err = fmt.Errorf("promtext: histogram %q buckets not ascending at le=%v", name, b.Le)
			return
		}
		if b.CumCount < prevCum {
			p.err = fmt.Errorf("promtext: histogram %q cumulative count decreases at le=%v", name, b.Le)
			return
		}
		prevLe, prevCum = b.Le, b.CumCount
		if math.IsInf(b.Le, 1) {
			hasInf = true
			if b.CumCount != count {
				p.err = fmt.Errorf("promtext: histogram %q +Inf bucket %d != count %d", name, b.CumCount, count)
				return
			}
		}
		p.exemplarSample(name+"_bucket", append(labels[:len(labels):len(labels)], Label{"le", formatLe(b.Le)}), float64(b.CumCount), b.Exemplar)
	}
	if !hasInf {
		if prevCum > count {
			p.err = fmt.Errorf("promtext: histogram %q bucket count %d exceeds count %d", name, prevCum, count)
			return
		}
		p.sample(name+"_bucket", append(labels[:len(labels):len(labels)], Label{"le", "+Inf"}), float64(count))
	}
	p.sample(name+"_sum", labels, sum)
	p.sample(name+"_count", labels, float64(count))
}

// Summary emits one summary family: quantile series plus _sum/_count.
func (p *Writer) Summary(name, help string, labels []Label, quantiles []Quantile, sum float64, count int64) {
	if !p.family(name, help, "summary") {
		return
	}
	for _, q := range quantiles {
		if p.err != nil {
			return
		}
		if q.Q < 0 || q.Q > 1 {
			p.err = fmt.Errorf("promtext: summary %q quantile %v outside [0,1]", name, q.Q)
			return
		}
		p.sample(name, append(labels[:len(labels):len(labels)], Label{"quantile", formatValue(q.Q)}), q.Value)
	}
	p.sample(name+"_sum", labels, sum)
	p.sample(name+"_count", labels, float64(count))
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return !strings.HasPrefix(s, "__")
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return formatValue(v)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
