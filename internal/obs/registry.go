package obs

import (
	"sort"
	"sync"
)

// The registry is the glue between long-lived telemetry producers (serve
// recorders, the paper-invariant auditor) and the /metrics handler: a
// producer registers once under a stable name, the handler walks the
// registry at scrape time. Everything here is scrape-path only — nothing
// on a query hot path touches the registry.

// GaugeKey identifies one gauge series: metric name + one optional
// label (enough for the audit gauges, which are keyed by generator).
type GaugeKey struct {
	Name       string
	LabelName  string
	LabelValue string
}

// Registry is a first-wins name registry for one kind of telemetry
// producer: the first value registered under a name owns it until that
// value is unregistered. Register and Unregister are one critical
// section each, so concurrent creators under one name all end up sharing
// the owner, and a stale handle's Unregister never drops a newer owner.
type Registry[T comparable] struct {
	mu sync.Mutex
	m  map[string]T
}

// Register publishes v under name when the name is free, and returns the
// value that owns the slot afterwards: v when the registration won, the
// incumbent otherwise.
func (r *Registry[T]) Register(name string, v T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.m[name]; ok {
		return cur
	}
	if r.m == nil {
		r.m = map[string]T{}
	}
	r.m[name] = v
	return v
}

// Unregister removes name's registration only when v still owns the slot.
func (r *Registry[T]) Unregister(name string, v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.m[name]; ok && cur == v {
		delete(r.m, name)
	}
}

// list returns the registered names, sorted, and their values.
func (r *Registry[T]) list() ([]string, []T) {
	r.mu.Lock()
	names := make([]string, 0, len(r.m))
	for k := range r.m {
		names = append(names, k)
	}
	sort.Strings(names)
	vals := make([]T, len(names))
	for i, k := range names {
		vals[i] = r.m[k]
	}
	r.mu.Unlock()
	return names, vals
}

// The producer registries the endpoints walk: serve recorders feed
// /metrics and /statsz, journals /journal, trace sinks /traces.
var (
	Serves     Registry[*ServeRecorder]
	Journals   Registry[*Journal]
	TraceSinks Registry[*TraceSink]
)

type registry struct {
	mu     sync.Mutex
	gauges map[GaugeKey]float64
	help   map[string]string
	info   map[string]string
}

var reg = registry{
	gauges: map[GaugeKey]float64{},
	help:   map[string]string{},
	info:   map[string]string{},
}

// SetInfo publishes one process-configuration string (facts with no
// numeric reading: the kernel dispatch tier, the CPU feature set) on
// /statsz's info map, so production can confirm what a process actually
// selected at startup. Re-setting a key replaces its value.
func SetInfo(key, value string) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.info[key] = value
}

// infoSnapshot copies the info map for the scrape path; nil when empty
// so /statsz omits the section entirely.
func infoSnapshot() map[string]string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if len(reg.info) == 0 {
		return nil
	}
	out := make(map[string]string, len(reg.info))
	for k, v := range reg.info {
		out[k] = v
	}
	return out
}

// SetGauge publishes (or updates) one gauge series. help is recorded
// per metric name on first use.
func SetGauge(k GaugeKey, help string, v float64) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.gauges[k] = v
	if _, ok := reg.help[k.Name]; !ok {
		reg.help[k.Name] = help
	}
}

// GaugeValue is one published gauge series and its current value.
type GaugeValue struct {
	Name       string  `json:"name"`
	LabelName  string  `json:"label_name,omitempty"`
	LabelValue string  `json:"label_value,omitempty"`
	Value      float64 `json:"value"`
}

// Gauges returns every registered gauge series, sorted by (name, label
// value) — the flight recorder folds this into a bundle's metadata, and
// tests assert published series through it.
func Gauges() []GaugeValue {
	names, byName, _ := gaugeSnapshot()
	var out []GaugeValue
	for _, name := range names {
		for _, p := range byName[name] {
			out = append(out, GaugeValue{
				Name: name, LabelName: p.key.LabelName,
				LabelValue: p.key.LabelValue, Value: p.val,
			})
		}
	}
	return out
}

// serveSnapshots returns every registered serve recorder's snapshot,
// names sorted for deterministic exposition order.
func serveSnapshots() ([]string, map[string]*ServeSnapshot) {
	names, recs := Serves.list()
	out := make(map[string]*ServeSnapshot, len(recs))
	for i, r := range recs {
		out[names[i]] = r.Snapshot()
	}
	return names, out
}

// gaugeSnapshot returns the registered gauges grouped by metric name,
// names sorted, series within a name sorted by label value.
func gaugeSnapshot() ([]string, map[string][]gaugePoint, map[string]string) {
	reg.mu.Lock()
	byName := map[string][]gaugePoint{}
	for k, v := range reg.gauges {
		byName[k.Name] = append(byName[k.Name], gaugePoint{k, v})
	}
	help := make(map[string]string, len(reg.help))
	for k, v := range reg.help {
		help[k] = v
	}
	reg.mu.Unlock()
	names := make([]string, 0, len(byName))
	for name, pts := range byName {
		names = append(names, name)
		sort.Slice(pts, func(i, j int) bool {
			if pts[i].key.LabelName != pts[j].key.LabelName {
				return pts[i].key.LabelName < pts[j].key.LabelName
			}
			return pts[i].key.LabelValue < pts[j].key.LabelValue
		})
		byName[name] = pts
	}
	sort.Strings(names)
	return names, byName, help
}

type gaugePoint struct {
	key GaugeKey
	val float64
}
