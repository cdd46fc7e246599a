package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"sepdc/internal/obs/promtext"
)

// Handler returns the observability endpoint mux:
//
//	/metrics — Prometheus text exposition (format 0.0.4): every
//	           registered serve recorder's phase-split histograms and
//	           rolling-window quantiles, and the registered gauges
//	           (paper-invariant audit results).
//	/statsz  — the same telemetry as machine-readable JSON: full
//	           ServeSnapshot per registered recorder (including tail
//	           samples with descent paths, which have no Prometheus
//	           representation).
//	/journal — the wide-event query journals as JSON Lines: one event
//	           object per line, every registered journal, ordered by
//	           (engine, batch, query). ?name=<engine> filters to one
//	           journal; ?drain=1 consumes (subsequent drains return only
//	           newer events, and events overwritten between drains count
//	           as dropped). Ring accounting travels in the
//	           Sepdc-Journal-Published / -Dropped headers; saturation
//	           detection without a second /metrics hit rides on
//	           X-Journal-Drained (events in this response) and
//	           X-Journal-Overwritten (events the rings evicted).
//	/traces  — the request-trace sinks as JSON Lines: one completed
//	           request per line with its queue/coalesce/pass span split.
//	           ?name=<engine> filters to one sink; ?id=<32 hex> returns
//	           only that trace; ?slowest=1 returns the retained slow
//	           tail; &format=chrome (with id=) renders one trace as
//	           Chrome trace_event JSON with request and strand lanes.
//
// Mount it on any mux; cmd/knn wires it into -debug-addr alongside
// pprof.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", serveMetrics)
	mux.HandleFunc("/statsz", serveStatsz)
	mux.HandleFunc("/journal", serveJournal)
	mux.HandleFunc("/traces", serveTraces)
	return mux
}

func serveMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := promtext.NewWriter(w)

	// Serve recorders: exact served counts, sampled phase-split
	// histograms, and window quantiles as a summary.
	serveNames, snaps := serveSnapshots()
	for _, name := range serveNames {
		s := snaps[name]
		l := []promtext.Label{{Name: "engine", Value: name}}
		pw.Counter("sepdc_serve_"+name+"_queries_total",
			"Queries served by the batched engine (exact).", nil, float64(s.Queries))
		pw.Counter("sepdc_serve_"+name+"_sampled_total",
			"Queries that took the timed phase-split sample path.", nil, float64(s.Sampled))
		pw.Gauge("sepdc_serve_"+name+"_sample_every",
			"Sampling period: 1 in this many queries is fully timed.",
			promtext.GaugeSample{Value: float64(s.SampleEvery)})
		histFamEx(pw, "sepdc_serve_"+name+"_latency_ns", "Sampled per-query latency (descent+scan), nanoseconds.", l, s.Latency, s.LatencyExemplars)
		histFam(pw, "sepdc_serve_"+name+"_descent_ns", "Sampled per-query septree descent time, nanoseconds.", l, s.Descent)
		histFam(pw, "sepdc_serve_"+name+"_leaf_scan_ns", "Sampled per-query leaf candidate-scan time, nanoseconds.", l, s.Scan)
		histFam(pw, "sepdc_serve_"+name+"_nodes_visited", "Sampled per-query septree nodes visited (Theorem 3.1: O(log n)).", l, s.Nodes)
		histFam(pw, "sepdc_serve_"+name+"_leaf_scanned", "Sampled per-query leaf ball candidates scanned (Theorem 3.1: O(k + log n)).", l, s.Scanned)
		pw.Summary("sepdc_serve_"+name+"_window_latency_ns",
			"Rolling-window latency quantiles over sampled queries, nanoseconds.", l,
			[]promtext.Quantile{
				{Q: 0.5, Value: float64(s.Window.P50)},
				{Q: 0.95, Value: float64(s.Window.P95)},
				{Q: 0.99, Value: float64(s.Window.P99)},
				{Q: 0.999, Value: float64(s.Window.P999)},
			},
			float64(s.Latency.Sum), s.Latency.Count)
	}

	// Journal ring saturation: the fraction of ever-published wide
	// events the rings have already overwritten. Near 1 the journal is
	// mostly forgetting traffic before anyone reads it — grow the ring
	// (QueryJournalConfig.PerStrand / knnserve -journal-ring) or drain
	// more often. metrics_audit.sh lints this gauge into [0, 1].
	if jNames, journals := Journals.list(); len(jNames) > 0 {
		samples := make([]promtext.GaugeSample, 0, len(jNames))
		for i, name := range jNames {
			samples = append(samples, promtext.GaugeSample{
				Labels: []promtext.Label{{Name: "engine", Value: name}},
				Value:  journals[i].Accounting().OverwriteRate(),
			})
		}
		pw.Gauge("sepdc_journal_overwrite_rate",
			"Fraction of published wide events already overwritten out of the journal rings (1 = ring far too small for the traffic).",
			samples...)
	}

	// Registered gauges (audit results et al.).
	gaugeNames, byName, help := gaugeSnapshot()
	for _, name := range gaugeNames {
		pts := byName[name]
		samples := make([]promtext.GaugeSample, 0, len(pts))
		for _, p := range pts {
			var labels []promtext.Label
			if p.key.LabelName != "" {
				labels = []promtext.Label{{Name: p.key.LabelName, Value: p.key.LabelValue}}
			}
			samples = append(samples, promtext.GaugeSample{Labels: labels, Value: p.val})
		}
		pw.Gauge(name, help[name], samples...)
	}

	if err := pw.Err(); err != nil {
		// Headers are gone; all we can do is abort the body so the
		// scraper sees a truncated (invalid) exposition and retries.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// histFam converts an obs.Hist (non-cumulative log2 buckets, inclusive
// upper bounds, MaxInt64 sentinel top bucket) into the cumulative
// +Inf-terminated form the exposition requires.
func histFam(pw *promtext.Writer, name, help string, labels []promtext.Label, h Hist) {
	histFamEx(pw, name, help, labels, h, nil)
}

// histFamEx is histFam with OpenMetrics exemplars attached to the
// buckets they exemplify (matched by the bucket's inclusive upper
// bound). Exemplar timestamps convert to the exposition's unix seconds.
func histFamEx(pw *promtext.Writer, name, help string, labels []promtext.Label, h Hist, exs []LatencyExemplar) {
	byLe := make(map[int64]*promtext.Exemplar, len(exs))
	for i := range exs {
		e := exs[i]
		byLe[e.Le] = &promtext.Exemplar{
			Labels: []promtext.Label{{Name: "trace_id", Value: e.TraceID}},
			Value:  float64(e.ValueNs),
			Ts:     float64(e.UnixNs) / 1e9,
		}
	}
	// An exemplar may sit in a bucket the snapshot elides: Hist.Buckets
	// lists non-empty buckets only, and a forced (traced, unticked) query
	// deliberately does not feed the aggregate counts. Union those Les in as zero-count
	// cumulative points so every exemplar has a bucket line to ride.
	counts := make(map[int64]int64, len(h.Buckets))
	les := make([]int64, 0, len(h.Buckets)+len(byLe))
	for _, b := range h.Buckets {
		counts[b.Le] = b.Count
		les = append(les, b.Le)
	}
	for le := range byLe {
		if _, ok := counts[le]; !ok {
			les = append(les, le)
		}
	}
	sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
	pts := make([]promtext.BucketPoint, 0, len(les))
	cum := int64(0)
	for _, leRaw := range les {
		cum += counts[leRaw]
		le := float64(leRaw)
		if leRaw == math.MaxInt64 {
			le = math.Inf(1)
		}
		pts = append(pts, promtext.BucketPoint{Le: le, CumCount: cum, Exemplar: byLe[leRaw]})
	}
	pw.Histogram(name, help, labels, pts, float64(h.Sum), h.Count)
}

// statszPayload is the /statsz JSON document.
type statszPayload struct {
	Info   map[string]string         `json:"info,omitempty"`
	Serves map[string]*ServeSnapshot `json:"serves,omitempty"`
	Gauges []statszGauge             `json:"gauges,omitempty"`
}

type statszGauge struct {
	Name  string  `json:"name"`
	Label string  `json:"label,omitempty"`
	Value float64 `json:"value"`
}

// WriteStatsz renders the /statsz JSON document to w, propagating every
// write error (the BuildReport.WriteText discipline: telemetry sinks
// can fail, and silently truncated JSON is worse than an error).
// Serving dashboards depend on the document's field names and types
// staying stable; TestStatszSchemaGolden pins them.
func WriteStatsz(w io.Writer) error {
	_, snaps := serveSnapshots()
	gaugeNames, byName, _ := gaugeSnapshot()
	doc := statszPayload{Info: infoSnapshot(), Serves: snaps}
	for _, name := range gaugeNames {
		for _, p := range byName[name] {
			label := ""
			if p.key.LabelName != "" {
				label = p.key.LabelName + "=" + p.key.LabelValue
			}
			doc.Gauges = append(doc.Gauges, statszGauge{Name: name, Label: label, Value: p.val})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func serveStatsz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := WriteStatsz(w); err != nil {
		// Headers are gone; abort the body so the client sees a
		// truncated (invalid) document and retries.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// journalLine is one /journal JSONL line: the event plus the engine it
// came from.
type journalLine struct {
	Engine string `json:"engine"`
	JournalEvent
}

func serveJournal(w http.ResponseWriter, req *http.Request) {
	consume := req.URL.Query().Get("drain") == "1"
	filter := req.URL.Query().Get("name")
	names, journals := Journals.list()
	type engineDrain struct {
		name string
		d    JournalDrain
	}
	var drains []engineDrain
	var published, dropped, drained, overwritten uint64
	for i, name := range names {
		if filter != "" && name != filter {
			continue
		}
		var d JournalDrain
		if consume {
			d = journals[i].Drain()
		} else {
			d = journals[i].Snapshot()
		}
		published += d.Published
		dropped += d.Dropped
		drained += uint64(len(d.Events))
		overwritten += journals[i].Accounting().Overwritten
		drains = append(drains, engineDrain{name, d})
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Sepdc-Journal-Published", strconv.FormatUint(published, 10))
	w.Header().Set("Sepdc-Journal-Dropped", strconv.FormatUint(dropped, 10))
	// Saturation detection in one hit: how many events this response
	// carries versus how many the rings have already evicted. A scraper
	// seeing Overwritten grow much faster than Drained between hits knows
	// the rings are forgetting traffic before anyone reads it.
	w.Header().Set("X-Journal-Drained", strconv.FormatUint(drained, 10))
	w.Header().Set("X-Journal-Overwritten", strconv.FormatUint(overwritten, 10))
	enc := json.NewEncoder(w)
	for _, ed := range drains {
		for i := range ed.d.Events {
			if err := enc.Encode(journalLine{Engine: ed.name, JournalEvent: ed.d.Events[i]}); err != nil {
				return // connection gone; nothing left to signal on
			}
		}
	}
}

// traceLine is one /traces JSONL line: the request trace plus the
// engine (trace sink) it came from.
type traceLine struct {
	Engine string `json:"engine"`
	RequestTrace
}

func serveTraces(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	filter := q.Get("name")
	var idHi, idLo uint64
	haveID := false
	if id := q.Get("id"); id != "" {
		if len(id) != 32 {
			http.Error(w, "id must be 32 hex digits", http.StatusBadRequest)
			return
		}
		hi, ok1 := parseHex64(id[:16])
		lo, ok2 := parseHex64(id[16:])
		if !ok1 || !ok2 || hi|lo == 0 {
			http.Error(w, "id must be a nonzero 128-bit hex trace id", http.StatusBadRequest)
			return
		}
		idHi, idLo, haveID = hi, lo, true
	}
	names, sinks := TraceSinks.list()
	type engineTraces struct {
		name   string
		traces []RequestTrace
	}
	var all []engineTraces
	var published uint64
	for i, name := range names {
		if filter != "" && name != filter {
			continue
		}
		t := sinks[i]
		published += t.Published()
		var trs []RequestTrace
		switch {
		case haveID:
			trs = t.Find(idHi, idLo)
		case q.Get("slowest") == "1":
			trs = t.Slowest()
		default:
			trs = t.Snapshot()
		}
		all = append(all, engineTraces{name, trs})
	}

	if q.Get("format") == "chrome" {
		if !haveID {
			http.Error(w, "format=chrome requires id=<32 hex trace id>", http.StatusBadRequest)
			return
		}
		var trs []RequestTrace
		for _, et := range all {
			trs = append(trs, et.traces...)
		}
		if len(trs) == 0 {
			http.Error(w, "trace not retained (overwritten or never seen)", http.StatusNotFound)
			return
		}
		// Join the per-query descent/scan spans: every journal event
		// stamped with this trace id belongs to the rendering.
		var events []JournalEvent
		_, journals := Journals.list()
		for _, j := range journals {
			d := j.Snapshot()
			for i := range d.Events {
				if d.Events[i].TraceHi == idHi && d.Events[i].TraceLo == idLo {
					events = append(events, d.Events[i])
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if err := WriteChromeTrace(w, trs, events); err != nil {
			return // connection gone; nothing left to signal on
		}
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Sepdc-Traces-Published", strconv.FormatUint(published, 10))
	enc := json.NewEncoder(w)
	for _, et := range all {
		for i := range et.traces {
			if err := enc.Encode(traceLine{Engine: et.name, RequestTrace: et.traces[i]}); err != nil {
				return
			}
		}
	}
}
