package sepdc

import (
	"encoding/json"
	"fmt"
	"net/http"

	"sepdc/internal/cpufeat"
	"sepdc/internal/obs"
	"sepdc/internal/obs/audit"
	"sepdc/internal/vec"
)

// KernelInfo reports the distance-kernel dispatch configuration this
// process resolved at startup: the active tier ("asm", "unrolled", or
// "generic" — KNN_KERNELS overrides, otherwise the best the build and
// CPU support) and the detected CPU vector features ("none" when the
// build or architecture has no kernel assembly). Serving binaries log
// it at startup and publish it on /statsz (info.kernel_tier,
// info.cpu_features) so production can confirm the assembly kernels
// are actually engaged.
func KernelInfo() (tier, cpuFeatures string) {
	return vec.ActiveTier().String(), cpufeat.Features()
}

// This file is the public face of the serving-grade observability layer:
// a ServeObserver that a Batcher streams per-query telemetry into, a
// MetricsHandler exposing everything as Prometheus text + JSON, and the
// paper-invariant Audit entry point. The build-side story (Options.
// Observe, Stats.Report, Graph.WriteTrace) is unchanged; this layer
// covers the serving side the batch engine owns.

// ServeObserverConfig tunes a ServeObserver. The zero value is the
// serving default: 1 in 16 queries fully timed. Each strand keeps a
// 512-sample rolling window and its 8 slowest queries.
type ServeObserverConfig struct {
	// SampleEvery times 1 in SampleEvery queries (rounded up to a power
	// of two; 1 times every query). 0 selects 16. An untimed query costs
	// one event write into its chunk buffer.
	SampleEvery int
}

// ServeObserver is a long-lived serving telemetry recorder shared by any
// number of Batchers (each strand folds into its own shard; Snapshot
// may be called concurrently with serving). Create one per engine you
// want distinguishable in /metrics, and keep it for the engine's
// lifetime: a server that rebuilds its Batchers re-attaches the same
// observer, so its counters never reset.
type ServeObserver struct {
	name string
	rec  *obs.ServeRecorder
}

// NewServeObserver creates an observer and registers it under name in
// the /metrics exposition (series sepdc_serve_<name>_*). Registration is
// deterministic: the first observer created under a name owns the
// exposition slot, and a second NewServeObserver with the same name
// returns an observer sharing the incumbent's recorder (the requested
// config is ignored) instead of silently dropping the live one's
// telemetry.
func NewServeObserver(name string, cfg ServeObserverConfig) *ServeObserver {
	rec := obs.Serves.Register(name, obs.NewServeRecorder(obs.ServeConfig{SampleEvery: cfg.SampleEvery}, 0))
	return &ServeObserver{name: name, rec: rec}
}

// Name returns the observer's registered exposition name.
func (o *ServeObserver) Name() string { return o.name }

// Snapshot returns the observer's current telemetry: exact served
// counts, phase-split latency/shape histograms over the timed samples,
// rolling-window quantiles, and the retained slowest queries. Safe to
// call while Batchers serve. The result marshals directly to JSON (the
// same document /statsz serves).
func (o *ServeObserver) Snapshot() *obs.ServeSnapshot {
	if o == nil {
		return nil
	}
	return o.rec.Snapshot()
}

// Close unregisters the observer from /metrics — but only if it still
// owns its name's exposition slot, so a stale handle never drops a
// newer owner's live registration. Attached Batchers keep recording
// into the closed recorder harmlessly; detach them with Observe(nil)
// first if the recorder should stop accumulating.
func (o *ServeObserver) Close() {
	if o != nil {
		obs.Serves.Unregister(o.name, o.rec)
	}
}

// Observe attaches (or with nil detaches) a serving telemetry observer.
// Per-query overhead: one fixed-size event write into the strand's chunk
// buffer (shared with an attached QueryJournal), plus three monotonic
// clock reads when the query is sampled; each 16-query chunk then takes
// the observer's strand lock once. Answers are bit-identical either way,
// and the zero-allocation steady state is preserved. Not safe to call
// concurrently with Run.
func (bt *Batcher) Observe(o *ServeObserver) {
	if o == nil {
		bt.b.Observe(nil)
		return
	}
	bt.b.Observe(o.rec)
}

// QueryJournalConfig tunes a QueryJournal. The zero value keeps 4096
// events per serving strand.
type QueryJournalConfig struct {
	// PerStrand is each strand's ring capacity in wide events; newest
	// traffic overwrites oldest. 0 selects 4096.
	PerStrand int
}

// QueryJournal is the wide-event flight journal: one fixed-size
// structured record per served query (batch and query ids, destination
// leaf, descent depth, candidates scanned, balls reported, phase-split
// latency for sampled queries) in a bounded per-strand ring. Attach it
// to a Batcher with Journal; read it with Snapshot (non-consuming) or
// Drain (consuming, with dropped-event accounting), or over HTTP via
// the /journal endpoint of MetricsHandler. Emission costs the batch hot
// path one ring write per query and one lock per 16-query chunk, with
// zero steady-state allocations.
type QueryJournal struct {
	name string
	j    *obs.Journal
}

// NewQueryJournal creates a journal and registers it under name on the
// /journal endpoint. Like NewServeObserver, the first journal created
// under a name owns the slot; a repeat returns a handle sharing the
// incumbent's rings.
func NewQueryJournal(name string, cfg QueryJournalConfig) *QueryJournal {
	j := obs.Journals.Register(name, obs.NewJournal(obs.JournalConfig{PerStrand: cfg.PerStrand}, 0))
	return &QueryJournal{name: name, j: j}
}

// Name returns the journal's registered /journal name.
func (qj *QueryJournal) Name() string { return qj.name }

// Snapshot returns the currently retained events without consuming
// them, ordered by (batch, query). Safe to call while Batchers serve.
func (qj *QueryJournal) Snapshot() obs.JournalDrain {
	if qj == nil {
		return obs.JournalDrain{}
	}
	return qj.j.Snapshot()
}

// Drain returns every retained event not returned by a previous Drain;
// events overwritten between drains are counted in the result's Dropped
// field. Safe to call while Batchers serve.
func (qj *QueryJournal) Drain() obs.JournalDrain {
	if qj == nil {
		return obs.JournalDrain{}
	}
	return qj.j.Drain()
}

// Close unregisters the journal from /journal — only if it still owns
// its name's slot, mirroring ServeObserver.Close's replace-safe
// semantics. Attached Batchers keep publishing into its rings
// harmlessly; detach with Journal(nil) first if emission should stop.
func (qj *QueryJournal) Close() {
	if qj != nil {
		obs.Journals.Unregister(qj.name, qj.j)
	}
}

// Journal attaches (or with nil detaches) a wide-event query journal.
// Answers are unaffected and the zero-allocation steady state is
// preserved. Not safe to call concurrently with Run.
func (bt *Batcher) Journal(qj *QueryJournal) {
	if qj == nil {
		bt.b.Journal(nil)
		return
	}
	bt.b.Journal(qj.j)
}

// MetricsHandler returns the observability endpoints:
//
//	/metrics — Prometheus text exposition (format 0.0.4): process-wide
//	           sepdc counters, worker-pool gauges, every registered
//	           ServeObserver's histograms and window quantiles, and the
//	           paper-invariant audit gauges.
//	/statsz  — the same telemetry as JSON, including tail samples with
//	           their descent paths.
//	/journal — registered QueryJournals as JSON Lines (?name= filters,
//	           ?drain=1 consumes).
//
// Mount it wherever the host process serves debug HTTP; cmd/knn mounts
// it on -debug-addr.
func MetricsHandler() http.Handler { return obs.Handler() }

// AuditReport is the outcome of QueryStructure.Audit: one Check per
// invariant (Theorem 2.1 ι(S) and δ-split, the Punting-Lemma depth and
// punt rate, Lemma 6.1 space, Theorem 3.1 probe costs), each scored
// observed/bound with a pass verdict. Publish exports it as /metrics
// gauges; WriteTable renders the cmd/knn -audit table.
type AuditReport = audit.Report

// Audit re-measures the paper's invariants on the built structure:
// it re-walks the separator tree re-deriving every node's subset from
// scratch (same classification the build used), and probes the
// serving engine with the given queries to sample Theorem 3.1's cost
// bound. Probe queries must match the structure's dimension; pass nil to
// skip the query-cost checks. The bounds are the audit package's fixed
// empirical ceilings.
func (qs *QueryStructure) Audit(probes [][]float64) (*AuditReport, error) {
	for i, q := range probes {
		if err := qs.validateQuery(q); err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
	}
	return audit.Audit(qs.frozen, probes, qs.k)
}

// Snapshot returns the build statistics as machine-readable JSON —
// the counterpart of the human-oriented Report.WriteText rendering.
func (s *Stats) Snapshot() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
