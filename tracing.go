package sepdc

import (
	"sepdc/internal/obs"
)

// This file is the public face of request-scoped tracing: the W3C
// trace-context type the serving front end parses from traceparent
// headers and threads through Batcher.RunTraced, and a TraceLog — the
// registered request-trace sink behind the /traces endpoint and the
// flight bundle's traces.jsonl. Per-query spans ride the existing
// QueryJournal (JournalEvent.TraceID/SpanID); request-level spans
// (queue → coalesce → pass) live here.

// TraceContext is one request's W3C trace context: 128-bit TraceID
// (hi/lo halves), 64-bit span id, sampled flag. The zero value means
// "untraced". Parse one from a traceparent header with
// ParseTraceparent; generate one server-side with GenerateTrace.
type TraceContext = obs.TraceContext

// RequestTrace is one completed request's span summary: where its wall
// time went between admission and completion (queue, coalesce, batch
// pass), as published to a TraceLog and exported on /traces.
type RequestTrace = obs.RequestTrace

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"). ok is
// false for the spec's invalid forms (malformed, all-zero ids, version
// ff). Allocation-free — safe on a request hot path.
func ParseTraceparent(s string) (TraceContext, bool) { return obs.ParseTraceparent(s) }

// GenerateTrace deterministically derives a trace context for a request
// that arrived without one, from a process seed and a per-request
// counter. Generated traces are unsampled: they appear in /traces and
// stamp journal events, but do not force the per-query timed path the
// way a client-sent sampled traceparent does — so a serving process
// that traces every request stays inside its observability budget.
func GenerateTrace(seed, n uint64) TraceContext { return obs.GenTrace(seed, n) }

// ChildSpanID derives a child span id from a parent span and a salt —
// the same splitmix64 derivation the batch engine uses to give every
// query of a traced request its own deterministic span.
func ChildSpanID(parent, salt uint64) uint64 { return obs.ChildSpan(parent, salt) }

// TraceLog is a bounded store of completed request traces: a ring of
// the 1024 most recent requests plus the 32 slowest, which survive ring
// overwrites. Publish is one mutex and zero allocations per request;
// reads may run concurrently with publishing. Registered TraceLogs are
// served by the /traces endpoint of MetricsHandler and folded into
// flight bundles as traces.jsonl.
type TraceLog struct {
	name string
	t    *obs.TraceSink
}

// NewTraceLog creates a trace log and registers it under name on the
// /traces endpoint. Like NewQueryJournal, the first log created under a
// name owns the slot; a repeat returns a handle sharing the incumbent's
// storage.
func NewTraceLog(name string) *TraceLog {
	return &TraceLog{name: name, t: obs.TraceSinks.Register(name, obs.NewTraceSink())}
}

// Name returns the log's registered /traces name.
func (tl *TraceLog) Name() string { return tl.name }

// Publish stores one completed request trace. Traces with a zero trace
// id are dropped. Safe for concurrent use; zero allocations.
func (tl *TraceLog) Publish(rt RequestTrace) {
	if tl != nil {
		tl.t.Publish(rt)
	}
}

// Snapshot returns the retained recent requests, oldest first.
func (tl *TraceLog) Snapshot() []RequestTrace {
	if tl == nil {
		return nil
	}
	return tl.t.Snapshot()
}

// Slowest returns the slowest retained requests, slowest first.
func (tl *TraceLog) Slowest() []RequestTrace {
	if tl == nil {
		return nil
	}
	return tl.t.Slowest()
}

// Retained returns the slowest tail followed by the recent ring (less
// duplicates) — the flight bundle's traces.jsonl content.
func (tl *TraceLog) Retained() []RequestTrace {
	if tl == nil {
		return nil
	}
	return tl.t.Retained()
}

// Close unregisters the log from /traces — only if it still owns its
// name's slot, mirroring QueryJournal.Close.
func (tl *TraceLog) Close() {
	if tl != nil {
		obs.TraceSinks.Unregister(tl.name, tl.t)
	}
}
