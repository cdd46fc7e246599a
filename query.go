package sepdc

import (
	"context"
	"fmt"
	"math"
	"sync"

	"sepdc/internal/chaos"
	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/separator"
	"sepdc/internal/septree"
	"sepdc/internal/xrand"
)

// QueryStructure is the separator-based search structure of Section 3:
// given the k-neighborhood system of a point set, it answers "which
// points' k-neighborhood balls contain q" in O(k + log n) time with O(n)
// space.
//
// The structure is one flat-array separator tree (children-adjacent
// nodes, CSR-packed leaf ball ids, pre-squared radii) built once at
// construction; it also carries the build statistics Stats reports and
// the separators Audit re-walks. For query-heavy workloads use
// CoveringBallsBatch or a Batcher, which fan batches across the worker
// pool and reuse result arenas so steady-state serving performs zero
// allocations per batch.
type QueryStructure struct {
	frozen *septree.Frozen
	dim    int
	k      int

	mu    sync.Mutex // guards batch (the lazily built shared engine)
	batch *septree.Batch
}

// QueryStructureStats reports the built structure's shape, the quantities
// Lemma 3.1 bounds.
type QueryStructureStats struct {
	Height       int // root-to-leaf node count on the deepest path
	Leaves       int
	StoredBalls  int // Σ over leaves; O(n) by Lemma 3.1 despite duplication
	BuildTrials  int // total separator candidates consumed
	CriticalPath int // max separator trials on any root-leaf path (Thm 3.1)
	Punts        int // nodes whose separator search fell back to a hyperplane
	ForcedLeaves int // oversized leaves created after repeated no-progress
	// SimulatedSteps/SimulatedWork are the build's cost on the paper's
	// vector machine (critical path and processor-time product).
	SimulatedSteps int64
	SimulatedWork  int64
}

// NewQueryStructure builds the search structure over the k-neighborhood
// system of the points.
func NewQueryStructure(points [][]float64, k int, seed uint64) (*QueryStructure, error) {
	return NewQueryStructureContext(context.Background(), points, k, seed)
}

// NewQueryStructureContext is NewQueryStructure under a context: the
// separator-tree construction observes cancellation at every node,
// abandons the partial structure, and returns ctx.Err().
//
// The k-NN radii and the separator tree are computed on GOMAXPROCS
// workers, as BuildKNNGraph's default is; the structure is the same for
// any worker count. Like BuildKNNGraph, the build honors the KNN_CHAOS
// environment spec: separator-trial fault injection reroutes
// construction onto its punt paths, and a worker stall delays the
// parallel tasks, without changing any query answer.
func NewQueryStructureContext(ctx context.Context, points [][]float64, k int, seed uint64) (*QueryStructure, error) {
	ps, err := convert(points)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("sepdc: k must be >= 1, got %d", k)
	}
	inj, err := chaos.FromEnv()
	if err != nil {
		return nil, fmt.Errorf("sepdc: invalid chaos spec: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The machine starts before the k-NN radii's kd-tree is built, so
	// its workers are parked and accept tasks by the time the searches
	// are handed out.
	m := newMachine(0, inj, ctx.Done())
	defer m.Close()
	opts := &septree.Options{Done: ctx.Done(), Machine: m}
	if inj != nil {
		opts.Sep = &separator.Options{Chaos: inj}
	}
	sys := nbrsys.KNeighborhoodFlat(ps, k, m)
	if afterRadii != nil {
		afterRadii()
	}
	frozen, err := septree.Build(sys, xrand.New(seed), opts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return &QueryStructure{frozen: frozen, dim: ps.Dim, k: k}, nil
}

// afterRadii, when set, runs between a query structure's k-NN radii and
// its separator tree; tests use it to cancel a build at that point.
var afterRadii func()

// validateQuery rejects dimension-mismatched or non-finite query
// coordinates with the library's typed sentinels — the same contract
// BuildKNNGraph enforces on its input points.
func (qs *QueryStructure) validateQuery(q []float64) error {
	if len(q) != qs.dim {
		return fmt.Errorf("sepdc: query dimension %d, want %d: %w", len(q), qs.dim, ErrDimensionMismatch)
	}
	for c, x := range q {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("sepdc: query coordinate %d is %v: %w", c, x, ErrNonFiniteCoordinate)
		}
	}
	return nil
}

// CoveringBalls returns, in ascending order, the indices of the points
// whose k-neighborhood ball strictly contains q. By the definition of the
// k-neighborhood system, i ∈ CoveringBalls(q) means q is closer to point i
// than i's current k-th nearest neighbor — the "reverse nearest neighbor"
// relation. Malformed queries are rejected with errors wrapping
// ErrDimensionMismatch or ErrNonFiniteCoordinate.
func (qs *QueryStructure) CoveringBalls(q []float64) ([]int, error) {
	if err := qs.validateQuery(q); err != nil {
		return nil, err
	}
	balls, _, _ := qs.frozen.Covering(q, nil)
	if len(balls) == 0 {
		return nil, nil
	}
	return balls, nil
}

// CoveringBallsBatch answers CoveringBalls for every query in one call,
// fanning the slice across the worker pool. The result rows are freshly
// allocated (safe to retain); row i equals CoveringBalls(queries[i])
// element for element. For zero-allocation steady-state serving, use a
// Batcher instead. Safe for concurrent use.
func (qs *QueryStructure) CoveringBallsBatch(queries [][]float64) ([][]int, error) {
	for i, q := range queries {
		if err := qs.validateQuery(q); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	out := make([][]int, len(queries))
	if len(queries) == 0 {
		return out, nil
	}
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if qs.batch == nil {
		qs.batch = septree.NewBatch(qs.frozen, 0)
	}
	qs.batch.Run(queries)
	total := 0
	for i := range queries {
		total += len(qs.batch.Result(i))
	}
	backing := make([]int, 0, total)
	for i := range queries {
		r := qs.batch.Result(i)
		start := len(backing)
		backing = append(backing, r...)
		out[i] = backing[start:len(backing):len(backing)]
	}
	return out, nil
}

// Batcher is a dedicated, reusable batched-query engine bound to one
// QueryStructure. Unlike CoveringBallsBatch it returns views into
// engine-owned arenas, so a warmed-up Batcher serves every subsequent
// batch with zero heap allocations. A Batcher is not safe for concurrent
// use; create one per serving goroutine (they share the same immutable
// frozen structure).
type Batcher struct {
	qs *QueryStructure
	b  *septree.Batch
}

// NewBatcher returns a Batcher with the given parallelism (0 selects
// GOMAXPROCS). Strands beyond the caller's are scheduled on the shared
// worker pool and degrade to inline execution under saturation.
//
// Like the build path, the Batcher honors the KNN_CHAOS environment
// spec: the stall clause delays each strand before every chunk of
// queries it claims, inflating per-batch latency without changing any
// answer — the lever the flight-recorder integration tests pull. An
// invalid spec is ignored here (construction already surfaces it).
func (qs *QueryStructure) NewBatcher(workers int) *Batcher {
	b := septree.NewBatch(qs.frozen, workers)
	if inj, err := chaos.FromEnv(); err == nil && inj != nil {
		b.Chaos(inj)
	}
	return &Batcher{qs: qs, b: b}
}

// Run answers an open-ball covering query for every element of queries.
// Results are read with Result and stay valid until the next Run.
func (bt *Batcher) Run(queries [][]float64) error {
	for i, q := range queries {
		if err := bt.qs.validateQuery(q); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	bt.b.Run(queries)
	return nil
}

// RunClosed is Run with closed-ball membership (a point on a ball's
// boundary counts as covered, within geom.Eps on the squared radius).
// The serving front end maps the wire format's closed flag here.
func (bt *Batcher) RunClosed(queries [][]float64) error {
	for i, q := range queries {
		if err := bt.qs.validateQuery(q); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	bt.b.RunClosed(queries)
	return nil
}

// RunTraced is Run with per-query trace contexts: traces[i] carries
// query i's request trace (zero value = untraced). Traced queries stamp
// their TraceID and a derived per-query SpanID on journal events; a
// sampled trace (client sent trace-flags 01) forces the timed
// phase-split path so the request is guaranteed an exemplar and an
// absolute-timeline journal event. traces must be nil or len(queries)
// long. Answers are bit-identical to Run.
func (bt *Batcher) RunTraced(queries [][]float64, traces []TraceContext) error {
	if traces != nil && len(traces) != len(queries) {
		return fmt.Errorf("sepdc: %d traces for %d queries", len(traces), len(queries))
	}
	for i, q := range queries {
		if err := bt.qs.validateQuery(q); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	bt.b.RunTraced(queries, traces)
	return nil
}

// RunClosedTraced is RunTraced with closed-ball membership.
func (bt *Batcher) RunClosedTraced(queries [][]float64, traces []TraceContext) error {
	if traces != nil && len(traces) != len(queries) {
		return fmt.Errorf("sepdc: %d traces for %d queries", len(traces), len(queries))
	}
	for i, q := range queries {
		if err := bt.qs.validateQuery(q); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	bt.b.RunClosedTraced(queries, traces)
	return nil
}

// Len returns the number of queries answered by the last Run.
func (bt *Batcher) Len() int { return bt.b.Len() }

// Result returns the ball indices covering query i of the last Run, in
// ascending order. The slice aliases the engine's arena: it is valid only
// until the next Run and must not be modified. Row contents are identical
// to CoveringBalls(queries[i]).
func (bt *Batcher) Result(i int) []int { return bt.b.Result(i) }

// BatchQueryStats is a Batcher's cumulative served-traffic record.
type BatchQueryStats struct {
	Batches      int64    // Run invocations
	Queries      int64    // queries answered
	NodesVisited int64    // Σ septree nodes visited
	LeafScanned  int64    // Σ leaf ball candidates scanned
	Latency      obs.Hist // per-batch wall-time histogram (nanoseconds)
}

// Stats snapshots the Batcher's cumulative counters and per-batch
// latency histogram. Call between Runs.
func (bt *Batcher) Stats() BatchQueryStats {
	st := bt.b.Stats()
	return BatchQueryStats{
		Batches:      st.Batches,
		Queries:      st.Queries,
		NodesVisited: st.NodesVisited,
		LeafScanned:  st.LeafScanned,
		Latency:      st.Latency,
	}
}

// Stats returns the structure's shape statistics.
func (qs *QueryStructure) Stats() QueryStructureStats {
	st := qs.frozen.Stats()
	return QueryStructureStats{
		Height:         st.Height,
		Leaves:         st.Leaves,
		StoredBalls:    st.TotalStored,
		BuildTrials:    st.SeparatorTrials,
		CriticalPath:   st.CriticalTrials,
		Punts:          st.Punts,
		ForcedLeaves:   st.ForcedLeaves,
		SimulatedSteps: st.Cost.Steps,
		SimulatedWork:  st.Cost.Work,
	}
}
