package sepdc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"sepdc/internal/brute"
	"sepdc/internal/chaos"
	"sepdc/internal/core"
	"sepdc/internal/kdtree"
	"sepdc/internal/knngraph"
	"sepdc/internal/obs"
	"sepdc/internal/pool"
	"sepdc/internal/pts"
	"sepdc/internal/separator"
	"sepdc/internal/topk"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// Input validation errors. The library rejects malformed point sets up
// front with errors wrapping these sentinels, so callers can classify the
// rejection with errors.Is without parsing messages.
var (
	// ErrNoPoints is returned when the input holds no points.
	ErrNoPoints = errors.New("sepdc: no points")
	// ErrDimensionMismatch is returned when the rows disagree in dimension
	// or the points are zero-dimensional.
	ErrDimensionMismatch = errors.New("sepdc: dimension mismatch")
	// ErrNonFiniteCoordinate is returned when a coordinate is NaN or ±Inf.
	// Euclidean geometry (and every separator guarantee) is meaningless on
	// non-finite coordinates, so they are rejected, never silently dropped.
	ErrNonFiniteCoordinate = errors.New("sepdc: non-finite coordinate")
)

// Algorithm selects how BuildKNNGraph computes the neighbor lists. All
// algorithms return exactly the same graph (ties broken by smaller index).
type Algorithm string

const (
	// Sphere is the paper's Section-6 algorithm: sphere-separator parallel
	// divide and conquer with fast correction and punting. Random O(log n)
	// parallel time on the vector model.
	Sphere Algorithm = "sphere"
	// Hyperplane is the Section-5 baseline: median-hyperplane divide and
	// conquer with query-structure correction. Random O(log² n) time.
	Hyperplane Algorithm = "hyperplane"
	// KDTree is the sequential baseline (the role Vaidya's algorithm plays
	// in the paper): one branch-and-bound query per point.
	KDTree Algorithm = "kdtree"
	// Brute tests all pairs; the ground truth for testing.
	Brute Algorithm = "brute"
)

// Options configures BuildKNNGraph.
type Options struct {
	// Algorithm selects the implementation; default Sphere.
	Algorithm Algorithm
	// Seed drives all randomness; equal seeds give identical results.
	Seed uint64
	// Workers bounds goroutine parallelism of the divide-and-conquer
	// algorithms (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// Observe enables the structured metrics layer: Stats().Report carries
	// per-phase wall times, counters, and histograms of the build. Off, the
	// instrumentation compiles down to nil-receiver no-ops.
	Observe bool
	// Trace additionally records one span per recursion-node phase for
	// Chrome trace_event export via Graph.WriteTrace. Implies Observe.
	Trace bool

	// chaos installs the deterministic fault injector (internal/chaos).
	// Unexported by design: the knob is reachable from this package's
	// tests and — for `go test`/CI runs of any consumer — via the
	// KNN_CHAOS environment spec, without widening the public API.
	// Injections reroute the build onto its punt/fallback paths; the
	// resulting graph is identical either way.
	chaos *chaos.Injector
}

// injector returns the build's fault injector: the in-package knob when
// set, else whatever the KNN_CHAOS environment spec says (usually nothing).
func (o *Options) injector() (*chaos.Injector, error) {
	if o != nil && o.chaos != nil {
		return o.chaos, nil
	}
	return chaos.FromEnv()
}

func (o *Options) algorithm() Algorithm {
	if o == nil || o.Algorithm == "" {
		return Sphere
	}
	return o.Algorithm
}

func (o *Options) seed() uint64 {
	if o == nil {
		return 1
	}
	return o.Seed
}

// Neighbor is one entry of a point's k-nearest-neighbor list.
type Neighbor struct {
	Index    int     // index of the neighboring point
	Distance float64 // Euclidean distance
}

// Stats reports what a graph construction did; fields are zero for the
// non-divide-and-conquer algorithms where they do not apply.
type Stats struct {
	// SimulatedSteps is the critical-path length in unit-time vector
	// operations on the paper's machine model ("parallel time").
	SimulatedSteps int64
	// SimulatedWork is the total element-operations ("processors × time").
	SimulatedWork int64
	// SeparatorTrials counts Unit Time Separator invocations.
	SeparatorTrials int
	// Punts counts corrections that fell back to the query structure.
	Punts int
	// FastCorrections counts marches that completed.
	FastCorrections int
	// MaxDepth is the deepest recursion node reached (root = 0) — the
	// quantity the Punting Lemma's O(log n) depth bound governs even when
	// every separator search fails to the hyperplane fallback.
	MaxDepth int
	// Report is the full observability report (per-phase wall times,
	// counters, histograms); nil unless Options.Observe or Options.Trace
	// was set. Counters and Histograms are deterministic for a fixed seed
	// regardless of Workers; Phases and WallNs are wall-clock.
	Report *obs.BuildReport
}

// Graph is the k-nearest-neighbor graph of Definition 1.1: vertices are
// the input points; {i, j} is an edge when i is one of j's k nearest
// neighbors or vice versa.
type Graph struct {
	k     int
	n     int
	lists []*topk.List
	csr   *knngraph.Graph
	stats Stats
	rec   *obs.Recorder
}

// BuildKNNGraph computes the exact k-nearest-neighbor graph of the points.
// Points must be finite, share one dimension d ≥ 1, and k must be ≥ 1.
// Duplicate points are legal (they are neighbors at distance 0).
//
// The rows are flattened once into contiguous storage (package pts); every
// algorithm runs on the flat representation, so this function is a thin
// converting wrapper over the internal flat entry points.
func BuildKNNGraph(points [][]float64, k int, opts *Options) (*Graph, error) {
	return BuildKNNGraphContext(context.Background(), points, k, opts)
}

// BuildKNNGraphContext is BuildKNNGraph under a context. The Sphere and
// Hyperplane builds observe cancellation at every recursion node and at
// correction-phase boundaries, abandon the partial graph, and return
// ctx.Err() — a build punting its way down the slow correction path can be
// cancelled or deadlined promptly. The non-recursive baselines (KDTree,
// Brute) check the context only before starting.
func BuildKNNGraphContext(ctx context.Context, points [][]float64, k int, opts *Options) (*Graph, error) {
	ps, err := convert(points)
	if err != nil {
		return nil, err
	}
	return buildFromPointSet(ctx, ps, k, opts)
}

// newMachine returns a machine of the given workers (0 = GOMAXPROCS).
// A chaos worker stall rides on its pool as a pre-task hook, cut short
// when done closes, so a stalled build still cancels promptly.
func newMachine(workers int, inj *chaos.Injector, done <-chan struct{}) *vm.Machine {
	if inj.StallDuration() > 0 {
		hook := beforeStall
		return vm.NewMachineHooked(workers, func() {
			if hook != nil {
				hook()
			}
			inj.Stall(done)
		})
	}
	return vm.NewMachine(workers)
}

// beforeStall, when set as a machine is made, runs before each of its
// chaos worker stalls; tests use it to cancel a build while one of its
// forks waits on a worker.
var beforeStall func()

// buildFromPointSet is the flat-storage core of BuildKNNGraph, shared with
// FindGraphSeparator so a caller that already holds a PointSet does not pay
// a second [][]float64 round trip. ps must be the caller's private copy:
// the Sphere and Hyperplane builds permute its rows in place.
func buildFromPointSet(ctx context.Context, ps *pts.PointSet, k int, opts *Options) (*Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("sepdc: k must be >= 1, got %d", k)
	}
	inj, err := opts.injector()
	if err != nil {
		return nil, fmt.Errorf("sepdc: invalid chaos spec: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var rec *obs.Recorder
	if opts != nil && (opts.Observe || opts.Trace) {
		rec = obs.New(obs.Config{Trace: opts.Trace})
	}
	start := time.Now()
	var lists []*topk.List
	var st Stats
	var cst core.Stats // the build's tally; zero for the baselines
	switch algo := opts.algorithm(); algo {
	case Brute:
		lists = brute.AllKNNFlat(ps, k)
	case KDTree:
		lists = kdtree.BuildFlat(ps, kdtree.DefaultLeafSize).AllKNN(k)
	case Sphere, Hyperplane:
		cOpts := &core.Options{K: k, Rec: rec, Chaos: inj}
		workers := 0
		if opts != nil {
			workers = opts.Workers
		}
		if inj != nil {
			// Thread the injector into the per-node separator searches
			// (and, transitively, the punt-path septree builds).
			cOpts.Sep = &separator.Options{Chaos: inj}
		}
		// Workers == 1 gets the same Machine code path as every other
		// setting (NewMachine(1) is the sequential executor), so the cost
		// accounting in Stats is produced identically regardless of the
		// parallelism setting.
		cOpts.Machine = newMachine(workers, inj, ctx.Done())
		defer cOpts.Machine.Close()
		g := xrand.New(opts.seed())
		var res *core.Result
		var err error
		if algo == Sphere {
			res, err = core.SphereDNCFlatContext(ctx, ps, g, cOpts)
		} else {
			res, err = core.HyperplaneDNCFlatContext(ctx, ps, g, cOpts)
		}
		if err != nil {
			return nil, err
		}
		lists, cst = res.Lists, res.Stats
		st = Stats{
			SimulatedSteps:  cst.Cost.Steps,
			SimulatedWork:   cst.Cost.Work,
			SeparatorTrials: cst.SeparatorTrials,
			Punts:           cst.QueryCorrections,
			FastCorrections: cst.FastCorrections,
			MaxDepth:        cst.MaxDepth,
		}
	default:
		return nil, fmt.Errorf("sepdc: unknown algorithm %q", algo)
	}
	if rec != nil {
		st.Report = rec.Finish(time.Since(start), cst.Counters())
	}
	return &Graph{
		k:     k,
		n:     ps.N(),
		lists: lists,
		csr:   knngraph.FromLists(lists, k),
		stats: st,
		rec:   rec,
	}, nil
}

func convert(points [][]float64) (*pts.PointSet, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	d := len(points[0])
	if d == 0 {
		return nil, fmt.Errorf("zero-dimensional points: %w", ErrDimensionMismatch)
	}
	ps := &pts.PointSet{Data: make([]float64, 0, len(points)*d), Dim: d}
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("point %d has dimension %d, want %d: %w", i, len(p), d, ErrDimensionMismatch)
		}
		for c, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("point %d coordinate %d is %v: %w", i, c, x, ErrNonFiniteCoordinate)
			}
		}
		ps.Data = append(ps.Data, p...)
	}
	return ps, nil
}

// NumPoints returns the number of vertices.
func (g *Graph) NumPoints() int { return g.n }

// K returns the k the graph was built with.
func (g *Graph) K() int { return g.k }

// Stats returns construction statistics.
func (g *Graph) Stats() Stats { return g.stats }

// WriteTrace writes the build's spans as Chrome trace_event JSON, loadable
// in chrome://tracing or Perfetto. It errors unless the graph was built
// with Options.Trace.
func (g *Graph) WriteTrace(w io.Writer) error {
	if g.rec == nil {
		return errors.New("sepdc: graph was not built with Options.Trace")
	}
	return g.rec.WriteTrace(w)
}

// Neighbors returns point i's k nearest neighbors in ascending (distance,
// index) order. For point sets with at most k points the list is shorter.
func (g *Graph) Neighbors(i int) []Neighbor {
	items := g.lists[i].Items()
	out := make([]Neighbor, len(items))
	for j, nb := range items {
		out[j] = Neighbor{Index: nb.Idx, Distance: math.Sqrt(nb.Dist2)}
	}
	return out
}

// NeighborsBatch answers Neighbors for every vertex in indices in one
// call, fanning the materialization across the worker pool. A nil
// indices slice selects every vertex. Row j equals Neighbors(indices[j])
// element for element; all rows share one backing array, so a batch of m
// lookups costs two allocations instead of m. Vertices out of range are
// rejected before any work starts.
func (g *Graph) NeighborsBatch(indices []int) ([][]Neighbor, error) {
	if indices == nil {
		indices = make([]int, g.n)
		for i := range indices {
			indices[i] = i
		}
	}
	out := make([][]Neighbor, len(indices))
	if len(indices) == 0 {
		return out, nil
	}
	// Carve the per-row windows serially (prefix sums of list lengths),
	// then fill them in parallel — each row touches a disjoint window of
	// the shared backing array, so the fan-out needs no synchronization
	// beyond the range barrier.
	total := 0
	for _, i := range indices {
		if i < 0 || i >= g.n {
			return nil, fmt.Errorf("sepdc: vertex %d out of range [0,%d)", i, g.n)
		}
		total += g.lists[i].Len()
	}
	backing := make([]Neighbor, total)
	off := 0
	for j, i := range indices {
		n := g.lists[i].Len()
		out[j] = backing[off : off+n : off+n]
		off += n
	}
	pool.Shared().ParallelRange(len(indices), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := out[j]
			for m, nb := range g.lists[indices[j]].Items() {
				row[m] = Neighbor{Index: nb.Idx, Distance: math.Sqrt(nb.Dist2)}
			}
		}
	})
	return out, nil
}

// Adjacency returns the sorted undirected adjacency list of vertex i per
// Definition 1.1 (the union of in- and out-neighbors).
func (g *Graph) Adjacency(i int) []int {
	row := g.csr.Neighbors(i)
	out := make([]int, len(row))
	for j, v := range row {
		out[j] = int(v)
	}
	return out
}

// HasEdge reports whether {i, j} is an edge of the graph.
func (g *Graph) HasEdge(i, j int) bool { return g.csr.HasEdge(i, j) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.csr.NumEdges() }

// Degree returns the undirected degree of vertex i.
func (g *Graph) Degree(i int) int { return g.csr.Degree(i) }

// Components returns a component label per vertex and the component count.
func (g *Graph) Components() ([]int, int) { return g.csr.Components() }

// Equal reports whether two graphs have identical edge sets.
func Equal(a, b *Graph) bool { return knngraph.Equal(a.csr, b.csr) }
