package sepdc

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"sepdc/internal/chaos"
	"sepdc/internal/nbrsys"
	"sepdc/internal/separator"
	"sepdc/internal/septree"
	"sepdc/internal/xrand"
)

// queryPoints returns a mix of stored points and fresh uniform points —
// queries exercising both the boundary-heavy and the generic paths.
func queryPoints(points [][]float64, n int, seed uint64) [][]float64 {
	g := xrand.New(seed)
	d := len(points[0])
	out := make([][]float64, n)
	for i := range out {
		if i%3 == 0 {
			out[i] = points[g.IntN(len(points))]
		} else {
			out[i] = g.InCube(d)
		}
	}
	return out
}

// TestGoldenCoveringBallsBatch is the serving-path golden contract under
// every chaos profile: with KNN_CHAOS rerouting the structure build onto
// its punt/fallback paths, the batched answers — both the copying
// CoveringBallsBatch and the zero-alloc Batcher — must stay element-for-
// element identical to sequential CoveringBalls.
func TestGoldenCoveringBallsBatch(t *testing.T) {
	const n, d, k, seed = 500, 3, 3, 13
	points := genPoints(n, d, seed)
	queries := queryPoints(points, 200, 57)

	profiles := map[string]string{"clean": ""}
	for name, spec := range chaosSpecs {
		profiles[name] = spec
	}
	for name, spec := range profiles {
		t.Run(name, func(t *testing.T) {
			if spec != "" {
				t.Setenv("KNN_CHAOS", spec)
			}
			qs, err := NewQueryStructure(points, k, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]int, len(queries))
			for i, q := range queries {
				want[i], err = qs.CoveringBalls(q)
				if err != nil {
					t.Fatalf("sequential query %d: %v", i, err)
				}
			}
			got, err := qs.CoveringBallsBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				if !sameInts(got[i], want[i]) {
					t.Fatalf("CoveringBallsBatch query %d: %v, sequential %v", i, got[i], want[i])
				}
			}
			bt := qs.NewBatcher(3)
			if err := bt.Run(queries); err != nil {
				t.Fatal(err)
			}
			if bt.Len() != len(queries) {
				t.Fatalf("Batcher.Len = %d, want %d", bt.Len(), len(queries))
			}
			for i := range queries {
				if !sameInts(bt.Result(i), want[i]) {
					t.Fatalf("Batcher query %d: %v, sequential %v", i, bt.Result(i), want[i])
				}
			}
			st := bt.Stats()
			if st.Batches != 1 || st.Queries != int64(len(queries)) || st.Latency.Count != 1 {
				t.Fatalf("Batcher stats not populated: %+v", st)
			}
		})
	}
}

// TestParallelQueryStructureIdentical builds a query structure large
// enough that its separator tree forks onto the worker pool and requires
// it to equal a sequential build of the same system under the same
// KNN_CHAOS spec: the same statistics, simulated cost included, and for
// every query the same descent path and the same answer. Under `make
// chaos` the stall profile delays the forked subtrees, so they finish in
// another order.
func TestParallelQueryStructureIdentical(t *testing.T) {
	const n, k, seed = 12000, 4, 71
	points := genPoints(n, 2, seed)
	qs, err := NewQueryStructure(points, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	var opts *septree.Options
	if inj != nil {
		opts = &septree.Options{Sep: &separator.Options{Chaos: inj}}
	}
	ps, err := convert(points)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := septree.Build(nbrsys.KNeighborhoodFlat(ps, k, nil), xrand.New(seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := qs.frozen.Stats(), ref.Stats(); got != want || qs.frozen.NumNodes() != ref.NumNodes() {
		t.Fatalf("parallel build: %d nodes, %+v; sequential: %d nodes, %+v",
			qs.frozen.NumNodes(), got, ref.NumNodes(), want)
	}
	var gotP, wantP septree.Probe
	for i, q := range queryPoints(points, 1000, seed) {
		gotP.Path, wantP.Path = gotP.Path[:0], wantP.Path[:0]
		got, _, _ := qs.frozen.Query(q, nil, false, &gotP)
		want, _, _ := ref.Query(q, nil, false, &wantP)
		if gotP.Leaf != wantP.Leaf || !slices.Equal(gotP.Path, wantP.Path) {
			t.Fatalf("query %d: descent %v in parallel, %v sequential", i, gotP.Path, wantP.Path)
		}
		if !sameInts(got, want) {
			t.Fatalf("query %d: covering %v in parallel, %v sequential", i, got, want)
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCoveringBallsValidation checks the typed-sentinel contract on every
// query entry point: dimension mismatches and non-finite coordinates are
// rejected with errors wrapping the library sentinels, and a bad query
// anywhere in a batch rejects the whole batch.
func TestCoveringBallsValidation(t *testing.T) {
	qs, err := NewQueryStructure(genPoints(60, 2, 3), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		q    []float64
		want error
	}{
		{[]float64{1}, ErrDimensionMismatch},
		{[]float64{1, 2, 3}, ErrDimensionMismatch},
		{nil, ErrDimensionMismatch},
		{[]float64{math.NaN(), 0}, ErrNonFiniteCoordinate},
		{[]float64{0, math.Inf(1)}, ErrNonFiniteCoordinate},
		{[]float64{math.Inf(-1), 0}, ErrNonFiniteCoordinate},
	}
	bt := qs.NewBatcher(2)
	for _, tc := range bad {
		if _, err := qs.CoveringBalls(tc.q); !errors.Is(err, tc.want) {
			t.Errorf("CoveringBalls(%v): err = %v, want %v", tc.q, err, tc.want)
		}
		batch := [][]float64{{0.5, 0.5}, tc.q}
		if _, err := qs.CoveringBallsBatch(batch); !errors.Is(err, tc.want) {
			t.Errorf("CoveringBallsBatch with %v: err = %v, want %v", tc.q, err, tc.want)
		}
		if err := bt.Run(batch); !errors.Is(err, tc.want) {
			t.Errorf("Batcher.Run with %v: err = %v, want %v", tc.q, err, tc.want)
		}
	}
	// Good queries still work after rejections.
	if _, err := qs.CoveringBalls([]float64{0.5, 0.5}); err != nil {
		t.Fatalf("valid query after rejections: %v", err)
	}
}

// TestBatcherZeroAllocSteadyState is the acceptance criterion's tier-1
// zero-alloc assertion at the public API: once warm, Batcher.Run performs
// zero heap allocations per batch, at one strand and at several.
func TestBatcherZeroAllocSteadyState(t *testing.T) {
	points := genPoints(1500, 2, 5)
	qs, err := NewQueryStructure(points, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	queries := queryPoints(points, 256, 19)
	for _, workers := range []int{1, 4} {
		bt := qs.NewBatcher(workers)
		for warm := 0; warm < 3; warm++ {
			if err := bt.Run(queries); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(50, func() { bt.Run(queries) }); avg != 0 {
			t.Fatalf("workers=%d: %v allocs per steady-state Run, want 0", workers, avg)
		}
		// The zero-alloc contract must survive an attached observer: the
		// sampled timed path records into preallocated shards.
		obsv := NewServeObserver(fmt.Sprintf("alloc-test-%d", workers), ServeObserverConfig{SampleEvery: 4})
		defer obsv.Close()
		bt.Observe(obsv)
		for warm := 0; warm < 3; warm++ {
			if err := bt.Run(queries); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(50, func() { bt.Run(queries) }); avg != 0 {
			t.Fatalf("workers=%d: %v allocs per instrumented steady-state Run, want 0", workers, avg)
		}
	}
}

// TestBatcherObserverGoldenIdentity: an observer timing every query must
// not change a single answer relative to an unobserved Batcher.
func TestBatcherObserverGoldenIdentity(t *testing.T) {
	points := genPoints(1000, 3, 27)
	qs, err := NewQueryStructure(points, 3, 27)
	if err != nil {
		t.Fatal(err)
	}
	queries := queryPoints(points, 300, 29)
	plain := qs.NewBatcher(2)
	observed := qs.NewBatcher(2)
	obsv := NewServeObserver("golden-test", ServeObserverConfig{SampleEvery: 1})
	defer obsv.Close()
	observed.Observe(obsv)
	if err := plain.Run(queries); err != nil {
		t.Fatal(err)
	}
	if err := observed.Run(queries); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if !sameInts(plain.Result(i), observed.Result(i)) {
			t.Fatalf("query %d: observed %v != plain %v", i, observed.Result(i), plain.Result(i))
		}
	}
	snap := obsv.Snapshot()
	if snap.Queries != int64(len(queries)) || snap.Sampled != snap.Queries {
		t.Fatalf("snapshot counts = %d/%d, want %d timed queries", snap.Sampled, snap.Queries, len(queries))
	}
	if snap.Window.P50 <= 0 || snap.Window.P999 < snap.Window.P50 {
		t.Fatalf("window quantiles implausible: %+v", snap.Window)
	}
	if len(snap.Tail) == 0 {
		t.Fatal("no tail samples")
	}
}

// TestQueryStructureAudit: the public audit entry point must pass on a
// well-formed structure and validate its probes.
func TestQueryStructureAudit(t *testing.T) {
	points := genPoints(2000, 2, 31)
	qs, err := NewQueryStructure(points, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := qs.Audit(queryPoints(points, 200, 33))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("audit failed on uniform points: %+v", rep.Checks)
	}
	if rep.K != 4 || rep.N != len(points) || rep.D != 2 {
		t.Fatalf("report identity = n=%d d=%d k=%d", rep.N, rep.D, rep.K)
	}
	if _, err := qs.Audit([][]float64{{1.0}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("bad probe accepted: %v", err)
	}
}

// TestBatchServingStress hammers the serving surface from many goroutines
// under -race: per-goroutine Batchers and the shared (mutex-guarded)
// CoveringBallsBatch engine run concurrently over one QueryStructure and
// must keep agreeing with the precomputed sequential answers.
func TestBatchServingStress(t *testing.T) {
	points := genPoints(800, 3, 11)
	qs, err := NewQueryStructure(points, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	queries := queryPoints(points, 160, 83)
	want := make([][]int, len(queries))
	for i, q := range queries {
		want[i], err = qs.CoveringBalls(q)
		if err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, reps = 6, 5
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			check := func(got []int, i int, path string) error {
				if !sameInts(got, want[i]) {
					return fmt.Errorf("goroutine %d %s query %d: %v, want %v", gi, path, i, got, want[i])
				}
				return nil
			}
			if gi%2 == 0 {
				bt := qs.NewBatcher(2)
				for rep := 0; rep < reps; rep++ {
					if err := bt.Run(queries); err != nil {
						errc <- err
						return
					}
					for i := range queries {
						if err := check(bt.Result(i), i, "batcher"); err != nil {
							errc <- err
							return
						}
					}
				}
			} else {
				for rep := 0; rep < reps; rep++ {
					rows, err := qs.CoveringBallsBatch(queries)
					if err != nil {
						errc <- err
						return
					}
					for i := range queries {
						if err := check(rows[i], i, "shared"); err != nil {
							errc <- err
							return
						}
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestNeighborsBatch checks the graph-side batched accessor: row-for-row
// agreement with Neighbors, the nil-selects-all form, and range
// validation.
func TestNeighborsBatch(t *testing.T) {
	points := genPoints(300, 2, 17)
	g, err := BuildKNNGraph(points, 4, &Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 7, 7, len(points) - 1, 3}
	rows, err := g.NeighborsBatch(idx)
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range idx {
		want := g.Neighbors(i)
		if len(rows[j]) != len(want) {
			t.Fatalf("row %d: %d neighbors, want %d", j, len(rows[j]), len(want))
		}
		for m := range want {
			if rows[j][m] != want[m] {
				t.Fatalf("row %d entry %d: %+v, want %+v", j, m, rows[j][m], want[m])
			}
		}
	}
	all, err := g.NeighborsBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != g.NumPoints() {
		t.Fatalf("nil selection returned %d rows, want %d", len(all), g.NumPoints())
	}
	for i := range all {
		want := g.Neighbors(i)
		if len(all[i]) != len(want) || (len(want) > 0 && all[i][0] != want[0]) {
			t.Fatalf("nil-selection row %d disagrees with Neighbors", i)
		}
	}
	if _, err := g.NeighborsBatch([]int{0, -1}); err == nil {
		t.Fatal("negative vertex accepted")
	}
	if _, err := g.NeighborsBatch([]int{g.NumPoints()}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	empty, err := g.NeighborsBatch([]int{})
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty selection: %v, %d rows", err, len(empty))
	}
}
