package sepdc

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"sepdc/internal/chaos"
)

// TestCancelBeforeStart: an already-cancelled context aborts every
// algorithm before any work happens.
func TestCancelBeforeStart(t *testing.T) {
	points := genPoints(100, 2, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algorithm{Sphere, Hyperplane, KDTree, Brute} {
		if _, err := BuildKNNGraphContext(ctx, points, 2, &Options{Algorithm: algo}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", algo, err)
		}
	}
	if _, err := NewQueryStructureContext(ctx, points, 2, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("NewQueryStructureContext: err = %v, want context.Canceled", err)
	}
}

// TestCancelMidBuildPrompt is the acceptance test for prompt cancellation:
// a build held back by chaos worker stalls and forced punts (the slowest
// path the engine has) must return context.Canceled within 100ms of the
// cancel signal. The cancel lands as the first worker stall begins, and
// that worker waits for it: its task belongs to a fork of the separator
// recursion, which waits for the task, so the build is certainly still
// running.
func TestCancelMidBuildPrompt(t *testing.T) {
	points := genPoints(3000, 3, 21)
	inj := &chaos.Injector{
		SepFailTrials: chaos.AllTrials,
		PuntDepths:    chaos.DepthSet{All: true},
		WorkerStall:   2 * time.Millisecond,
	}
	for _, algo := range []Algorithm{Sphere, Hyperplane} {
		t.Run(string(algo), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			type outcome struct {
				err     error
				latency time.Duration
			}
			var cancelled time.Time
			stalled := make(chan struct{})
			var once sync.Once
			beforeStall = func() { once.Do(func() { close(stalled); <-ctx.Done() }) }
			defer func() { beforeStall = nil }()
			done := make(chan outcome, 1)
			go func() {
				_, err := BuildKNNGraphContext(ctx, points, 4, &Options{
					Algorithm: algo, Seed: 21, Workers: 4, chaos: inj,
				})
				done <- outcome{err: err, latency: time.Since(cancelled)}
			}()

			select {
			case <-stalled:
			case out := <-done:
				t.Fatalf("build returned (err = %v) before any worker stalled", out.err)
			}
			cancelled = time.Now()
			cancel()

			select {
			case out := <-done:
				if !errors.Is(out.err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", out.err)
				}
				if out.latency > 100*time.Millisecond {
					t.Fatalf("build took %v after cancel, want <= 100ms", out.latency)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("build did not return within 5s of cancellation")
			}
		})
	}
}

// TestCancelDeadline: a context deadline surfaces as DeadlineExceeded from
// a chaos-slowed build.
func TestCancelDeadline(t *testing.T) {
	points := genPoints(3000, 3, 23)
	inj := &chaos.Injector{
		SepFailTrials: chaos.AllTrials,
		PuntDepths:    chaos.DepthSet{All: true},
		WorkerStall:   2 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err := BuildKNNGraphContext(ctx, points, 4, &Options{
		Algorithm: Sphere, Seed: 23, Workers: 4, chaos: inj,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestContextBuildMatchesPlainBuild: threading a live context through the
// build changes nothing about the result.
func TestContextBuildMatchesPlainBuild(t *testing.T) {
	points := genPoints(300, 2, 5)
	for _, algo := range []Algorithm{Sphere, Hyperplane} {
		plain, err := BuildKNNGraph(points, 3, &Options{Algorithm: algo, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		ctxed, err := BuildKNNGraphContext(context.Background(), points, 3, &Options{Algorithm: algo, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(plain, ctxed) {
			t.Fatalf("%s: context build differs from plain build", algo)
		}
	}
}

// TestQueryStructureContextCancel: the query-side structure build observes
// cancellation too (it is the punt path's inner engine, so this also
// pins down the behavior queryCorrect depends on).
func TestQueryStructureContextCancel(t *testing.T) {
	points := genPoints(2000, 3, 31)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := NewQueryStructureContext(ctx, points, 4, 31)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("build did not return within 5s of cancellation")
	}

	// And a pre-cancelled context never builds at all.
	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := NewQueryStructureContext(pre, points, 4, 31); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
}

// TestQueryStructureParallelBuildReturns drives a query-structure build
// large enough that the separator tree forks onto the worker pool
// through each of its exits: success, a deadline and a cancel once the
// separator tree has started. The cancelled build must return
// context.Canceled well before the tree would have been finished, and
// after every exit the goroutine count must come back to where it was,
// so the build's worker pool is always closed.
func TestQueryStructureParallelBuildReturns(t *testing.T) {
	points := genPoints(20000, 2, 33)
	// A first build creates whatever process-wide pools the build uses,
	// so the baseline below counts them.
	if _, err := NewQueryStructure(points, 4, 33); err != nil {
		t.Fatal(err)
	}
	base := goroutineBase()
	settled := func(exit string) { t.Helper(); waitGoroutines(t, base, exit) }

	// whole is the fastest of three builds, so a slow run on a busy host
	// cannot shrink the deadline below what a build needs.
	whole := time.Duration(math.MaxInt64)
	for range 3 {
		start := time.Now()
		if _, err := NewQueryStructureContext(context.Background(), points, 4, 33); err != nil {
			t.Fatal(err)
		}
		whole = min(whole, time.Since(start))
		settled("success")
	}

	ctx, cancel := context.WithTimeout(context.Background(), whole/4)
	_, err := NewQueryStructureContext(ctx, points, 4, 33)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline at a quarter of a build: err = %v, want context.DeadlineExceeded", err)
	}
	settled("deadline")

	// The cancel waits for the k-NN radii, which do not poll the
	// context, so it lands as the separator tree's recursion, which
	// does, starts.
	radiiReady := make(chan struct{})
	afterRadii = func() { close(radiiReady) }
	defer func() { afterRadii = nil }()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := NewQueryStructureContext(ctx, points, 4, 33)
		done <- err
	}()
	select {
	case <-radiiReady:
	case err := <-done:
		t.Fatalf("build returned (err = %v) before its separator tree started", err)
	}
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel in the separator tree: err = %v, want context.Canceled", err)
		}
		if lat := time.Since(cancelled); lat > whole/4 {
			t.Fatalf("build took %v after cancel, more than a quarter of a build (%v)", lat, whole/4)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("build did not return within 5s of cancellation")
	}
	settled("cancel")
}

// goroutineBase returns the goroutine count once a collection has run
// the cleanup of any unreferenced machine, closing its pool, and the
// workers of closed pools have exited. Without the collection a leaked
// pool from an earlier build would count in the baseline and hide a
// leak from the next one.
func goroutineBase() int {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	return runtime.NumGoroutine()
}

// waitGoroutines waits up to 5 s for the goroutine count to fall back
// to base, failing the test if it does not.
func waitGoroutines(t *testing.T, base int, exit string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, %d before the build", exit, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBuildKNNGraphClosesMachine checks that a separator build's worker
// pool is closed when BuildKNNGraph returns, rather than left parked
// until a garbage collection reclaims it.
func TestBuildKNNGraphClosesMachine(t *testing.T) {
	points := genPoints(3000, 2, 34)
	// As above, a first build creates the process-wide pools.
	if _, err := BuildKNNGraph(points, 4, &Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	base := goroutineBase()
	if _, err := BuildKNNGraph(points, 4, &Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "BuildKNNGraph")
}
