package pool

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesAll(t *testing.T) {
	p := New(4)
	defer p.Close()
	var count atomic.Int64
	fns := make([]func(), 100)
	for i := range fns {
		fns[i] = func() { count.Add(1) }
	}
	p.Run(fns...)
	if count.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", count.Load())
	}
}

func TestParallelRangeCovers(t *testing.T) {
	p := New(3)
	defer p.Close()
	for _, n := range []int{0, 1, 2, 7, 1000} {
		seen := make([]atomic.Bool, n)
		p.ParallelRange(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if seen[i].Swap(true) {
					t.Errorf("index %d visited twice", i)
				}
			}
		})
		for i := range seen {
			if !seen[i].Load() {
				t.Fatalf("n=%d: index %d not visited", n, i)
			}
		}
	}
}

func TestNilPoolParallelRangeRunsInline(t *testing.T) {
	var p *Pool
	total := 0
	p.ParallelRange(10, func(lo, hi int) { total += hi - lo })
	if total != 10 {
		t.Fatalf("covered %d, want 10", total)
	}
}

// TestNestedRunNoDeadlock is the regression test for the non-blocking
// submit rule: fork-join recursion from inside workers must complete even
// when the recursion is much deeper than the worker count.
func TestNestedRunNoDeadlock(t *testing.T) {
	p := New(2)
	defer p.Close()
	var leaves atomic.Int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		p.Run(func() { rec(depth - 1) }, func() { rec(depth - 1) })
	}
	rec(10)
	if leaves.Load() != 1024 {
		t.Fatalf("reached %d leaves, want 1024", leaves.Load())
	}
}

// TestSoakConcurrentUse hammers one pool from many goroutines; run under
// -race this is the worker-pool soak the persistent-pool change requires.
func TestSoakConcurrentUse(t *testing.T) {
	p := New(runtime.GOMAXPROCS(0))
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				sum := make([]int64, 64)
				p.ParallelRange(len(sum), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						sum[i] = int64(i)
					}
				})
				var s int64
				for _, x := range sum {
					s += x
				}
				total.Add(s)
			}
		}()
	}
	wg.Wait()
	if want := int64(8 * 200 * (63 * 64 / 2)); total.Load() != want {
		t.Fatalf("total %d, want %d", total.Load(), want)
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := New(1)
	p.Close()
	p.Close()
	// After close, TrySubmit must not panic; it may or may not accept.
	p.TrySubmit(func() {})
}

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test, so workers spin.
func atLeastTwoProcs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// submit offers f until a worker accepts it.
func submit(p *Pool, f func()) {
	for !p.TrySubmit(f) {
		runtime.Gosched()
	}
}

// spinUp runs task on p and returns once some worker is seen spinning
// after it. Workers spin for only spinWindow, so a missed window is
// retried with the task again.
func spinUp(t *testing.T, p *Pool, task func()) {
	t.Helper()
	for range 1000 {
		submit(p, task)
		for end := time.Now().Add(time.Millisecond); time.Now().Before(end); {
			for i := range p.slots {
				if p.slots[i].state.Load() == spinning {
					return
				}
			}
		}
	}
	t.Fatal("no worker was seen spinning after 1000 tasks")
}

// allParked reports whether every slot is parked and empty. Between
// tasks, that means every worker is blocked on the task channel.
func allParked(p *Pool) bool {
	for i := range p.slots {
		if p.slots[i].state.Load() != parked {
			return false
		}
	}
	return true
}

// waitParked waits up to 5 s for every worker to park and returns how
// long that took.
func waitParked(t *testing.T, p *Pool) time.Duration {
	t.Helper()
	start := time.Now()
	for !allParked(p) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("workers still not parked 5 s after their last task")
		}
		runtime.Gosched()
	}
	return time.Since(start)
}

// TestTrySubmitRacesSpinDeadline submits from two goroutines at random
// gaps of up to twice the spin window, so submissions land on spinning
// workers, on workers whose window is running out and on parked ones.
// Every accepted task must run exactly once, rejected ones never, and no
// task may be left in a slot.
func TestTrySubmitRacesSpinDeadline(t *testing.T) {
	atLeastTwoProcs(t)
	p := New(2)
	defer p.Close()
	const submitters, perSubmitter = 2, 400
	var ran [submitters * perSubmitter]atomic.Int32
	var accepted [submitters * perSubmitter]bool
	var running sync.WaitGroup
	var subs sync.WaitGroup
	for s := range submitters {
		subs.Add(1)
		go func() {
			defer subs.Done()
			rng := rand.New(rand.NewPCG(uint64(s), 1))
			for j := range perSubmitter {
				id := s*perSubmitter + j
				gap := time.Duration(rng.Int64N(int64(2 * spinWindow)))
				for end := time.Now().Add(gap); time.Now().Before(end); {
				}
				running.Add(1)
				if accepted[id] = p.TrySubmit(func() { ran[id].Add(1); running.Done() }); !accepted[id] {
					running.Done()
				}
			}
		}()
	}
	subs.Wait()
	done := make(chan struct{})
	go func() { running.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("accepted tasks still unfinished after 5 s: one is stuck in a slot")
	}
	n := 0
	for id := range ran {
		want := int32(0)
		if accepted[id] {
			want, n = 1, n+1
		}
		if got := ran[id].Load(); got != want {
			t.Fatalf("task %d (accepted %v) ran %d times", id, accepted[id], got)
		}
	}
	if n == 0 {
		t.Fatal("no task was accepted")
	}
	waitParked(t, p)
	for i := range p.slots {
		if p.slots[i].task != nil {
			t.Fatalf("slot %d still holds a task", i)
		}
	}
}

// TestClaimOutlivesWindow plays a submitter that claims a spinning
// worker's slot and is held up past the window before storing its task:
// the worker must wait for the task rather than park and strand it.
func TestClaimOutlivesWindow(t *testing.T) {
	atLeastTwoProcs(t)
	p := New(1)
	defer p.Close()
	s := &p.slots[0]
	for !s.state.CompareAndSwap(spinning, claimed) {
		spinUp(t, p, func() {})
	}
	time.Sleep(20 * spinWindow)
	ran := make(chan struct{})
	s.task = func() { close(ran) }
	s.state.Store(ready)
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("a task stored after the window ran out was never run")
	}
}

// workerGoroutines counts the goroutines running a pool worker.
func workerGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "sepdc/internal/pool.(*Pool).worker(")
}

// TestCloseDuringSpin closes a pool while a worker spins: every worker
// goroutine must exit at once, not only after its window. Other tests
// close their pools too, so the count must fall to zero.
func TestCloseDuringSpin(t *testing.T) {
	atLeastTwoProcs(t)
	p := New(2)
	spinUp(t, p, func() {})
	p.Close()
	start := time.Now()
	for workerGoroutines() > 0 {
		if time.Since(start) > time.Second {
			t.Fatalf("%d worker goroutines still running 1 s after Close", workerGoroutines())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestNoSpinAtOneProc: with GOMAXPROCS=1 a worker parks right after its
// task, so the test goroutine, which shares the one processor with it,
// never sees a slot spinning.
func TestNoSpinAtOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := New(2)
	defer p.Close()
	for range 200 {
		var wg sync.WaitGroup
		wg.Add(1)
		submit(p, wg.Done)
		wg.Wait()
		for range 4 {
			runtime.Gosched()
			for i := range p.slots {
				if s := p.slots[i].state.Load(); s != parked {
					t.Fatalf("slot %d in state %d at GOMAXPROCS=1", i, s)
				}
			}
		}
	}
}

// TestHookRunsForSlotHandoffs: the pre-task hook (the chaos stall) runs
// before tasks handed over through a spinning worker's slot, not only
// before those sent on the channel.
func TestHookRunsForSlotHandoffs(t *testing.T) {
	atLeastTwoProcs(t)
	var hooked, tasks atomic.Int64
	p := NewHooked(1, func() { hooked.Add(1) })
	defer p.Close()
	slotted := 0
	for range 1000 {
		if slotted == 20 {
			break
		}
		spinUp(t, p, func() { tasks.Add(1) })
		var wg sync.WaitGroup
		wg.Add(1)
		if p.handOff(func() { tasks.Add(1); wg.Done() }) {
			slotted++
			wg.Wait()
		}
	}
	if slotted == 0 {
		t.Fatal("no task went through a slot")
	}
	waitParked(t, p)
	if hooked.Load() != tasks.Load() {
		t.Fatalf("hook ran %d times for %d tasks, %d of them handed over through a slot",
			hooked.Load(), tasks.Load(), slotted)
	}
}

// TestWorkersParkAfterWindow: once the spin window has passed after the
// last task, every worker is parked again. The median over 20 fork-joins
// must stay within 5 ms of the last task, a hundred windows, which only
// a spin that ignores its deadline exceeds; single trials may run late
// when the host deschedules the test.
func TestWorkersParkAfterWindow(t *testing.T) {
	atLeastTwoProcs(t)
	p := New(2)
	defer p.Close()
	waits := make([]time.Duration, 20)
	for i := range waits {
		p.Run(func() {}, func() {}, func() {})
		waits[i] = waitParked(t, p)
	}
	slices.Sort(waits)
	if med := waits[len(waits)/2]; med > 5*time.Millisecond {
		t.Fatalf("median wait for all workers to park %v, want <= 5ms (window %v); waits %v", med, spinWindow, waits)
	}
}

// BenchmarkPoolHandoff times one handoff round trip on a one-worker
// pool: submit a task, the worker runs it, the submitter sees it done.
// The submitter busy-waits without yielding, as a batched pass's first
// strand does while it answers its own queries, so a parked worker's
// wake-up is paid in full. Needs GOMAXPROCS >= 2 (go test -cpu 2).
func BenchmarkPoolHandoff(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs GOMAXPROCS >= 2: the submitter busy-waits")
	}
	p := New(1)
	defer p.Close()
	var done atomic.Bool
	task := func() { done.Store(true) }
	for b.Loop() {
		done.Store(false)
		for !p.TrySubmit(task) {
		}
		for !done.Load() {
		}
	}
}
