// Package pool provides the persistent, size-bounded worker pool behind
// the library's real parallelism. The seed implementation spawned a fresh
// goroutine for every vector operation and every recursion fork; for the
// small vectors the divide and conquer produces near its leaves, goroutine
// spawn/park overhead dominated the arithmetic. A Pool starts its workers
// once and feeds them closures, so steady-state dispatch allocates nothing
// and spawns nothing.
//
// A worker that finishes a task spins for a short window (spinWindow)
// before it parks: it polls its own handoff slot, yielding the processor
// between polls, and a submitter that finds it spinning hands the task
// over through the slot with two atomic operations. Only once the window
// has passed does the worker park on the task channel, where a submission
// costs a scheduler wake-up. Back-to-back fork-joins, such as consecutive
// batched query passes, therefore start their second strand at once.
//
// Submission is non-blocking by design: TrySubmit hands a task to an idle
// worker if one can accept it immediately and reports false otherwise, in
// which case the caller runs the task inline. That rule makes nested
// fork-join (a worker submitting to its own pool) deadlock-free — when all
// workers are busy, recursion degrades gracefully to inline execution,
// which is exactly the bounded-parallelism semantics the simulated vector
// machine (package vm) wants.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinWindow is how long a worker polls its handoff slot after a task
// before it parks. A submission to a parked worker waits for a scheduler
// wake-up: on a 2-vCPU Xeon VM, BenchmarkPoolHandoff read 64–76 µs a
// handoff to a parked worker and 0.5–2 µs to a spinning one, against
// about 200 µs for a whole 512-query pass (n=10⁵, d=2). Back-to-back
// passes there took a median 170 µs with no spin and 105–123 µs with
// windows of 10 to 100 µs, alike within the noise. 50 µs also covers
// what a caller does between passes, such as checking the last pass's
// answers (94% of the second strands of perfbench's query passes went
// through a slot), and an idle worker still parks within 50 µs.
const spinWindow = 50 * time.Microsecond

// spinClockEvery is how many slot polls pass between two clock reads. A
// poll with its Gosched costs about 140 ns and a clock read 70–85 ns on
// that VM, so the reads add about 2% and the window ends at most about
// 5 µs late.
const spinClockEvery = 32

// The states of a worker's handoff slot.
const (
	// parked: the worker is running a task or blocked on the task
	// channel, so the slot takes nothing.
	parked int32 = iota
	// spinning: the worker polls the slot; a submitter may claim it.
	spinning
	// claimed: a submitter won the slot and is storing its task.
	claimed
	// ready: the task is in the slot for the worker to take.
	ready
)

// slot is one worker's handoff slot. task is written by the submitter
// that claimed the slot, before it stores ready, and read and cleared by
// the worker after it loads ready. Padded so two workers' polls never
// share a cache line.
type slot struct {
	state atomic.Int32
	task  func()
	_     [48]byte
}

// Pool is a fixed set of persistent worker goroutines.
type Pool struct {
	tasks  chan func()
	stop   chan struct{}
	once   sync.Once
	slots  []slot // one per worker
	before func() // optional pre-task hook (chaos worker stall)
}

// New starts a pool of the given size. size <= 0 selects GOMAXPROCS.
// Workers spin briefly after each task, then park on the task channel
// until Close (or process exit).
func New(size int) *Pool { return NewHooked(size, nil) }

// NewHooked is New with a pre-task hook: workers run beforeTask (when
// non-nil) before every accepted task, whether it came through the task
// channel or a spinning worker's handoff slot. This is the chaos layer's
// worker stall injection point — delaying accepted tasks shakes out
// ordering assumptions in fork-join code without touching any
// deterministic output. Inline fallbacks (TrySubmit returning false) are
// never hooked: the stall models a lagging worker, not a slow caller.
func NewHooked(size int, beforeTask func()) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan func()), stop: make(chan struct{}), slots: make([]slot, size), before: beforeTask}
	for i := range p.slots {
		go p.worker(&p.slots[i])
	}
	return p
}

func (p *Pool) worker(s *slot) {
	for {
		select {
		case <-p.stop:
			return
		case f := <-p.tasks:
			p.run(f)
		}
		// With one processor a spinning worker could only take a task
		// its submitter yields to it, so it parks at once.
		for runtime.GOMAXPROCS(0) > 1 {
			f := p.spin(s)
			if f == nil {
				break
			}
			p.run(f)
		}
	}
}

func (p *Pool) run(f func()) {
	if p.before != nil {
		p.before()
	}
	f()
}

// spin opens s for handoffs and polls it for spinWindow. It returns the
// task a submitter handed over, or nil once the window has passed or
// the pool is closed, with s parked again. Gosched between polls keeps
// the spinning worker from holding a processor that runnable goroutines
// need.
func (p *Pool) spin(s *slot) func() {
	s.state.Store(spinning)
	deadline := time.Now().Add(spinWindow)
	for polls := 1; ; polls++ {
		if s.state.Load() == ready {
			f := s.task
			s.task = nil
			s.state.Store(parked)
			return f
		}
		// A failed CAS means a submitter has claimed the slot, so its
		// task is on the way and the poll goes on until it is ready.
		if polls%spinClockEvery == 0 && (p.closed() || time.Now().After(deadline)) &&
			s.state.CompareAndSwap(spinning, parked) {
			return nil
		}
		runtime.Gosched()
	}
}

func (p *Pool) closed() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.slots) }

// TrySubmit offers f to an idle worker. It never blocks: when no worker
// can take the task immediately it returns false and the caller must run f
// itself. A spinning worker's slot is tried first, then the unbuffered
// task channel, which a worker only receives on while parked; either way
// "accepted" means "a worker is executing it now", which keeps real
// parallelism ≤ Size.
func (p *Pool) TrySubmit(f func()) bool {
	if p.handOff(f) {
		return true
	}
	select {
	case p.tasks <- f:
		return true
	default:
		return false
	}
}

// handOff gives f to a spinning worker through its slot, reporting
// whether one took it.
func (p *Pool) handOff(f func()) bool {
	for i := range p.slots {
		s := &p.slots[i]
		if s.state.Load() == spinning && s.state.CompareAndSwap(spinning, claimed) {
			s.task = f
			s.state.Store(ready)
			return true
		}
	}
	return false
}

// Close stops the workers. Tasks already accepted finish; Close does not
// wait for them. A spinning worker sees the stop within a few polls.
// Safe to call multiple times and safe to race with TrySubmit
// (submissions after Close may still be accepted by a worker that has not
// yet observed the stop signal, or will return false).
func (p *Pool) Close() { p.once.Do(func() { close(p.stop) }) }

// Run executes fns with pool parallelism and waits for all of them:
// each fn is offered to a worker and run inline when none is free.
func (p *Pool) Run(fns ...func()) {
	if len(fns) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, f := range fns[:len(fns)-1] {
		f := f
		wg.Add(1)
		task := func() { defer wg.Done(); f() }
		if !p.TrySubmit(task) {
			task()
		}
	}
	fns[len(fns)-1]() // the submitting strand always contributes
	wg.Wait()
}

// ParallelRange splits [0, n) into one contiguous chunk per worker (at
// most Size+1 chunks, the +1 being the caller's own strand) and runs
// fn(lo, hi) on each. It waits for completion. fn must be safe to call
// concurrently on disjoint ranges. When the pool is nil or n is small the
// whole range runs inline on the caller.
func (p *Pool) ParallelRange(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := 1
	if p != nil {
		workers = p.Size()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		lo, hi := lo, lo+chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		task := func() { defer wg.Done(); fn(lo, hi) }
		if !p.TrySubmit(task) {
			task()
		}
	}
	fn(0, chunk) // first chunk inline on the caller's strand
	wg.Wait()
}

var (
	sharedOnce sync.Once
	shared     *Pool
)

// Shared returns the process-wide pool (GOMAXPROCS workers, created on
// first use, never closed). The batched query engine and the graph's
// parallel materialization use it, so repeated passes reuse one set of
// goroutines.
func Shared() *Pool {
	sharedOnce.Do(func() { shared = New(0) })
	return shared
}
