// Package pool provides the persistent, size-bounded worker pool behind
// the library's real parallelism. The seed implementation spawned a fresh
// goroutine for every vector operation and every recursion fork; for the
// small vectors the divide and conquer produces near its leaves, goroutine
// spawn/park overhead dominated the arithmetic. A Pool starts its workers
// once and feeds them closures over a channel, so steady-state dispatch is
// one channel send — no stack allocation, no scheduler churn.
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
)

// Pool is a fixed set of persistent worker goroutines.
type Pool struct {
	tasks  chan func()
	stop   chan struct{}
	once   sync.Once
	size   int
	before func() // optional pre-task hook (chaos worker stall)
}

// New starts a pool of the given size. size <= 0 selects GOMAXPROCS.
// Workers park on the task channel until Close (or process exit).
func New(size int) *Pool { return NewHooked(size, nil) }

// NewHooked is New with a pre-task hook: workers run beforeTask (when
// non-nil) before every accepted task. This is the chaos layer's worker
// stall injection point — delaying accepted tasks shakes out ordering
// assumptions in fork-join code without touching any deterministic output.
// Inline fallbacks (TrySubmit returning false) are never hooked: the stall
// models a lagging worker, not a slow caller.
func NewHooked(size int, beforeTask func()) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan func()), stop: make(chan struct{}), size: size, before: beforeTask}
	for i := 0; i < size; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for {
		select {
		case <-p.stop:
			return
		case f := <-p.tasks:
			if p.before != nil {
				p.before()
			}
			f()
		}
	}
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

// TrySubmit offers f to an idle worker. It never blocks: when no worker
// can take the task immediately it returns false and the caller must run f
// itself. The unbuffered task channel makes "accepted" mean "a worker is
// executing it now", which keeps real parallelism ≤ Size.
func (p *Pool) TrySubmit(f func()) bool {
	select {
	case p.tasks <- f:
		return true
	default:
		return false
	}
}

// Close stops the workers. Tasks already accepted finish; Close does not
// wait for them. Safe to call multiple times and safe to race with
// TrySubmit (submissions after Close may still be accepted by a worker
// that has not yet observed the stop signal, or will return false).
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
		workers = p.size
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
// first use, never closed). Package scan's parallel primitives use it so
// that repeated scans reuse one set of goroutines.
func Shared() *Pool {
	sharedOnce.Do(func() { shared = New(0) })
	return shared
}
