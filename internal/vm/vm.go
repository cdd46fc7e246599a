// Package vm simulates the parallel vector model (Blelloch) that the paper
// assumes: a machine whose primitive operations are whole-vector operations
// — elementwise arithmetic, permutation, pack, and crucially SCAN (prefix
// sum) — each costing one unit-time step regardless of vector length.
//
// The simulator does not interpret instructions. Instead, algorithm code
// performs its real Go computation and *charges* the machine for the vector
// primitives it conceptually executed:
//
//	ctx.Prim(n)        // one vector primitive over n elements
//	ctx.Fork(f, g)     // divide and conquer: time is max, work is sum
//
// A Ctx accumulates two quantities:
//
//	Steps — the critical-path length: the paper's "parallel time"
//	Work  — total element-operations: the paper's processor-time product
//
// Fork optionally executes branches on real goroutines (bounded by the
// machine's parallelism budget), so the same instrumented code serves both
// as a cost model and as an actual parallel implementation. Cost accounting
// is deterministic: it never depends on whether a branch ran inline or on a
// goroutine.
//
// Real parallelism comes from one persistent worker pool per Machine
// (package pool), created at NewMachine and reused across every Fork and
// ForkN of a run. The seed implementation spawned a fresh goroutine per
// fork; for the small subproblems near the recursion's leaves that
// spawn/park overhead dominated the arithmetic. A pool worker spins
// briefly after each task before it parks, so a fork that follows soon
// after reaches it without a scheduler wake-up. Submission to the pool is
// non-blocking — when every worker is busy the branch runs inline — so
// nested forks cannot deadlock and parallelism stays bounded.
package vm

import (
	"fmt"
	"runtime"
	"sync"

	"sepdc/internal/pool"
)

// Cost is the simulated complexity of a computation on the vector model.
type Cost struct {
	Steps int64 // critical-path unit-time vector operations ("parallel time")
	Work  int64 // total element-operations across all processors
}

// Add returns the cost of running c then d sequentially.
func (c Cost) Add(d Cost) Cost {
	return Cost{Steps: c.Steps + d.Steps, Work: c.Work + d.Work}
}

// ParMax returns the cost of running c and d in parallel: elapsed steps are
// the maximum, work adds.
func (c Cost) ParMax(d Cost) Cost {
	steps := c.Steps
	if d.Steps > steps {
		steps = d.Steps
	}
	return Cost{Steps: steps, Work: c.Work + d.Work}
}

func (c Cost) String() string {
	return fmt.Sprintf("steps=%d work=%d", c.Steps, c.Work)
}

// Machine bounds the real goroutine parallelism used by Fork. The cost
// accounting is identical for any bound, including 1 (fully sequential).
type Machine struct {
	pool    *pool.Pool // nil for the sequential executor
	workers int
}

// NewMachine returns a machine that runs at most workers branches
// concurrently on a persistent worker pool created here and reused for the
// machine's lifetime. workers <= 0 selects GOMAXPROCS; workers == 1 is the
// sequential executor (same code path, no goroutines), so Stats accounting
// is uniform across all worker counts. Abandoned machines release their
// pool goroutines via a GC cleanup; long-lived callers may Close instead.
func NewMachine(workers int) *Machine { return NewMachineHooked(workers, nil) }

// NewMachineHooked is NewMachine with a pre-task hook installed on the
// machine's worker pool — the chaos layer's worker-stall injection point.
// The hook runs before every pool-accepted fork branch; cost accounting is
// unaffected (it never depends on scheduling). A nil hook is NewMachine.
func NewMachineHooked(workers int, beforeTask func()) *Machine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := &Machine{workers: workers}
	if workers > 1 {
		m.pool = pool.NewHooked(workers, beforeTask)
		runtime.AddCleanup(m, func(p *pool.Pool) { p.Close() }, m.pool)
	}
	return m
}

// Sequential is a machine that never spawns goroutines; useful in tests and
// when the caller manages parallelism itself.
func Sequential() *Machine { return &Machine{workers: 1} }

// Workers returns the machine's parallelism bound (1 for Sequential).
func (m *Machine) Workers() int {
	if m == nil || m.workers == 0 {
		return 1
	}
	return m.workers
}

// Close releases the machine's worker pool. Optional: an unreferenced
// machine is cleaned up by the GC. The machine must not be used after.
func (m *Machine) Close() {
	if m.pool != nil {
		m.pool.Close()
	}
}

// Ctx accumulates simulated cost along one strand of execution. A Ctx is
// confined to a single goroutine; Fork creates independent child contexts
// for its branches and merges their costs afterwards.
type Ctx struct {
	m     *Machine
	steps int64
	work  int64
}

// NewCtx returns a fresh accounting context on m.
func (m *Machine) NewCtx() *Ctx { return &Ctx{m: m} }

// Prim charges one vector primitive over n elements: 1 step, n work.
// This is the cost of an elementwise op, a permute, a pack, or a SCAN in
// the paper's model. n must be non-negative.
func (c *Ctx) Prim(n int) {
	if n < 0 {
		panic("vm: negative primitive width")
	}
	c.steps++
	c.work += int64(n)
}

// PrimK charges k consecutive vector primitives over n elements each, e.g.
// the d coordinate-wise passes of a distance computation.
func (c *Ctx) PrimK(k, n int) {
	if n < 0 || k < 0 {
		panic("vm: negative primitive size")
	}
	c.steps += int64(k)
	c.work += int64(k) * int64(n)
}

// Charge adds an externally computed cost sequentially.
func (c *Ctx) Charge(cost Cost) {
	c.steps += cost.Steps
	c.work += cost.Work
}

// Cost returns the cost accumulated so far.
func (c *Ctx) Cost() Cost { return Cost{Steps: c.steps, Work: c.work} }

// Fork runs the branches conceptually in parallel: the caller's elapsed
// steps increase by the maximum branch steps and its work by the branch
// total. Branches execute on goroutines when the machine has spare
// parallelism budget, inline otherwise; accounting is unaffected by that
// choice.
func (c *Ctx) Fork(branches ...func(*Ctx)) {
	switch len(branches) {
	case 0:
		return
	case 1:
		// A single branch is just sequential composition.
		child := &Ctx{m: c.m}
		branches[0](child)
		c.Charge(child.Cost())
		return
	}
	children := make([]*Ctx, len(branches))
	var wg sync.WaitGroup
	for i, f := range branches {
		children[i] = &Ctx{m: c.m}
		if i == len(branches)-1 {
			// Run the last branch inline: the forking strand always has
			// work to do itself, and this bounds goroutine count.
			f(children[i])
			continue
		}
		if c.m != nil && c.m.pool != nil {
			i, f := i, f
			wg.Add(1)
			task := func() {
				defer wg.Done()
				f(children[i])
			}
			if c.m.pool.TrySubmit(task) {
				continue
			}
			// No idle worker: run inline (the task still balances wg).
			task()
			continue
		}
		f(children[i])
	}
	wg.Wait()
	merged := children[0].Cost()
	for _, ch := range children[1:] {
		merged = merged.ParMax(ch.Cost())
	}
	c.Charge(merged)
}

// ForkN runs fn(i) for i in [0, n) conceptually all in parallel (one
// processor group per item): steps increase by the maximum item cost, work
// by the total. Execution is chunked over the machine's budget.
func (c *Ctx) ForkN(n int, fn func(i int, ctx *Ctx)) {
	if n <= 0 {
		return
	}
	children := make([]*Ctx, n)
	if c.m == nil || c.m.pool == nil {
		for i := 0; i < n; i++ {
			children[i] = &Ctx{m: c.m}
			fn(i, children[i])
		}
	} else {
		// Chunked index ranges over the machine's persistent pool.
		c.m.pool.ParallelRange(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				children[i] = &Ctx{m: c.m}
				fn(i, children[i])
			}
		})
	}
	merged := children[0].Cost()
	for _, ch := range children[1:] {
		merged = merged.ParMax(ch.Cost())
	}
	c.Charge(merged)
}
