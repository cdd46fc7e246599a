package obs

import (
	"expvar"
	"sync"
	"sync/atomic"
)

// The process-wide counters cover components that are shared across
// builds and cannot carry a per-build Shard: the persistent worker pool,
// the topk arenas, the vector-machine fork sites, the separator search
// and the query structures. They are off unless at least one Recorder is
// live (or EnableGlobal was called), so the disabled hot-path cost at
// every site is a single atomic load and a predictable branch.

// Global identifies one process-wide counter.
type Global uint8

const (
	GPoolSubmitted   Global = iota // tasks accepted by an idle pool worker
	GPoolInline                    // tasks run inline because the pool was saturated
	GArenaAllocs                   // topk arenas allocated
	GArenaLists                    // topk lists served from arenas
	GArenaResets                   // arena reuse events (Reset calls)
	GForks                         // vm fork-join sites executed
	GVMPrims                       // vector primitives charged to the simulated machine
	GSepCandidates                 // Unit Time Separator candidates generated
	GSepFallbacks                  // separator searches that exhausted the trial budget
	GSeptreeBuilds                 // Section-3 query structures built
	GSeptreeForced                 // oversized (forced) septree leaves
	GMarchPairs                    // (ball, node) pairs visited by marches
	GMarchLeafPoints               // points scanned in reached march leaves
	GQueryBatches                  // batched covering-ball Run invocations
	GQueryServed                   // covering-ball queries answered (batched + single)
	GQueryNodes                    // septree nodes visited answering queries
	GQueryLeafScans                // leaf ball candidates scanned answering queries
	numGlobals
)

var globalNames = [numGlobals]string{
	GPoolSubmitted:   "pool_submitted",
	GPoolInline:      "pool_inline",
	GArenaAllocs:     "arena_allocs",
	GArenaLists:      "arena_lists",
	GArenaResets:     "arena_resets",
	GForks:           "vm_forks",
	GVMPrims:         "vm_prims",
	GSepCandidates:   "separator_candidates",
	GSepFallbacks:    "separator_fallbacks",
	GSeptreeBuilds:   "septree_builds",
	GSeptreeForced:   "septree_forced_leaves",
	GMarchPairs:      "march_pairs",
	GMarchLeafPoints: "march_leaf_points",
	GQueryBatches:    "query_batches",
	GQueryServed:     "query_served",
	GQueryNodes:      "query_nodes_visited",
	GQueryLeafScans:  "query_leaf_scans",
}

var (
	globalRefs      atomic.Int64
	globalCounters  [numGlobals]atomic.Int64
	poolInflight    atomic.Int64
	poolMaxInflight atomic.Int64
)

// On reports whether any Recorder (or EnableGlobal) has the process-wide
// counters enabled. Hot paths call this once and skip all recording work
// when false.
func On() bool { return globalRefs.Load() != 0 }

// EnableGlobal turns the process-wide counters on for the remaining
// process lifetime, independent of any Recorder — the expvar/debug-server
// mode of cmd/knn.
func EnableGlobal() { globalRefs.Add(1) }

// Add increments a process-wide counter. Callers should guard the whole
// instrumented block with On() so the disabled path stays branch-only.
func Add(g Global, v int64) {
	if globalRefs.Load() == 0 {
		return
	}
	globalCounters[g].Add(v)
}

// PoolEnter records a task entering the worker pool and updates the
// high-water inflight gauge ("queue depth": tasks concurrently held by
// workers). PoolExit must pair with it.
func PoolEnter() {
	d := poolInflight.Add(1)
	for {
		m := poolMaxInflight.Load()
		if d <= m || poolMaxInflight.CompareAndSwap(m, d) {
			return
		}
	}
}

// PoolExit records a pool task finishing.
func PoolExit() { poolInflight.Add(-1) }

func globalSnapshot() [numGlobals]int64 {
	var out [numGlobals]int64
	for i := range out {
		out[i] = globalCounters[i].Load()
	}
	return out
}

// GlobalSnapshot returns the current process-wide counter values plus the
// pool gauges, keyed by export name.
func GlobalSnapshot() map[string]int64 {
	out := make(map[string]int64, int(numGlobals)+2)
	for i := 0; i < int(numGlobals); i++ {
		out[globalNames[i]] = globalCounters[i].Load()
	}
	out["pool_inflight"] = poolInflight.Load()
	out["pool_max_inflight"] = poolMaxInflight.Load()
	return out
}

var expvarOnce sync.Once

// PublishExpvar registers the process-wide counters as the expvar map
// "sepdc_obs" on the standard /debug/vars endpoint. Safe to call more
// than once.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("sepdc_obs", expvar.Func(func() any {
			return GlobalSnapshot()
		}))
	})
}
