// Package core implements the paper's two parallel all-k-nearest-neighbor
// algorithms:
//
//   - HyperplaneDNC — "Simple Parallel Divide-and-Conquer" (Section 5):
//     split the points in half with a median hyperplane, recurse on the two
//     halves in parallel, then correct every k-neighborhood ball that
//     crosses the hyperplane by building the Section-3 query structure over
//     the crossing balls and querying the opposite side's points. Random
//     O(log² n) parallel time.
//
//   - SphereDNC — "Parallel Nearest Neighborhood" (Section 6): split with a
//     sphere separator, recurse, and correct the (few) crossing balls with
//     the constant-time Fast Correction — marching the balls down the
//     opposite partition tree (Lemma 6.3). When the crossing set is too big
//     (≥ m^μ) or the march floods a level (Lemma 6.2 violated), the
//     algorithm *punts* to the query-structure correction; the Punting
//     Lemma keeps the total overhead at a constant factor. Random O(log n)
//     parallel time.
//
// Both return exact per-point k-NN lists (ties broken by the library-wide
// canonical order), the partition tree of the recursion, and rich
// instrumentation: simulated vector-model cost, punt/trial counters, and
// marching profiles for the experiments.
package core

import (
	"math"
	"sync"

	"sepdc/internal/chaos"
	"sepdc/internal/march"
	"sepdc/internal/obs"
	"sepdc/internal/separator"
	"sepdc/internal/topk"
	"sepdc/internal/vm"
)

// activeFactor scales the marching abort limit C·m^{1−η}: a march aborts
// once more than activeFactor · m^Mu · log2(m) (+16) ball–node pairs are
// active at one level, generous enough that aborts signal genuine
// blow-ups (Lemma 6.2).
const activeFactor = 8

// Options configures the divide and conquer.
type Options struct {
	// K is the number of neighbors per point. Zero selects 1 (the paper's
	// presentation case).
	K int
	// BaseSize is the subproblem size at which the recursion switches to
	// brute force — the paper's "if m ≤ log n" rule. Zero selects
	// max(2(K+1), ceil(log2 n)).
	BaseSize int
	// Machine executes the recursion fork-join and accrues simulated cost.
	// Nil selects a sequential machine.
	Machine *vm.Machine
	// Sep configures the separator search (SphereDNC only).
	Sep *separator.Options
	// Mu is the exponent of the crossing-set punt threshold: the fast
	// correction is attempted only when ι_{B_I}(S) + ι_{B_E}(S) < m^Mu.
	// Zero selects 0.9 (theory: (d−1)/d + ε).
	Mu float64
	// CollectProfiles records the per-level active-ball profiles of every
	// fast-correction march (experiment E8). Off by default: profiles of
	// large runs are sizable.
	CollectProfiles bool
	// Rec is the observability recorder (package obs). Nil disables the
	// layer; every instrumentation site then reduces to a nil check.
	Rec *obs.Recorder
	// Chaos is the deterministic fault injector: forced threshold punts
	// and march aborts at chosen depths, and level-triggered aborts inside
	// the marches. Separator-trial failures are injected via Sep.Chaos.
	// Nil (the default) injects nothing. Injections reroute work onto the
	// punt paths; the computed lists are exact either way.
	Chaos *chaos.Injector
}

func (o *Options) k() int {
	if o == nil || o.K <= 0 {
		return 1
	}
	return o.K
}

func (o *Options) baseSize(n int) int {
	if o != nil && o.BaseSize > 0 {
		return o.BaseSize
	}
	base := int(math.Ceil(math.Log2(float64(n + 1))))
	if min := 2 * (o.k() + 1); base < min {
		base = min
	}
	return base
}

func (o *Options) machine() *vm.Machine {
	if o == nil || o.Machine == nil {
		return vm.Sequential()
	}
	return o.Machine
}

func (o *Options) sep() *separator.Options {
	if o == nil {
		return nil
	}
	return o.Sep
}

func (o *Options) mu() float64 {
	if o == nil || o.Mu <= 0 || o.Mu >= 1 {
		return 0.9
	}
	return o.Mu
}

func (o *Options) rec() *obs.Recorder {
	if o == nil {
		return nil
	}
	return o.Rec
}

func (o *Options) chaos() *chaos.Injector {
	if o == nil {
		return nil
	}
	return o.Chaos
}

// Stats instruments one divide-and-conquer run. Counter semantics follow
// the paper's cost accounting; all counters are totals over the recursion.
type Stats struct {
	Nodes            int // internal recursion nodes
	BaseCases        int // brute-force leaves
	SeparatorTrials  int // Unit Time Separator candidates consumed
	SeparatorPunts   int // FindGood fell back to a median hyperplane
	FastCorrections  int // marches that completed (both directions counted)
	ThresholdPunts   int // corrections skipped because ι ≥ m^μ
	MarchAborts      int // marches aborted by the active-ball limit
	QueryCorrections int // corrections executed via the Section-3 structure
	Duplications     int // crossing-ball duplications during marches (Lemma 6.4)
	CandidatePairs   int // (ball, point) hits offered to the k-NN lists
	MaxMarchActive   int // max active pairs at any march level (Lemma 6.2)
	MaxDepth         int // deepest recursion node reached (root = 0)
	Cost             vm.Cost
	Profiles         [][]int // per-march active-per-level profiles (optional)
}

type tally struct {
	mu sync.Mutex
	s  Stats
}

func (t *tally) add(f func(*Stats)) {
	t.mu.Lock()
	f(&t.s)
	t.mu.Unlock()
}

// Result is the output of a divide-and-conquer run.
type Result struct {
	// Lists holds each point's exact k nearest neighbors in canonical order.
	Lists []*topk.List
	// Tree is the partition tree induced by the recursion.
	Tree *march.PNode
	// Stats instruments the run.
	Stats Stats
}
