// Package topk maintains the k smallest (distance², index) pairs seen for a
// query point. Every k-NN algorithm in the library — brute force, kd-tree,
// and both divide-and-conquer algorithms — funnels candidates through this
// type, so ties are broken identically everywhere: by smaller distance
// first, then by smaller point index. That shared, total order is what makes
// exact graph-equality testing between algorithms possible.
package topk

// Neighbor is a candidate neighbor: the point's index and squared distance.
type Neighbor struct {
	Idx   int
	Dist2 float64
}

// Less orders neighbors by (Dist2, Idx) — the library's canonical total
// order on candidates.
func Less(a, b Neighbor) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 < b.Dist2
	}
	return a.Idx < b.Idx
}

// List holds at most K best neighbors, kept sorted ascending. For the small
// fixed k of the paper (k is a constant), sorted insertion beats a heap:
// it is branch-predictable and allocation-free after construction.
type List struct {
	K     int
	items []Neighbor
}

// New returns an empty list with capacity k. k must be positive.
func New(k int) *List {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &List{K: k, items: make([]Neighbor, 0, k)}
}

// Len returns the number of neighbors currently held.
func (l *List) Len() int { return len(l.items) }

// Full reports whether the list holds K neighbors.
func (l *List) Full() bool { return len(l.items) == l.K }

// WorstDist2 returns the squared distance of the current k-th best
// neighbor, or +Inf semantics via ok=false when the list is not yet full —
// in that state every candidate is accepted.
func (l *List) WorstDist2() (float64, bool) {
	if !l.Full() {
		return 0, false
	}
	return l.items[len(l.items)-1].Dist2, true
}

// Insert offers a candidate; it is stored only if it is among the k best.
// Duplicate indices are the caller's responsibility to avoid (the divide
// and conquer never produces them because candidate sets are disjoint).
func (l *List) Insert(idx int, d2 float64) {
	cand := Neighbor{Idx: idx, Dist2: d2}
	if l.Full() {
		if !Less(cand, l.items[len(l.items)-1]) {
			return
		}
		l.items = l.items[:len(l.items)-1]
	}
	// Sorted insertion from the back.
	pos := len(l.items)
	l.items = append(l.items, cand)
	for pos > 0 && Less(cand, l.items[pos-1]) {
		l.items[pos] = l.items[pos-1]
		pos--
	}
	l.items[pos] = cand
}

// Reset empties the list for reuse; its capacity is retained.
func (l *List) Reset() { l.items = l.items[:0] }

// Items returns the held neighbors in ascending canonical order. The
// returned slice aliases internal storage; callers must not modify it.
func (l *List) Items() []Neighbor { return l.items }

// Clone returns a deep copy.
func (l *List) Clone() *List {
	return &List{K: l.K, items: append(make([]Neighbor, 0, l.K), l.items...)}
}

// Radius2 returns the squared distance to the k-th neighbor — the squared
// radius of the paper's k-neighborhood ball B_i. When fewer than k
// neighbors have been seen (possible only for point sets with fewer than
// k+1 points) it returns the worst distance seen and ok=false.
func (l *List) Radius2() (float64, bool) {
	if len(l.items) == 0 {
		return 0, false
	}
	return l.items[len(l.items)-1].Dist2, l.Full()
}

// Arena bulk-allocates n lists of capacity k in three heap objects (the
// arena, the list array, and one backing neighbor array) instead of 2n.
// The divide-and-conquer and the kd-tree allocate one list per input point;
// for n = 10⁴ the arena removes ~2·10⁴ small allocations from the build.
type Arena struct {
	lists []List
	items []Neighbor
}

// NewArena returns an arena holding n lists with capacity k each.
func NewArena(n, k int) *Arena {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	a := &Arena{lists: make([]List, n), items: make([]Neighbor, n*k)}
	for i := range a.lists {
		a.lists[i] = List{K: k, items: a.items[i*k : i*k : (i+1)*k]}
	}
	return a
}

// List returns the i-th arena list. Insertions stay within the arena's
// backing array (the item slice has capacity k from the start).
func (a *Arena) List(i int) *List { return &a.lists[i] }

// Lists returns pointers to all arena lists, in index order.
func (a *Arena) Lists() []*List {
	out := make([]*List, len(a.lists))
	for i := range a.lists {
		out[i] = &a.lists[i]
	}
	return out
}

// Reset empties every list for reuse; capacities are retained.
func (a *Arena) Reset() {
	for i := range a.lists {
		a.lists[i].items = a.lists[i].items[:0]
	}
}

// Equal reports whether two lists hold identical neighbor sequences.
func Equal(a, b *List) bool {
	if a.K != b.K || len(a.items) != len(b.items) {
		return false
	}
	for i := range a.items {
		if a.items[i] != b.items[i] {
			return false
		}
	}
	return true
}
