// Package knngraph materializes the paper's k-nearest-neighbor graph
// (Definition 1.1) from per-point neighbor lists: vertices are the points
// and (p_i, p_j) is an edge when either point is a k-nearest neighbor of
// the other. The graph is stored in compressed sparse row (CSR) form.
//
// The paper's observation that "given the radius of each ball B_i it is not
// hard to construct the k-nearest neighbor graph in O(log n) time using n
// processors" corresponds to FromLists: a symmetrization implementable with
// sort and scan primitives.
package knngraph

import (
	"fmt"
	"slices"
	"sort"

	"sepdc/internal/topk"
)

// Graph is an undirected graph in CSR form. Adjacency lists are sorted and
// deduplicated; the graph contains no self-loops.
type Graph struct {
	N      int
	K      int
	RowPtr []int32
	ColIdx []int32
}

// FromLists builds the symmetrized k-NN graph per Definition 1.1, by the
// scan-style recipe the paper alludes to: count both directions of every
// list edge, bucket them into per-vertex rows with one prefix sum, then
// sort and deduplicate each (O(k)-sized) row in place. Everything lives in
// a handful of flat arrays — no per-vertex maps or row allocations.
func FromLists(lists []*topk.List, k int) *Graph {
	n := len(lists)
	// deg counts each row's entries including duplicates (out + in edges).
	deg := make([]int32, n)
	for i, l := range lists {
		for _, nb := range l.Items() {
			if nb.Idx == i {
				continue // defensive: no self-loops
			}
			deg[i]++
			deg[nb.Idx]++
		}
	}
	start := make([]int32, n+1)
	for i := 0; i < n; i++ {
		start[i+1] = start[i] + deg[i]
	}
	buf := make([]int32, start[n])
	pos := deg // reuse: becomes the per-row write cursor
	copy(pos, start[:n])
	for i, l := range lists {
		for _, nb := range l.Items() {
			if nb.Idx == i {
				continue
			}
			buf[pos[i]] = int32(nb.Idx)
			pos[i]++
			buf[pos[nb.Idx]] = int32(i)
			pos[nb.Idx]++
		}
	}
	g := &Graph{N: n, K: k}
	g.RowPtr = make([]int32, n+1)
	g.ColIdx = make([]int32, 0, start[n])
	for v := 0; v < n; v++ {
		row := buf[start[v]:start[v+1]]
		slices.Sort(row)
		g.RowPtr[v] = int32(len(g.ColIdx))
		for i, j := range row {
			if i > 0 && j == row[i-1] {
				continue
			}
			g.ColIdx = append(g.ColIdx, j)
		}
	}
	g.RowPtr[n] = int32(len(g.ColIdx))
	return g
}

// Neighbors returns the sorted adjacency list of vertex v. The slice
// aliases internal storage.
func (g *Graph) Neighbors(v int) []int32 {
	return g.ColIdx[g.RowPtr[v]:g.RowPtr[v+1]]
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.RowPtr[v+1] - g.RowPtr[v]) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.ColIdx) / 2 }

// HasEdge reports whether {u, v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v int) bool {
	row := g.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	return i < len(row) && row[i] == int32(v)
}

// Equal reports whether two graphs have identical vertex sets and edges.
// Only edges are compared, not k-NN lists: two algorithms may discover
// the same graph from different list states when k exceeds the point
// count.
func Equal(a, b *Graph) bool {
	if a.N != b.N || len(a.ColIdx) != len(b.ColIdx) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			return false
		}
	}
	return true
}

// Diff returns a short human-readable description of the first edge
// difference between two graphs, or "" when they are equal. Used by the
// correctness experiment to report what went wrong.
func Diff(a, b *Graph) string {
	if a.N != b.N {
		return fmt.Sprintf("vertex counts differ: %d vs %d", a.N, b.N)
	}
	for v := 0; v < a.N; v++ {
		ra, rb := a.Neighbors(v), b.Neighbors(v)
		if len(ra) != len(rb) {
			return fmt.Sprintf("vertex %d degree %d vs %d (rows %v vs %v)", v, len(ra), len(rb), ra, rb)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return fmt.Sprintf("vertex %d: neighbor %d vs %d", v, ra[i], rb[i])
			}
		}
	}
	return ""
}

// Components labels connected components; the return value maps each vertex
// to a component id in [0, count), and count is returned too.
func (g *Graph) Components() (labels []int, count int) {
	labels = make([]int, g.N)
	for i := range labels {
		labels[i] = -1
	}
	var stack []int32
	for v := 0; v < g.N; v++ {
		if labels[v] >= 0 {
			continue
		}
		labels[v] = count
		stack = append(stack[:0], int32(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(int(u)) {
				if labels[w] < 0 {
					labels[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return labels, count
}
