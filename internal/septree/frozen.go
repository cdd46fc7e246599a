package septree

import (
	"math"

	"sepdc/internal/geom"
	"sepdc/internal/nbrsys"
	"sepdc/internal/vec"
)

// Frozen is the separator tree: a structure-of-arrays layout with no
// per-node pointers on the descent path. Build lays it out once and it
// is immutable afterwards, so any number of goroutines may query one
// Frozen concurrently:
//
//   - Nodes are stored with sibling pairs adjacent, so an internal node
//     records only its left child id (right = left + 1) and the branch
//     taken is a +0/+1 index adjustment, not a pointer load. Nodes are
//     grouped into van Emde Boas-style pair-blocks (see blockedOrder):
//     blockLevels consecutive tree levels of one subtree sit
//     contiguously, so a root-to-leaf descent touches ~depth/blockLevels
//     separated memory regions instead of one per level, where a plain
//     breadth-first order would scatter consecutive levels ever further
//     apart as n grows, costing one cache miss per hop.
//   - Separator geometry lives in one flat []float64 with stride d+3
//     (center‖radius‖r²-band for spheres, normal‖offset for the
//     hyperplane punts), so the descent touches one contiguous record
//     per node. The r² band [lo, hi] brackets radius² with enough margin
//     that for any squared distance outside it, comparing against the
//     band provably agrees with geom.Sphere.Side's √dist² vs radius
//     test; the sqrt is evaluated only inside the band, taking the
//     correctly-rounded square root off the descent's dependency chain
//     on essentially every node without changing a single branch
//     decision.
//   - Leaf ball ids are packed CSR-style into one []int32 in ascending
//     order (the build's stable partition keeps them so), and filtering
//     a sorted list yields sorted output, so results need no sort.
//   - Each leaf's candidate ball records (center ‖ r², stride d+1) are
//     inlined next to each other in a parallel CSR array, so the leaf
//     scan is one sequential stream with no per-candidate indirection —
//     trading Σ|leaf| × (d+1) words of duplicated storage (the same
//     asymptotic space as the id lists Lemma 3.1 already charges for)
//     for hardware-prefetchable scans. Radii are stored pre-squared,
//     eliminating the per-candidate multiply; r² is the single
//     multiplication r*r, so membership is bit-identical to a scan of
//     the system's balls.
//
// Each query is one root-to-leaf descent and one leaf scan. d = 2 and
// d = 3 run inlined traversals; every other d runs the descent and scan
// loops over the vec kernels dispatched for that d. All of them are
// bit-identical to the generic kernel forms, so Covering/CoveringClosed
// return exactly the ids, in exactly the order, of a brute-force scan
// of every ball with the same predicate.
type Frozen struct {
	dim     int
	stride  int // dim + 1: ball record width (center ‖ r²)
	nstride int // dim + 3: node record width (geometry ‖ scalar ‖ r² band)

	kind   []uint8   // per node: kindSphere | kindHalf | kindLeaf
	child  []int32   // internal: left child id; leaf: leaf slot
	sep    []float64 // per node: nstride floats of separator geometry
	punted []bool    // per node: the separator search fell back to a hyperplane

	leafOff   []int32   // CSR offsets into leafBalls, one per leaf slot +1
	leafBalls []int32   // concatenated, ascending ball ids per leaf
	leafRecs  []float64 // leafBalls' records inlined, stride floats per id

	sys   *nbrsys.System // the balls the tree was built over
	stats BuildStats

	dist2    vec.Dist2Func
	dot      vec.DotFunc
	batch4   vec.Dist2Batch4Func   // four-wide scan kernel
	strided8 vec.Dist2Strided8Func // eight-record stream kernel; nil falls back to batch4
}

const (
	kindSphere = iota
	kindHalf
	kindLeaf
)

// blockLevels is the pair-block height of the node order. Three levels
// put at most 2+4+8 = 14 node records (a pair and two generations below
// it) in one contiguous run — 560 B at d=2 (nstride 5), 1.2 KiB at d=8
// (nstride 11) — of which any single descent touches exactly 3 records
// spanning ≤ 2 cache lines of the sep array at d ≤ 5. Against a
// breadth-first order's line-per-level, that cuts the distinct lines a
// depth-D descent touches from ~D to ~D·2/3 at d ≤ 5 (and keeps the
// per-block records prefetchable at every d), while keeping blocks small
// enough that the top of every subtree stays resident across queries.
const blockLevels = 3

// blockedOrder returns the node ids of the tree that kind and child
// describe in pair-blocked van Emde Boas-ish order. The traversal unit is a sibling pair (the root is a singleton
// unit): each unit is expanded breadth-first for blockLevels levels —
// that prefix is the block, stored contiguously — and the sibling pairs
// left on the frontier become child units, pushed so the leftmost
// subtree's blocks are emitted immediately after their parent block.
// Sibling adjacency holds everywhere: within a block children are
// appended in left,right pairs, and across blocks a pair enters as one
// unit and opens its block together.
func blockedOrder(kind []uint8, child []int32) []int32 {
	order := make([]int32, 0, len(kind))
	var stack []int32 // left ids of the sibling pairs whose blocks are pending
	level := []int32{0}
	var next []int32
	for {
		for lvl := 0; lvl < blockLevels && len(level) > 0; lvl++ {
			order = append(order, level...)
			next = next[:0]
			for _, nd := range level {
				if kind[nd] != kindLeaf {
					next = append(next, child[nd], child[nd]+1)
				}
			}
			level, next = next, level
		}
		// The frontier below the block is a run of left,right pairs;
		// push right-to-left so the leftmost pair's block comes next.
		for i := len(level) - 2; i >= 0; i -= 2 {
			stack = append(stack, level[i])
		}
		if len(stack) == 0 {
			return order
		}
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		level = append(level[:0], l, l+1)
	}
}

// layout returns the Frozen tree over sys that t makes when node
// order[i] becomes node i. order must list every node once, root first,
// with every sibling pair adjacent. Leaf slots are renumbered in the
// order their leaves appear, and the leaf ids and inlined records are
// laid out at their exact size. The dispatch kernels are captured here.
// The strided form is nil where vec has no assembly body for the
// dimension, build or CPU, which ScanLeaf treats as "use the four-wide
// path".
func (t *draft) layout(sys *nbrsys.System, dim int, order []int32) *Frozen {
	nn, ns := len(order), t.nstride
	pos := make([]int32, nn)
	for i, b := range order {
		pos[b] = int32(i)
	}
	stored := 0
	for _, ids := range t.leaves {
		stored += len(ids)
	}
	p := &Frozen{
		dim: dim, stride: dim + 1, nstride: ns,
		kind:      make([]uint8, nn),
		child:     make([]int32, nn),
		sep:       make([]float64, nn*ns),
		punted:    make([]bool, nn),
		leafOff:   make([]int32, 1, len(t.leaves)+1),
		leafBalls: make([]int32, 0, stored),
		leafRecs:  make([]float64, 0, stored*(dim+1)),
		sys:       sys,
		stats:     t.stats,
		dist2:     vec.Dist2Kernel(dim),
		dot:       vec.DotKernel(dim),
		batch4:    vec.Dist2Batch4Kernel(dim),
		strided8:  vec.Dist2Strided8Kernel(dim),
	}
	for i, b := range order {
		p.kind[i], p.punted[i] = t.kind[b], t.punted[b]
		copy(p.sep[i*ns:(i+1)*ns], t.sep[int(b)*ns:])
		if t.kind[b] != kindLeaf {
			p.child[i] = pos[t.child[b]]
			continue
		}
		p.child[i] = int32(len(p.leafOff) - 1)
		for _, id := range t.leaves[t.child[b]] {
			r := sys.Radii[id]
			p.leafBalls = append(p.leafBalls, id)
			p.leafRecs = append(append(p.leafRecs, sys.Centers[id]...), r*r)
		}
		p.leafOff = append(p.leafOff, int32(len(p.leafBalls)))
	}
	return p
}

// sqrtFreeBand returns [lo, hi] bracketing r² such that for any squared
// distance d2 with d2 > hi, √d2 > r is certain, and with d2 < lo,
// √d2 ≤ r is certain — even though √ is evaluated in correctly-rounded
// floating point. The correctly-rounded sqrt can disagree with the
// squared comparison only within ~2 ulps of r²; the 1e-14 relative
// margin (≈45 ulps) covers that with room to spare, so outside the band
// the branch decision needs no square root at all. When the relative
// margin cannot strictly separate lo < r² < hi (r² zero, subnormal, or
// overflowed to +Inf), the band degenerates to (-Inf, +Inf) and every
// query at that node takes the exact sqrt path.
func sqrtFreeBand(r float64) (lo, hi float64) {
	r2 := r * r
	lo = r2 * (1 - 1e-14)
	hi = r2 * (1 + 1e-14)
	if !(lo < r2 && r2 < hi) {
		return math.Inf(-1), math.Inf(1)
	}
	return lo, hi
}

// NumNodes returns the total node count of the frozen tree.
func (f *Frozen) NumNodes() int { return len(f.kind) }

// NumLeaves returns the leaf count.
func (f *Frozen) NumLeaves() int { return len(f.leafOff) - 1 }

// StoredBalls returns Σ over leaves of stored ball ids (the Lemma 3.1
// space quantity).
func (f *Frozen) StoredBalls() int { return len(f.leafBalls) }

// Stats returns the statistics the build accumulated.
func (f *Frozen) Stats() BuildStats { return f.stats }

// System returns the neighborhood system the tree was built over.
func (f *Frozen) System() *nbrsys.System { return f.sys }

// Node returns node i's separator and left child id (the right child
// is left+1), or nil and -1 for a leaf, and whether the node's
// separator search fell back to a median hyperplane. That flag
// accumulates over the node's no-progress retries, so a sphere node (or
// a forced leaf) can be punted. The separator's vector aliases the
// tree's storage and must not be modified.
func (f *Frozen) Node(i int32) (sep geom.Separator, left int32, punted bool) {
	rec, c := f.sep[int(i)*f.nstride:][:f.dim:f.dim], f.child[i]
	switch f.kind[i] {
	case kindSphere:
		return geom.Sphere{Center: rec, Radius: f.sep[int(i)*f.nstride+f.dim]}, c, f.punted[i]
	case kindHalf:
		return geom.Halfspace{Normal: rec, Offset: f.sep[int(i)*f.nstride+f.dim]}, c, f.punted[i]
	}
	return nil, -1, f.punted[i]
}

// descend walks from the root to the leaf containing q and returns the
// leaf's node id and the number of nodes visited on the way (leaf
// included). With record set it also appends every node id on the
// route, leaf included, to path.
func (f *Frozen) descend(q []float64, path []int32, record bool) (leaf int32, visited int, outPath []int32) {
	dist2, dot := f.dist2, f.dot
	nstride, dim := f.nstride, f.dim
	i := int32(0)
	for f.kind[i] != kindLeaf {
		visited++
		if record {
			path = append(path, i)
		}
		rec := f.sep[int(i)*nstride : int(i)*nstride+nstride]
		// The paper's rule sends Side <= 0 (interior, incl. on-surface)
		// left. Phrased as "right only when strictly positive" so that a
		// NaN side (unreachable through the validated public API) takes
		// the same branch as geom.Sphere.Side's 0 case.
		right := false
		if f.kind[i] == kindSphere {
			d2 := dist2(q, rec[:dim])
			if d2 > rec[dim+2] {
				right = true
			} else if d2 >= rec[dim+1] {
				right = math.Sqrt(d2)-rec[dim] > 0
			}
		} else {
			right = dot(rec[:dim], q)-rec[dim] > 0
		}
		if right {
			i = f.child[i] + 1
		} else {
			i = f.child[i]
		}
	}
	if record {
		path = append(path, i)
	}
	return i, visited + 1, path
}

// DescendPath is descend with the route captured: it appends every node
// id on the root-to-leaf path (leaf included) to path and returns the
// leaf id. The serving telemetry's sampled queries take this entry
// point so tail samples can retain the exact descent a slow query took.
// d = 2 and d = 3 take inlined descents that mirror covering2 and
// covering3; every other d runs descend's loop. Either way the branch
// decisions match the unsampled path, so a sampled query answers
// exactly like an unsampled one.
func (f *Frozen) DescendPath(q []float64, path []int32) (leaf int32, outPath []int32) {
	switch f.dim {
	case 2:
		return f.descendPath2(q, path)
	case 3:
		return f.descendPath3(q, path)
	}
	leaf, _, path = f.descend(q, path, true)
	return leaf, path
}

// ScanLeaf scans the leaf's CSR candidate list with the open (or, with
// closed=true, boundary-inclusive) membership predicate, appending
// matching ball ids to out in ascending order. It returns the extended
// slice and the number of candidates scanned. For any q,
// Covering(q, out) equals descending to the leaf and calling ScanLeaf —
// the generic Covering paths are built from exactly these two halves.
func (f *Frozen) ScanLeaf(leaf int32, q []float64, closed bool, out []int) (res []int, leafScanned int) {
	switch f.dim {
	case 2:
		return f.scanLeaf2(leaf, q, closed, out)
	case 3:
		return f.scanLeaf3(leaf, q, closed, out)
	}
	slot := f.child[leaf]
	lo, hi := f.leafOff[slot], f.leafOff[slot+1]
	balls := f.leafBalls[lo:hi]
	dist2, batch4, stride := f.dist2, f.batch4, f.stride
	recs := f.leafRecs[int(lo)*stride : int(hi)*stride]
	n := len(balls)
	k := 0
	// Eight candidates per kernel call when the assembly record-stream
	// kernel is available: it consumes the CSR record window at its
	// natural stride, so eight inlined candidate records are scanned per
	// indirect call with no per-candidate subslicing at all. Each lane
	// is computed with the exact left-to-right accumulation of the
	// single-pair kernel, so the strided, four-wide, and remainder
	// candidates all admit the same set of ids.
	if s8 := f.strided8; s8 != nil {
		if closed {
			for ; k+8 <= n; k += 8 {
				m := k * stride
				d0, d1, d2, d3, d4, d5, d6, d7 := s8(q, recs[m:], stride)
				if d0 <= recs[m+stride-1]+geom.Eps {
					out = append(out, int(balls[k]))
				}
				if d1 <= recs[m+2*stride-1]+geom.Eps {
					out = append(out, int(balls[k+1]))
				}
				if d2 <= recs[m+3*stride-1]+geom.Eps {
					out = append(out, int(balls[k+2]))
				}
				if d3 <= recs[m+4*stride-1]+geom.Eps {
					out = append(out, int(balls[k+3]))
				}
				if d4 <= recs[m+5*stride-1]+geom.Eps {
					out = append(out, int(balls[k+4]))
				}
				if d5 <= recs[m+6*stride-1]+geom.Eps {
					out = append(out, int(balls[k+5]))
				}
				if d6 <= recs[m+7*stride-1]+geom.Eps {
					out = append(out, int(balls[k+6]))
				}
				if d7 <= recs[m+8*stride-1]+geom.Eps {
					out = append(out, int(balls[k+7]))
				}
			}
		} else {
			for ; k+8 <= n; k += 8 {
				m := k * stride
				d0, d1, d2, d3, d4, d5, d6, d7 := s8(q, recs[m:], stride)
				if d0 < recs[m+stride-1] {
					out = append(out, int(balls[k]))
				}
				if d1 < recs[m+2*stride-1] {
					out = append(out, int(balls[k+1]))
				}
				if d2 < recs[m+3*stride-1] {
					out = append(out, int(balls[k+2]))
				}
				if d3 < recs[m+4*stride-1] {
					out = append(out, int(balls[k+3]))
				}
				if d4 < recs[m+5*stride-1] {
					out = append(out, int(balls[k+4]))
				}
				if d5 < recs[m+6*stride-1] {
					out = append(out, int(balls[k+5]))
				}
				if d6 < recs[m+7*stride-1] {
					out = append(out, int(balls[k+6]))
				}
				if d7 < recs[m+8*stride-1] {
					out = append(out, int(balls[k+7]))
				}
			}
		}
	}
	// Four candidates per kernel call: one query record load amortized
	// over four inlined candidate records, each lane computed with the
	// exact left-to-right accumulation of the single-pair kernel, so the
	// batched and remainder candidates admit the same set of ids. The
	// kernels index only [0, dim) of each operand, so handing them the
	// full stride-wide record (center ‖ r²) is safe and skips a subslice.
	if closed {
		for ; k+4 <= n; k += 4 {
			m := k * stride
			da, db, dc, dd := batch4(q, recs[m:], recs[m+stride:], recs[m+2*stride:], recs[m+3*stride:])
			if da <= recs[m+stride-1]+geom.Eps {
				out = append(out, int(balls[k]))
			}
			if db <= recs[m+2*stride-1]+geom.Eps {
				out = append(out, int(balls[k+1]))
			}
			if dc <= recs[m+3*stride-1]+geom.Eps {
				out = append(out, int(balls[k+2]))
			}
			if dd <= recs[m+4*stride-1]+geom.Eps {
				out = append(out, int(balls[k+3]))
			}
		}
	} else {
		for ; k+4 <= n; k += 4 {
			m := k * stride
			da, db, dc, dd := batch4(q, recs[m:], recs[m+stride:], recs[m+2*stride:], recs[m+3*stride:])
			if da < recs[m+stride-1] {
				out = append(out, int(balls[k]))
			}
			if db < recs[m+2*stride-1] {
				out = append(out, int(balls[k+1]))
			}
			if dc < recs[m+3*stride-1] {
				out = append(out, int(balls[k+2]))
			}
			if dd < recs[m+4*stride-1] {
				out = append(out, int(balls[k+3]))
			}
		}
	}
	if closed {
		for ; k < n; k++ {
			m := k * stride
			rec := recs[m : m+stride : m+stride]
			if dist2(q, rec[:stride-1]) <= rec[stride-1]+geom.Eps {
				out = append(out, int(balls[k]))
			}
		}
	} else {
		for ; k < n; k++ {
			m := k * stride
			rec := recs[m : m+stride : m+stride]
			if dist2(q, rec[:stride-1]) < rec[stride-1] {
				out = append(out, int(balls[k]))
			}
		}
	}
	return out, n
}

// Covering appends to out the ids of all balls whose open interior
// contains q (squared distance < r²), in ascending order. It returns the extended slice, the nodes visited, and the number of
// leaf candidates scanned. out is reused via append semantics; pass
// out[:0] to recycle a buffer. The call allocates only if out's capacity
// is exceeded.
func (f *Frozen) Covering(q []float64, out []int) (res []int, nodesVisited, leafScanned int) {
	switch f.dim {
	case 2:
		return f.covering2(q, out, false)
	case 3:
		return f.covering3(q, out, false)
	}
	leaf, visited, _ := f.descend(q, nil, false)
	out, scanned := f.ScanLeaf(leaf, q, false, out)
	return out, visited, scanned
}

// CoveringClosed is Covering with closed-ball membership (boundary
// included, squared distance ≤ r² + geom.Eps); the divide-and-conquer
// correction uses closed balls so that candidate neighbors at exactly
// the current k-th distance are not lost.
func (f *Frozen) CoveringClosed(q []float64, out []int) (res []int, nodesVisited, leafScanned int) {
	switch f.dim {
	case 2:
		return f.covering2(q, out, true)
	case 3:
		return f.covering3(q, out, true)
	}
	leaf, visited, _ := f.descend(q, nil, false)
	out, scanned := f.ScanLeaf(leaf, q, true, out)
	return out, visited, scanned
}

// covering2 and covering3 are the d = 2 and d = 3 traversals with the vec
// kernels inlined: the indirect call per node and per leaf candidate is
// the dominant cost of the generic path at these dimensions. Every
// floating-point expression mirrors the corresponding kernel operation for
// operation (same operands, same order), so the results remain
// bit-identical to the generic path. The leaf scans stay inlined too:
// calling scanLeaf2 instead measured 10–15% slower per query
// (BenchmarkCoveringBalls batch-1, n=10⁴, d=2, 2-vCPU 2.1 GHz Xeon).

func (f *Frozen) covering2(q []float64, out []int, closed bool) (res []int, nodesVisited, leafScanned int) {
	q0, q1 := q[0], q[1]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	visited := 0
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		visited++
		base := int(i) * 5
		rec := sep[base : base+5 : base+5]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := d0*d0 + d1*d1
			if d2 > rec[4] {
				right = true
			} else if d2 >= rec[3] {
				right = math.Sqrt(d2)-rec[2] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			right = s-rec[2] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	visited++
	slot := child[i]
	lo, hi := f.leafOff[slot], f.leafOff[slot+1]
	balls := f.leafBalls[lo:hi]
	recs := f.leafRecs[int(lo)*3 : int(hi)*3]
	// The m+2 < len(recs) guard lets the compiler prove all three record
	// accesses in bounds, so the scan runs bounds-check-free.
	if closed {
		bi := 0
		for m := 0; m+2 < len(recs); m += 3 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			if d0*d0+d1*d1 <= recs[m+2]+geom.Eps {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	} else {
		bi := 0
		for m := 0; m+2 < len(recs); m += 3 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			if d0*d0+d1*d1 < recs[m+2] {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	}
	return out, visited, len(balls)
}

func (f *Frozen) covering3(q []float64, out []int, closed bool) (res []int, nodesVisited, leafScanned int) {
	q0, q1, q2 := q[0], q[1], q[2]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	visited := 0
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		visited++
		base := int(i) * 6
		rec := sep[base : base+6 : base+6]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := q2 - rec[2]
			dd := (d0*d0 + d1*d1) + d2*d2
			if dd > rec[5] {
				right = true
			} else if dd >= rec[4] {
				right = math.Sqrt(dd)-rec[3] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			s += rec[2] * q2
			right = s-rec[3] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	visited++
	slot := child[i]
	lo, hi := f.leafOff[slot], f.leafOff[slot+1]
	balls := f.leafBalls[lo:hi]
	recs := f.leafRecs[int(lo)*4 : int(hi)*4]
	// As in covering2: the m+3 < len(recs) guard makes the scan
	// bounds-check-free.
	if closed {
		bi := 0
		for m := 0; m+3 < len(recs); m += 4 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			d2 := q2 - recs[m+2]
			if (d0*d0+d1*d1)+d2*d2 <= recs[m+3]+geom.Eps {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	} else {
		bi := 0
		for m := 0; m+3 < len(recs); m += 4 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			d2 := q2 - recs[m+2]
			if (d0*d0+d1*d1)+d2*d2 < recs[m+3] {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	}
	return out, visited, len(balls)
}

// descendPath2/3 and scanLeaf2/3 are the d = 2 and d = 3 halves of the
// covering2/covering3 traversals with the route captured — the same
// floating-point expressions operation for operation, so a sampled
// (timed) query stays bit-identical to the inlined covering paths. They
// exist so the telemetry's sampled queries don't regress to the generic
// kernels' indirect calls at the hot dimensions.

func (f *Frozen) descendPath2(q []float64, path []int32) (leaf int32, outPath []int32) {
	q0, q1 := q[0], q[1]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		path = append(path, i)
		base := int(i) * 5
		rec := sep[base : base+5 : base+5]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := d0*d0 + d1*d1
			if d2 > rec[4] {
				right = true
			} else if d2 >= rec[3] {
				right = math.Sqrt(d2)-rec[2] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			right = s-rec[2] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	return i, append(path, i)
}

func (f *Frozen) descendPath3(q []float64, path []int32) (leaf int32, outPath []int32) {
	q0, q1, q2 := q[0], q[1], q[2]
	kind, child, sep := f.kind, f.child, f.sep
	i := int32(0)
	for k := kind[i]; k != kindLeaf; k = kind[i] {
		path = append(path, i)
		base := int(i) * 6
		rec := sep[base : base+6 : base+6]
		right := false
		if k == kindSphere {
			d0 := q0 - rec[0]
			d1 := q1 - rec[1]
			d2 := q2 - rec[2]
			dd := (d0*d0 + d1*d1) + d2*d2
			if dd > rec[5] {
				right = true
			} else if dd >= rec[4] {
				right = math.Sqrt(dd)-rec[3] > 0
			}
		} else {
			s := 0.0
			s += rec[0] * q0
			s += rec[1] * q1
			s += rec[2] * q2
			right = s-rec[3] > 0
		}
		if right {
			i = child[i] + 1
		} else {
			i = child[i]
		}
	}
	return i, append(path, i)
}

func (f *Frozen) scanLeaf2(leaf int32, q []float64, closed bool, out []int) (res []int, leafScanned int) {
	q0, q1 := q[0], q[1]
	slot := f.child[leaf]
	lo, hi := f.leafOff[slot], f.leafOff[slot+1]
	balls := f.leafBalls[lo:hi]
	recs := f.leafRecs[int(lo)*3 : int(hi)*3]
	if closed {
		bi := 0
		for m := 0; m+2 < len(recs); m += 3 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			if d0*d0+d1*d1 <= recs[m+2]+geom.Eps {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	} else {
		bi := 0
		for m := 0; m+2 < len(recs); m += 3 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			if d0*d0+d1*d1 < recs[m+2] {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	}
	return out, len(balls)
}

func (f *Frozen) scanLeaf3(leaf int32, q []float64, closed bool, out []int) (res []int, leafScanned int) {
	q0, q1, q2 := q[0], q[1], q[2]
	slot := f.child[leaf]
	lo, hi := f.leafOff[slot], f.leafOff[slot+1]
	balls := f.leafBalls[lo:hi]
	recs := f.leafRecs[int(lo)*4 : int(hi)*4]
	if closed {
		bi := 0
		for m := 0; m+3 < len(recs); m += 4 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			d2 := q2 - recs[m+2]
			if (d0*d0+d1*d1)+d2*d2 <= recs[m+3]+geom.Eps {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	} else {
		bi := 0
		for m := 0; m+3 < len(recs); m += 4 {
			d0 := q0 - recs[m]
			d1 := q1 - recs[m+1]
			d2 := q2 - recs[m+2]
			if (d0*d0+d1*d1)+d2*d2 < recs[m+3] {
				out = append(out, int(balls[bi]))
			}
			bi++
		}
	}
	return out, len(balls)
}
