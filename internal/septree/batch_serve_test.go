package septree

import (
	"testing"

	"sepdc/internal/obs"
)

// TestObservedBatchIdenticalResults: with a recorder timing EVERY query
// (the worst case for divergence), answers and counter accounting must
// be bit-identical to an unobserved engine — the sampled timed path is
// the same two kernels the covering paths are built from.
func TestObservedBatchIdenticalResults(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		f, pts := buildUniform(t, 1200, d, 3, 29, nil)
		queries := queryMix(pts, d, 333, 31)
		for _, workers := range []int{1, 4} {
			plain := NewBatch(f, workers)
			observed := NewBatch(f, workers)
			observed.Observe(obs.NewServeRecorder(obs.ServeConfig{SampleEvery: 1}, workers))
			for _, closed := range []bool{false, true} {
				plain.Run(queries, nil, closed)
				observed.Run(queries, nil, closed)
				for i := range queries {
					if !equalInts(plain.Result(i), observed.Result(i)) {
						t.Fatalf("d=%d workers=%d closed=%v query %d: observed %v, plain %v",
							d, workers, closed, i, observed.Result(i), plain.Result(i))
					}
				}
			}
			a, b := plain.Stats(), observed.Stats()
			if a.Queries != b.Queries || a.NodesVisited != b.NodesVisited || a.LeafScanned != b.LeafScanned {
				t.Fatalf("d=%d workers=%d: observed stats %+v diverge from plain %+v", d, workers, b, a)
			}
		}
	}
}

// TestObservedBatchTelemetry: the recorder sees exact query counts, a
// plausible sampled latency distribution, and tail samples whose
// descent paths are real root-to-leaf routes.
func TestObservedBatchTelemetry(t *testing.T) {
	f, pts := buildUniform(t, 1500, 2, 3, 7, nil)
	queries := queryMix(pts, 2, 512, 13)
	rec := obs.NewServeRecorder(obs.ServeConfig{SampleEvery: 4}, 0)
	b := NewBatch(f, 4)
	b.Observe(rec)
	for i := 0; i < 4; i++ {
		b.Run(queries, nil, false)
	}
	snap := rec.Snapshot()
	if snap.Queries != int64(4*len(queries)) {
		t.Fatalf("queries = %d, want %d", snap.Queries, 4*len(queries))
	}
	if snap.Sampled != snap.Queries/4 {
		t.Fatalf("sampled = %d, want %d (1 in 4)", snap.Sampled, snap.Queries/4)
	}
	if snap.Latency.Count != snap.Sampled || snap.Latency.Min < 0 {
		t.Fatalf("latency hist = %+v", snap.Latency)
	}
	if snap.Descent.Count != snap.Sampled || snap.Scan.Count != snap.Sampled {
		t.Fatalf("phase hists not populated: descent=%+v scan=%+v", snap.Descent, snap.Scan)
	}
	// Sampled traversal-shape histograms must agree with the engine's
	// exact per-query counters in range.
	if snap.Nodes.Min < 1 || int(snap.Nodes.Max) > f.NumNodes() {
		t.Fatalf("nodes hist out of range: %+v", snap.Nodes)
	}
	if len(snap.Tail) == 0 {
		t.Fatal("no tail samples retained")
	}
	for _, ts := range snap.Tail {
		if ts.LatencyNs != ts.DescentNs+ts.ScanNs {
			t.Fatalf("tail latency %d != descent %d + scan %d", ts.LatencyNs, ts.DescentNs, ts.ScanNs)
		}
		if len(ts.Path) != ts.Nodes {
			t.Fatalf("tail path len %d != nodes visited %d", len(ts.Path), ts.Nodes)
		}
		if ts.Path[0] != 0 {
			t.Fatalf("tail path does not start at the root: %v", ts.Path)
		}
		leaf := ts.Path[len(ts.Path)-1]
		if n := int(leaf); n < 0 || n >= f.NumNodes() {
			t.Fatalf("tail path leaf %d out of range", leaf)
		}
	}
	// Detach: telemetry stops, serving continues.
	b.Observe(nil)
	b.Run(queries, nil, false)
	after := rec.Snapshot()
	if after.Queries != snap.Queries {
		t.Fatalf("detached engine still recorded: %d -> %d", snap.Queries, after.Queries)
	}
}

// TestObservedBatchZeroAllocSteadyState extends the tier-1 zero-alloc
// assertion to the instrumented path: with a recorder attached and
// sampling live, a warm Run must not allocate.
func TestObservedBatchZeroAllocSteadyState(t *testing.T) {
	f, pts := buildUniform(t, 2000, 2, 3, 5, nil)
	queries := queryMix(pts, 2, 256, 9)
	for _, workers := range []int{1, 4} {
		b := NewBatch(f, workers)
		b.Observe(obs.NewServeRecorder(obs.ServeConfig{SampleEvery: 4}, workers))
		for warm := 0; warm < 3; warm++ {
			b.Run(queries, nil, false)
		}
		if avg := testing.AllocsPerRun(50, func() { b.Run(queries, nil, false) }); avg != 0 {
			t.Fatalf("workers=%d: %v allocs per instrumented steady-state Run, want 0", workers, avg)
		}
	}
}

// TestDescendPathMatchesCovering: a probed query answers exactly like
// an unprobed one and records the route it took, for every dimension's
// body (covering2 and covering3 at d = 2 and 3, coveringN at d = 1 and
// d = 4..8) and under both predicates: the same ids, node count and
// candidate count; a route of one node per node visited that starts at
// the root and steps to a child each time; Leaf its last node, a leaf.
func TestDescendPathMatchesCovering(t *testing.T) {
	// Point counts grow with d just enough to clear the default leaf
	// size (which doubles per dimension above 3), so every dimension's
	// tree has real internal nodes for the descent loops to walk, while
	// crossing-ball duplication stays small.
	sizes := map[int]int{7: 1200, 8: 2500}
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		n := 900
		if s, ok := sizes[d]; ok {
			n = s
		}
		f, pts := buildUniform(t, n, d, 2, 3, nil)
		var p Probe
		var got, want []int
		for _, q := range queryMix(pts, d, 200, 5) {
			for _, closed := range []bool{false, true} {
				p = Probe{Path: p.Path[:0], Leaf: -1}
				var nodes, scanned, wantNodes, wantScanned int
				got, nodes, scanned = f.Query(q, got[:0], closed, &p)
				want, wantNodes, wantScanned = f.Query(q, want[:0], closed, nil)
				if !equalInts(got, want) {
					t.Fatalf("d=%d closed=%v: probed %v != unprobed %v", d, closed, got, want)
				}
				if nodes != wantNodes || scanned != wantScanned || len(p.Path) != nodes {
					t.Fatalf("d=%d closed=%v: probed (nodes %d, scanned %d, route %d) != unprobed (%d, %d)",
						d, closed, nodes, scanned, len(p.Path), wantNodes, wantScanned)
				}
				if p.Path[0] != 0 || p.Leaf != p.Path[len(p.Path)-1] || f.kind[p.Leaf] != kindLeaf || p.Mid.IsZero() {
					t.Fatalf("d=%d closed=%v: route %v, leaf %d, mid %v", d, closed, p.Path, p.Leaf, p.Mid)
				}
				for j := 1; j < len(p.Path); j++ {
					if c := f.child[p.Path[j-1]]; p.Path[j] != c && p.Path[j] != c+1 {
						t.Fatalf("d=%d closed=%v: route %v steps off the tree at %d", d, closed, p.Path, j)
					}
				}
			}
		}
	}
}
