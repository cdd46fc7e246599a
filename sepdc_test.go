package sepdc

import (
	"math"
	"testing"

	"sepdc/internal/pointgen"
	"sepdc/internal/xrand"
)

func genPoints(n, d int, seed uint64) [][]float64 {
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, n, d, xrand.New(seed)))
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}

func TestBuildKNNGraphAllAlgorithmsAgree(t *testing.T) {
	points := genPoints(600, 3, 1)
	k := 3
	var graphs []*Graph
	for _, algo := range []Algorithm{Sphere, Hyperplane, KDTree, Brute} {
		g, err := BuildKNNGraph(points, k, &Options{Algorithm: algo, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		graphs = append(graphs, g)
	}
	for i := 1; i < len(graphs); i++ {
		if !Equal(graphs[0], graphs[i]) {
			t.Errorf("algorithm %d produced a different graph", i)
		}
	}
}

func TestBuildKNNGraphBasics(t *testing.T) {
	points := [][]float64{{0, 0}, {1, 0}, {10, 0}, {11, 0}}
	g, err := BuildKNNGraph(points, 1, &Options{Algorithm: Brute})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPoints() != 4 || g.K() != 1 {
		t.Errorf("shape: %d points, k=%d", g.NumPoints(), g.K())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) || g.HasEdge(1, 2) {
		t.Error("edges wrong")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	nb := g.Neighbors(0)
	if len(nb) != 1 || nb[0].Index != 1 || math.Abs(nb[0].Distance-1) > 1e-12 {
		t.Errorf("Neighbors(0) = %v", nb)
	}
	if adj := g.Adjacency(1); len(adj) != 1 || adj[0] != 0 {
		t.Errorf("Adjacency(1) = %v", adj)
	}
	if g.Degree(0) != 1 {
		t.Errorf("Degree = %d", g.Degree(0))
	}
	if _, count := g.Components(); count != 2 {
		t.Errorf("components = %d", count)
	}
}

func TestBuildKNNGraphValidation(t *testing.T) {
	if _, err := BuildKNNGraph(nil, 1, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := BuildKNNGraph([][]float64{{}}, 1, nil); err == nil {
		t.Error("zero-dim accepted")
	}
	if _, err := BuildKNNGraph([][]float64{{1}, {1, 2}}, 1, nil); err == nil {
		t.Error("ragged input accepted")
	}
	if _, err := BuildKNNGraph([][]float64{{math.NaN()}}, 1, nil); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := BuildKNNGraph([][]float64{{1}, {2}}, 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := BuildKNNGraph([][]float64{{1}, {2}}, 1, &Options{Algorithm: "bogus"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestBuildKNNGraphDeterministic(t *testing.T) {
	points := genPoints(400, 2, 2)
	a, err := BuildKNNGraph(points, 2, &Options{Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildKNNGraph(points, 2, &Options{Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) {
		t.Error("same seed, different graphs")
	}
	if a.Stats().SimulatedSteps != b.Stats().SimulatedSteps {
		t.Error("simulated cost depends on workers")
	}
}

// TestBuildKNNGraphLeavesInput: the Sphere and Hyperplane builds permute
// their point rows in place, and those rows must be the library's own
// copy: the caller's points come back bit for bit.
func TestBuildKNNGraphLeavesInput(t *testing.T) {
	points := genPoints(3000, 3, 5)
	bits := make([]uint64, 0, 3*len(points))
	for _, p := range points {
		for _, x := range p {
			bits = append(bits, math.Float64bits(x))
		}
	}
	for _, algo := range []Algorithm{Sphere, Hyperplane} {
		if _, err := BuildKNNGraph(points, 4, &Options{Algorithm: algo}); err != nil {
			t.Fatal(err)
		}
		j := 0
		for i, p := range points {
			for c, x := range p {
				if math.Float64bits(x) != bits[j] {
					t.Fatalf("%s: point %d coordinate %d changed to %v", algo, i, c, x)
				}
				j++
			}
		}
	}
}

func TestBuildKNNGraphStatsPopulated(t *testing.T) {
	points := genPoints(2000, 2, 3)
	g, err := BuildKNNGraph(points, 1, &Options{Algorithm: Sphere, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.SimulatedSteps == 0 || st.SimulatedWork == 0 || st.SeparatorTrials == 0 {
		t.Errorf("stats empty: %+v", st)
	}
	// The kd-tree path reports no simulated cost.
	g2, err := BuildKNNGraph(points, 1, &Options{Algorithm: KDTree})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Stats().SimulatedSteps != 0 {
		t.Error("kd-tree reported simulated steps")
	}
}

func TestFindSeparator(t *testing.T) {
	points := genPoints(3000, 2, 5)
	res, err := FindSeparator(points, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interior+res.Exterior != len(points) {
		t.Errorf("split lost points: %+v", res)
	}
	if res.Ratio > 0.95 {
		t.Errorf("ratio %v too unbalanced", res.Ratio)
	}
	if res.Trials < 1 {
		t.Error("no trials recorded")
	}
	if res.Kind != SphereSeparator && res.Kind != HyperplaneSeparator {
		t.Errorf("kind = %q", res.Kind)
	}
	if res.CrossingBalls <= 0 || res.CrossingBalls > len(points)/2 {
		t.Errorf("crossing balls = %d", res.CrossingBalls)
	}
	// Side must agree with the reported counts.
	in, out := 0, 0
	for _, p := range points {
		if res.Side(p) < 0 {
			in++
		} else {
			out++
		}
	}
	if in != res.Interior || out != res.Exterior {
		t.Errorf("Side tally %d/%d vs reported %d/%d", in, out, res.Interior, res.Exterior)
	}
}

func TestFindSeparatorSkipCrossing(t *testing.T) {
	points := genPoints(500, 2, 6)
	res, err := FindSeparator(points, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossingBalls != 0 {
		t.Error("k=0 should skip crossing-ball computation")
	}
}

func TestFindSeparatorErrors(t *testing.T) {
	if _, err := FindSeparator(nil, 1, 1); err == nil {
		t.Error("empty input accepted")
	}
}

func TestQueryStructure(t *testing.T) {
	points := genPoints(1500, 2, 7)
	qs, err := NewQueryStructure(points, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	st := qs.Stats()
	if st.Height < 2 || st.Leaves < 2 || st.StoredBalls < len(points) {
		t.Errorf("stats implausible: %+v", st)
	}
	if st.StoredBalls > 4*len(points) {
		t.Errorf("space blow-up: stored %d for n=%d", st.StoredBalls, len(points))
	}
	// Reverse-NN semantics: q is covered by ball i iff dist(q, p_i) is
	// smaller than p_i's k-th NN distance; check against a direct count.
	g, err := BuildKNNGraph(points, 2, &Options{Algorithm: KDTree})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		q := points[trial*7%len(points)]
		got, err := qs.CoveringBalls(q)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := range points {
			nb := g.Neighbors(i)
			r := nb[len(nb)-1].Distance
			// Same squared predicate as the structure: strict interior.
			if dist2(q, points[i]) < r*r {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: covering %d, want %d", trial, len(got), want)
		}
	}
	if _, err := qs.CoveringBalls([]float64{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestQueryStructureErrors(t *testing.T) {
	if _, err := NewQueryStructure(nil, 1, 1); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := NewQueryStructure([][]float64{{1}, {2}}, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
