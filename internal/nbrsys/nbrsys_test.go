package nbrsys

import (
	"fmt"
	"math"
	"testing"

	"sepdc/internal/brute"
	"sepdc/internal/geom"
	"sepdc/internal/pointgen"
	"sepdc/internal/pts"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

func TestKNeighborhoodRadii(t *testing.T) {
	pts := []vec.Vec{vec.Of(0, 0), vec.Of(1, 0), vec.Of(3, 0), vec.Of(7, 0)}
	sys := KNeighborhood(pts, 2)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	// Point 0: neighbors at 1 and 3; 2nd-nearest distance 3.
	if math.Abs(sys.Radii[0]-3) > 1e-12 {
		t.Errorf("radius[0] = %v, want 3", sys.Radii[0])
	}
	// Point 2 at x=3: distances 3,2,4 -> 2nd nearest = 3.
	if math.Abs(sys.Radii[2]-3) > 1e-12 {
		t.Errorf("radius[2] = %v, want 3", sys.Radii[2])
	}
}

func TestKNeighborhoodInteriorProperty(t *testing.T) {
	// Definition: the open interior of B_i contains at most k-1 points.
	g := xrand.New(1)
	for _, k := range []int{1, 3, 6} {
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 250, 2, g.Split()))
		sys := KNeighborhood(pts, k)
		for i := range pts {
			count := 0
			for j := range pts {
				if j == i {
					continue
				}
				if vec.Dist(pts[i], pts[j]) < sys.Radii[i]-1e-12 {
					count++
				}
			}
			if count > k-1 {
				t.Fatalf("k=%d: ball %d interior holds %d points", k, i, count)
			}
		}
	}
}

func TestPartitionAndIntersectionNumber(t *testing.T) {
	sys := &System{
		Centers: []vec.Vec{vec.Of(0, 0), vec.Of(10, 0), vec.Of(5, 0)},
		Radii:   []float64{1, 1, 1},
	}
	sep := geom.Sphere{Center: vec.Of(0, 0), Radius: 5}
	in, out, cross := sys.Partition(sep)
	if len(in) != 1 || in[0] != 0 {
		t.Errorf("interior = %v", in)
	}
	if len(out) != 1 || out[0] != 1 {
		t.Errorf("exterior = %v", out)
	}
	if len(cross) != 1 || cross[0] != 2 {
		t.Errorf("crossing = %v", cross)
	}
	if sys.IntersectionNumber(sep) != 1 {
		t.Errorf("IntersectionNumber = %d", sys.IntersectionNumber(sep))
	}
}

func TestPartitionSeparationInvariant(t *testing.T) {
	// After removing crossing balls, no interior ball touches an exterior one.
	g := xrand.New(2)
	pts := pointgen.MustGenerate(pointgen.UniformBall, 300, 3, g)
	sys := KNeighborhood(pts, 2)
	sep := geom.Sphere{Center: vec.Of(0, 0, 0), Radius: 0.6}
	in, out, _ := sys.Partition(sep)
	for _, i := range in {
		for _, j := range out {
			if sys.Ball(i).Intersects(sys.Ball(j)) {
				t.Fatalf("interior ball %d intersects exterior ball %d", i, j)
			}
		}
	}
}

func TestSplitPoints(t *testing.T) {
	pts := []vec.Vec{vec.Of(0, 0), vec.Of(2, 0), vec.Of(1, 0)}
	sep := geom.Sphere{Center: vec.Of(0, 0), Radius: 1}
	in, out := SplitPoints(pts, sep)
	// On-sphere point (1,0) goes to the interior per the paper's rule.
	if len(in) != 2 || in[0] != 0 || in[1] != 2 {
		t.Errorf("interior = %v", in)
	}
	if len(out) != 1 || out[0] != 1 {
		t.Errorf("exterior = %v", out)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	bad := &System{Centers: []vec.Vec{vec.Of(0)}, Radii: []float64{1, 2}}
	if bad.Validate() == nil {
		t.Error("length mismatch accepted")
	}
	bad2 := &System{Centers: []vec.Vec{vec.Of(0)}, Radii: []float64{math.NaN()}}
	if bad2.Validate() == nil {
		t.Error("NaN radius accepted")
	}
	bad3 := &System{Centers: []vec.Vec{vec.Of(math.Inf(1))}, Radii: []float64{1}}
	if bad3.Validate() == nil {
		t.Error("infinite center accepted")
	}
}

func TestBallIndexMatchesBrute(t *testing.T) {
	g := xrand.New(3)
	pts := pointgen.MustGenerate(pointgen.Clustered, 400, 2, g)
	sys := KNeighborhood(pts, 3)
	idx := NewBallIndex(sys)
	for trial := 0; trial < 100; trial++ {
		p := pts[g.IntN(len(pts))]
		got := idx.Covering(p)
		want := brute.CountCoveringBalls(sys.Centers, sys.Radii, p)
		if len(got) != want {
			t.Fatalf("trial %d: Covering found %d, brute %d", trial, len(got), want)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatal("Covering output not sorted")
			}
		}
	}
}

func TestBallIndexEmptyAndDegenerate(t *testing.T) {
	empty := NewBallIndex(&System{})
	if len(empty.Covering(vec.Of(0, 0))) != 0 {
		t.Error("empty index returned balls")
	}
	// All centers identical: build must terminate (leaf fallback).
	n := 100
	centers := make([]vec.Vec, n)
	radii := make([]float64, n)
	for i := range centers {
		centers[i] = vec.Of(1, 1)
		radii[i] = 0.5
	}
	idx := NewBallIndex(&System{Centers: centers, Radii: radii})
	if got := idx.Covering(vec.Of(1, 1)); len(got) != n {
		t.Errorf("degenerate index covering = %d, want %d", len(got), n)
	}
	if got := idx.Covering(vec.Of(9, 9)); len(got) != 0 {
		t.Errorf("far point covered by %d balls", len(got))
	}
}

func TestDensityLemma(t *testing.T) {
	// Lemma 2.1: every k-neighborhood system is τ_d·k-ply.
	g := xrand.New(4)
	for _, d := range []int{1, 2, 3} {
		for _, k := range []int{1, 2, 4} {
			pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 500, d, g.Split()))
			sys := KNeighborhood(pts, k)
			maxPly := sys.MaxPlyAtCenters()
			bound := KissingNumber(d) * k
			if maxPly > bound {
				t.Errorf("d=%d k=%d: max ply %d exceeds τ_d·k = %d", d, k, maxPly, bound)
			}
			if maxPly == 0 {
				t.Errorf("d=%d k=%d: zero ply is impossible (each center is in its own ball? no—centers are not interior)", d, k)
			}
		}
	}
}

func TestKissingNumberValues(t *testing.T) {
	want := map[int]int{1: 2, 2: 6, 3: 12, 4: 24, 8: 240}
	for d, v := range want {
		if got := KissingNumber(d); got != v {
			t.Errorf("KissingNumber(%d) = %d, want %d", d, got, v)
		}
	}
	if KissingNumber(10) <= KissingNumber(8) {
		t.Error("kissing bound must grow with dimension")
	}
}

func TestPlyAt(t *testing.T) {
	sys := &System{
		Centers: []vec.Vec{vec.Of(0, 0), vec.Of(1, 0)},
		Radii:   []float64{2, 2},
	}
	idx := NewBallIndex(sys)
	if got := sys.PlyAt(vec.Of(0.5, 0), idx); got != 2 {
		t.Errorf("PlyAt = %d, want 2", got)
	}
	if got := sys.PlyAt(vec.Of(10, 0), idx); got != 0 {
		t.Errorf("PlyAt far = %d, want 0", got)
	}
}

// TestKNeighborhoodFlatMatchesBrute requires every radius to equal, bit for
// bit, the brute-force distance to the k-th canonical neighbor. The
// tie-heavy inputs (one vertical line, coincident copies, an integer
// lattice) drive the kd-tree's equal-coordinate partitioning.
func TestKNeighborhoodFlatMatchesBrute(t *testing.T) {
	g := xrand.New(11)
	inputs := map[string][]vec.Vec{}
	for _, d := range []int{1, 2, 3, 4} {
		for _, dist := range pointgen.All {
			inputs[fmt.Sprintf("%s/d=%d", dist, d)] = pointgen.MustGenerate(dist, 300, d, g.Split())
		}
	}
	var line, same, lattice []vec.Vec
	for i := 0; i < 200; i++ {
		line = append(line, vec.Of(2.5, g.Float64()))
	}
	for i := 0; i < 50; i++ {
		same = append(same, vec.Of(-1, 4, 0.25))
	}
	for x := 0; x < 15; x++ {
		for y := 0; y < 15; y++ {
			lattice = append(lattice, vec.Of(float64(x), float64(y)))
		}
	}
	inputs["line"], inputs["coincident"], inputs["lattice"] = line, same, lattice
	for name, points := range inputs {
		for _, k := range []int{1, 4, 8} {
			sys := KNeighborhoodFlat(pts.FromVecs(points), k)
			wrapped := KNeighborhood(points, k)
			for i := range points {
				r2, _ := brute.KNN(points, i, k).Radius2()
				want := math.Float64bits(math.Sqrt(r2))
				if got := math.Float64bits(sys.Radii[i]); got != want {
					t.Fatalf("%s k=%d: radius %d = %v, brute force %v", name, k, i, sys.Radii[i], math.Sqrt(r2))
				}
				if math.Float64bits(wrapped.Radii[i]) != want {
					t.Fatalf("%s k=%d: KNeighborhood radius %d = %v, KNeighborhoodFlat %v", name, k, i, wrapped.Radii[i], sys.Radii[i])
				}
				if !vec.Equal(sys.Centers[i], points[i]) {
					t.Fatalf("%s k=%d: center %d = %v, want %v", name, k, i, sys.Centers[i], points[i])
				}
			}
		}
	}
}
