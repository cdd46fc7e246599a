package centerpoint

import (
	"math"
	"testing"

	"sepdc/internal/geom"
	"sepdc/internal/pointgen"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

func TestRadonPoint1D(t *testing.T) {
	// In R^1, three points: the Radon point of {0, 1, 10} is the middle one
	// (partition {0,10} | {1}): the dependence places the middle point
	// inside the hull of the outer two.
	pts := []vec.Vec{vec.Of(0), vec.Of(1), vec.Of(10)}
	rp, err := RadonPoint(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rp[0]-1) > 1e-9 {
		t.Errorf("RadonPoint = %v, want 1", rp)
	}
}

func TestRadonPointInBothHulls(t *testing.T) {
	// The defining property: the Radon point lies in the convex hull of the
	// whole set (it is a convex combination of the positive class). Verify
	// hull membership via support functions on random directions.
	g := xrand.New(1)
	for trial := 0; trial < 300; trial++ {
		d := g.IntN(4) + 1
		pts := make([]vec.Vec, d+2)
		for i := range pts {
			pts[i] = vec.Scale(3, vec.Vec(g.InBall(d)))
		}
		rp, err := RadonPoint(pts)
		if err != nil {
			continue // random degeneracy is acceptable, rarely happens
		}
		for dir := 0; dir < 20; dir++ {
			u := vec.Vec(g.UnitVector(d))
			maxDot := math.Inf(-1)
			for _, p := range pts {
				if v := vec.Dot(u, p); v > maxDot {
					maxDot = v
				}
			}
			if vec.Dot(u, rp) > maxDot+1e-8 {
				t.Fatalf("trial %d: Radon point outside hull", trial)
			}
		}
	}
}

func TestRadonPointErrors(t *testing.T) {
	if _, err := RadonPoint(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := RadonPoint([]vec.Vec{vec.Of(0, 0), vec.Of(1, 1)}); err == nil {
		t.Error("wrong count accepted")
	}
	// All points identical: dependence exists but the positive class
	// collapses; must either return the point itself or error, not panic.
	same := []vec.Vec{vec.Of(1, 1), vec.Of(1, 1), vec.Of(1, 1), vec.Of(1, 1)}
	if rp, err := RadonPoint(same); err == nil {
		if !vec.ApproxEqual(rp, vec.Of(1, 1), 1e-9) {
			t.Errorf("degenerate Radon point = %v", rp)
		}
	}
}

func TestApproxCenterpointDepth(t *testing.T) {
	// The approximate centerpoint must have substantial Tukey depth:
	// well above random (which could be ~0) and ideally near n/(d+2).
	g := xrand.New(2)
	for _, dist := range []pointgen.Dist{pointgen.UniformCube, pointgen.Gaussian, pointgen.Clustered} {
		for _, d := range []int{2, 3} {
			pts := pointgen.MustGenerate(dist, 2000, d, g.Split())
			c := Approx(pts, g.Split(), nil)
			depth := Depth(pts, c, 200, g.Split())
			// Exact centerpoint depth is >= n/(d+1) ≈ 500–667. The iterated
			// Radon approximation with a 512 sample should comfortably clear
			// n/(2(d+2)).
			minDepth := len(pts) / (2 * (d + 2))
			if depth < minDepth {
				t.Errorf("%s d=%d: depth %d < %d", dist, d, depth, minDepth)
			}
		}
	}
}

func TestApproxOnSphereLiftedPoints(t *testing.T) {
	// The separator uses centerpoints of lifted points on S^d; the result
	// must lie strictly inside the unit ball.
	g := xrand.New(3)
	pts := pointgen.MustGenerate(pointgen.UniformBall, 1000, 2, g)
	lifted := make([]vec.Vec, len(pts))
	for i, p := range pts {
		lifted[i] = geom.Lift(p)
	}
	c := Approx(lifted, g, nil)
	if r := vec.Norm(c); r >= 1 {
		t.Errorf("centerpoint of on-sphere points has norm %v >= 1", r)
	}
}

func TestApproxTinyInputs(t *testing.T) {
	g := xrand.New(4)
	// Fewer points than d+2: sampling with replacement must still work.
	pts := []vec.Vec{vec.Of(0, 0, 0), vec.Of(1, 0, 0)}
	c := Approx(pts, g, nil)
	if !vec.IsFinite(c) {
		t.Fatalf("centerpoint of 2 points = %v", c)
	}
	// Single point: centerpoint is the point.
	c = Approx([]vec.Vec{vec.Of(5, 5)}, g, nil)
	if !vec.ApproxEqual(c, vec.Of(5, 5), 1e-9) {
		t.Errorf("centerpoint of singleton = %v", c)
	}
}

func TestApproxAllIdentical(t *testing.T) {
	g := xrand.New(5)
	pts := make([]vec.Vec, 50)
	for i := range pts {
		pts[i] = vec.Of(2, 3)
	}
	c := Approx(pts, g, nil)
	if !vec.ApproxEqual(c, vec.Of(2, 3), 1e-9) {
		t.Errorf("centerpoint of identical points = %v", c)
	}
}

func TestApproxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Approx(empty) did not panic")
		}
	}()
	Approx(nil, xrand.New(1), nil)
}

func TestDepthProperties(t *testing.T) {
	g := xrand.New(6)
	pts := pointgen.MustGenerate(pointgen.UniformBall, 500, 2, g)
	// Depth at the centroid of a symmetric cloud is near n/2.
	dCenter := Depth(pts, vec.Of(0, 0), 100, g.Split())
	if dCenter < len(pts)/4 {
		t.Errorf("center depth %d too small", dCenter)
	}
	// Depth far outside the cloud is 0.
	dFar := Depth(pts, vec.Of(100, 100), 100, g.Split())
	if dFar != 0 {
		t.Errorf("far depth = %d, want 0", dFar)
	}
	if Depth(nil, vec.Of(0), 10, g) != 0 {
		t.Error("depth of empty set nonzero")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o *Options
	if o.sampleSize() != 256 {
		t.Errorf("default sample size = %d", o.sampleSize())
	}
	o2 := &Options{SampleSize: 64}
	if o2.sampleSize() != 64 {
		t.Error("explicit options ignored")
	}
}

// radonPointInto (the fixed-size solve at D=4, the generic one
// elsewhere) must reproduce RadonPoint bit for bit, degenerate groups
// included.
func TestRadonPointIntoMatchesRadonPoint(t *testing.T) {
	g := xrand.New(17)
	for _, D := range []int{2, 3, 4, 5} {
		sc := &scratch{}
		sc.ensure(D, D+2)
		group := make([]int32, D+2)
		pts := make([]vec.Vec, D+2)
		for trial := 0; trial < 400; trial++ {
			for i := range group {
				group[i] = int32(i * D)
				p := sc.buf[i*D : (i+1)*D]
				for j := range p {
					p[j] = g.Float64()*2 - 1
				}
				if trial%5 == 0 && i > 0 {
					copy(p, sc.buf[:D]) // repeated points: rank-deficient systems
				}
				pts[i] = append(vec.Vec(nil), p...)
			}
			want, werr := RadonPoint(pts)
			got := make(vec.Vec, D)
			gerr := radonPointInto(sc, got, group)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("D=%d trial %d: errors differ: %v vs %v", D, trial, gerr, werr)
			}
			if werr != nil {
				continue
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("D=%d trial %d: coordinate %d = %v, RadonPoint %v", D, trial, i, got[i], want[i])
				}
			}
		}
	}
}
