package centerpoint

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"sepdc/internal/geom"
	"sepdc/internal/pointgen"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// sampledDepth returns the minimum, over nDirs random unit directions u,
// of the number of points p with u·(p−c) ≥ 0. The Tukey depth of c is
// that minimum over every direction, so a sample of directions can only
// over-estimate it: the depth floors the tests below hold an
// approximation to are lenient by that margin.
func sampledDepth(pts []vec.Vec, c vec.Vec, nDirs int, g *xrand.RNG) int {
	if len(pts) == 0 {
		return 0
	}
	d := len(c)
	minCount := len(pts)
	for t := 0; t < nDirs; t++ {
		u := vec.Vec(g.UnitVector(d))
		count := 0
		for _, p := range pts {
			if vec.Dot(u, vec.Sub(p, c)) >= 0 {
				count++
			}
		}
		if count < minCount {
			minCount = count
		}
	}
	return minCount
}

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
	// The depth is sampled over 200 directions, an over-estimate, so the
	// floor is lenient.
	g := xrand.New(2)
	for _, dist := range []pointgen.Dist{pointgen.UniformCube, pointgen.Gaussian, pointgen.Clustered} {
		for _, d := range []int{2, 3} {
			pts := pointgen.MustGenerate(dist, 2000, d, g.Split())
			c := Approx(pts, g.Split())
			depth := sampledDepth(pts, c, 200, g.Split())
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
	c := Approx(lifted, g)
	if r := vec.Norm(c); r >= 1 {
		t.Errorf("centerpoint of on-sphere points has norm %v >= 1", r)
	}
}

func TestApproxTinyInputs(t *testing.T) {
	g := xrand.New(4)
	// Fewer points than d+2: sampling with replacement must still work.
	pts := []vec.Vec{vec.Of(0, 0, 0), vec.Of(1, 0, 0)}
	c := Approx(pts, g)
	if !vec.IsFinite(c) {
		t.Fatalf("centerpoint of 2 points = %v", c)
	}
	// Single point: centerpoint is the point.
	c = Approx([]vec.Vec{vec.Of(5, 5)}, g)
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
	c := Approx(pts, g)
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
	Approx(nil, xrand.New(1))
}

func TestDepthProperties(t *testing.T) {
	g := xrand.New(6)
	pts := pointgen.MustGenerate(pointgen.UniformBall, 500, 2, g)
	// Depth at the centroid of a symmetric cloud is near n/2.
	dCenter := sampledDepth(pts, vec.Of(0, 0), 100, g.Split())
	if dCenter < len(pts)/4 {
		t.Errorf("center depth %d too small", dCenter)
	}
	// Depth far outside the cloud is 0.
	dFar := sampledDepth(pts, vec.Of(100, 100), 100, g.Split())
	if dFar != 0 {
		t.Errorf("far depth = %d, want 0", dFar)
	}
	if sampledDepth(nil, vec.Of(0), 10, g) != 0 {
		t.Error("depth of empty set nonzero")
	}
}

// TestOptionsDefaults pins the fixed sample size the tournament and the
// separator search's lift share.
func TestOptionsDefaults(t *testing.T) {
	if SampleSize != 256 {
		t.Errorf("SampleSize = %d, want 256", SampleSize)
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

// An input of at least SampleSize/2 points runs the full SampleSize-entry
// tournament, so Approx must return the very points it returned when the
// tournament was SampleSize entries for every input. The digest was
// recorded with that rule, over seeds 1–5, D ∈ {3, 4, 5} and
// n ∈ {128, 200, 1000}; the fixed-size D=4 Radon solve and the generic
// one both take part.
func TestApproxLargeInputsUnchanged(t *testing.T) {
	h := fnv.New64a()
	var b [8]byte
	for _, D := range []int{3, 4, 5} {
		for _, n := range []int{SampleSize / 2, 200, 1000} {
			for seed := uint64(1); seed <= 5; seed++ {
				g := xrand.New(seed)
				c := Approx(pointgen.MustGenerate(pointgen.UniformCube, n, D, g), g)
				for _, x := range c {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
					h.Write(b[:])
				}
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x9972f6f3a4c6294e); got != want {
		t.Errorf("digest %#x, want %#x", got, want)
	}
}

// On inputs smaller than SampleSize/2 the tournament shrinks to twice
// the input. The package's guarantee is depth Ω(n/(D+1)²) with constant
// probability, so at least three in four seeds must reach n/(D+1)²
// (rounded up, and at least 1: a point of depth 1 lies in the input's
// hull, where every Radon point does). Inputs are uniform in the cube
// and, as the separator search feeds them, lifted onto the sphere. The
// depth is sampled over 200 directions, an over-estimate, so the floor
// is lenient.
func TestApproxSmallInputsKeepDepth(t *testing.T) {
	const seeds = 200
	for _, D := range []int{3, 4} {
		floor := func(n int) int { return max(1, (n+(D+1)*(D+1)-1)/((D+1)*(D+1))) }
		for _, n := range []int{D + 2, 10, 40, 127} {
			for _, lifted := range []bool{false, true} {
				reached := 0
				for seed := uint64(1); seed <= seeds; seed++ {
					g := xrand.New(seed)
					var pts []vec.Vec
					if lifted {
						pts = pointgen.MustGenerate(pointgen.UniformCube, n, D-1, g)
						for i, p := range pts {
							pts[i] = geom.Lift(p)
						}
					} else {
						pts = pointgen.MustGenerate(pointgen.UniformCube, n, D, g)
					}
					if sampledDepth(pts, Approx(pts, g), 200, g) >= floor(n) {
						reached++
					}
				}
				if 4*reached < 3*seeds {
					t.Errorf("D=%d n=%d lifted=%v: %d of %d seeds reach depth %d", D, n, lifted, reached, seeds, floor(n))
				}
			}
		}
	}
}
