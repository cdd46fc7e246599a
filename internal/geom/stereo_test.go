package geom

import (
	"math"
	"testing"

	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

func TestLiftLandsOnSphere(t *testing.T) {
	g := xrand.New(1)
	for trial := 0; trial < 500; trial++ {
		d := g.IntN(4) + 1
		x := vec.Scale(10*g.Float64(), vec.Vec(g.UnitVector(d)))
		z := Lift(x)
		if len(z) != d+1 {
			t.Fatalf("Lift dimension = %d, want %d", len(z), d+1)
		}
		if math.Abs(vec.Norm(z)-1) > 1e-12 {
			t.Fatalf("Lift(%v) has norm %v", x, vec.Norm(z))
		}
	}
}

func TestLiftUnliftRoundTrip(t *testing.T) {
	g := xrand.New(2)
	for trial := 0; trial < 500; trial++ {
		d := g.IntN(4) + 1
		x := vec.Scale(5*g.Float64(), vec.Vec(g.UnitVector(d)))
		z := Lift(x)
		back, ok := Unlift(z)
		if !ok {
			t.Fatalf("Unlift failed for finite point %v", x)
		}
		if !vec.ApproxEqual(back, x, 1e-9) {
			t.Fatalf("round trip %v -> %v", x, back)
		}
	}
}

func TestUnliftNorthPole(t *testing.T) {
	north := vec.Of(0, 0, 1)
	if _, ok := Unlift(north); ok {
		t.Error("Unlift(north pole) should report failure")
	}
}

func TestLiftOriginIsSouthPole(t *testing.T) {
	z := Lift(vec.Of(0, 0))
	if !vec.ApproxEqual(z, vec.Of(0, 0, -1), 1e-15) {
		t.Errorf("Lift(origin) = %v, want south pole", z)
	}
}

func TestNewPlaneSection(t *testing.T) {
	if _, err := NewPlaneSection(vec.Of(0, 0, 0), 0); err == nil {
		t.Error("zero normal accepted")
	}
	if _, err := NewPlaneSection(vec.Of(1, 0, 0), 1.5); err == nil {
		t.Error("section missing sphere accepted")
	}
	p, err := NewPlaneSection(vec.Of(2, 0, 0), 1) // normalizes to offset 0.5
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vec.Norm(p.Normal)-1) > 1e-12 || math.Abs(p.Offset-0.5) > 1e-12 {
		t.Errorf("normalization wrong: %+v", p)
	}
}

func TestDilationMapsLatitudeToEquator(t *testing.T) {
	g := xrand.New(3)
	for trial := 0; trial < 100; trial++ {
		d := g.IntN(3) + 1
		r := g.Float64()*1.8 - 0.9
		dil, err := NewDilationForHeight(r)
		if err != nil {
			t.Fatal(err)
		}
		// A point on the latitude circle at height r.
		u := vec.Vec(g.UnitVector(d))
		z := make(vec.Vec, d+1)
		s := math.Sqrt(1 - r*r)
		for i := 0; i < d; i++ {
			z[i] = s * u[i]
		}
		z[d] = r
		img := dil.Apply(z)
		if math.Abs(vec.Norm(img)-1) > 1e-10 {
			t.Fatalf("dilation left the sphere: |img| = %v", vec.Norm(img))
		}
		if math.Abs(img[d]) > 1e-10 {
			t.Fatalf("latitude %v mapped to height %v, want 0", r, img[d])
		}
	}
}

func TestDilationInverse(t *testing.T) {
	g := xrand.New(4)
	dil, _ := NewDilationForHeight(0.4)
	inv := ConformalDilation{A: 1 / dil.A}
	for trial := 0; trial < 200; trial++ {
		d := g.IntN(3) + 1
		z := vec.Vec(g.UnitVector(d + 1))
		back := inv.Apply(dil.Apply(z))
		if !vec.ApproxEqual(back, z, 1e-8) {
			t.Fatalf("dilation inverse round trip failed: %v -> %v", z, back)
		}
	}
}

func TestNewDilationRejectsBadHeights(t *testing.T) {
	for _, r := range []float64{-1, 1, 2, math.NaN()} {
		if _, err := NewDilationForHeight(r); err == nil {
			t.Errorf("height %v accepted", r)
		}
	}
}

// The central consistency check of the MTTV pipeline: pulling a plane
// section back through a dilation must commute with mapping points forward.
func TestPullBackSectionConsistent(t *testing.T) {
	g := xrand.New(5)
	for trial := 0; trial < 300; trial++ {
		d := g.IntN(3) + 1
		dil, _ := NewDilationForHeight(g.Float64()*1.6 - 0.8)
		sec, err := NewPlaneSection(vec.Vec(g.UnitVector(d+1)), g.Float64()*1.6-0.8)
		if err != nil {
			t.Fatal(err)
		}
		pulled, err := dil.PullBackSection(sec)
		if err != nil {
			continue // numerically degenerate pullback; skip
		}
		// For random z on S^d the sign of (pulled·z − pulled.Offset) must match
		// the sign of (sec·D(z) − sec.Offset).
		for i := 0; i < 30; i++ {
			z := vec.Vec(g.UnitVector(d + 1))
			want := vec.Dot(sec.Normal, dil.Apply(z)) - sec.Offset
			got := vec.Dot(pulled.Normal, z) - pulled.Offset
			if math.Abs(want) < 1e-6 || math.Abs(got) < 1e-6 {
				continue // too close to the surface to compare signs robustly
			}
			if (want > 0) != (got > 0) {
				t.Fatalf("trial %d: pullback sign mismatch: fwd %v, pulled %v", trial, want, got)
			}
		}
	}
}

func TestPullBackSectionReflect(t *testing.T) {
	g := xrand.New(6)
	for trial := 0; trial < 200; trial++ {
		d := g.IntN(3) + 1
		h := vec.NewHouseholder(vec.Vec(g.UnitVector(d+1)), vec.Vec(g.UnitVector(d+1)))
		sec, err := NewPlaneSection(vec.Vec(g.UnitVector(d+1)), g.Float64()-0.5)
		if err != nil {
			t.Fatal(err)
		}
		pulled := PullBackSectionReflect(h, sec)
		for i := 0; i < 20; i++ {
			z := vec.Vec(g.UnitVector(d + 1))
			want := vec.Dot(sec.Normal, h.Apply(z)) - sec.Offset
			got := vec.Dot(pulled.Normal, z) - pulled.Offset
			if math.Abs(want-got) > 1e-9 {
				t.Fatalf("reflect pullback mismatch: %v vs %v", want, got)
			}
		}
	}
}

// The other key identity: a point x is on the separator in R^d exactly when
// its lift is on the plane section, and sides are consistent (up to a global
// orientation flip, which the algorithms don't rely on).
func TestSectionToSeparatorConsistent(t *testing.T) {
	g := xrand.New(7)
	spheres, halfspaces := 0, 0
	for trial := 0; trial < 400; trial++ {
		d := g.IntN(3) + 1
		sec, err := NewPlaneSection(vec.Vec(g.UnitVector(d+1)), g.Float64()*1.8-0.9)
		if err != nil {
			t.Fatal(err)
		}
		sep, err := SectionToSeparator(sec)
		if err != nil {
			continue // degenerate; acceptable for random sections
		}
		switch sep.(type) {
		case Sphere:
			spheres++
		case Halfspace:
			halfspaces++
		}
		// Compare side signs for random points, allowing one global flip.
		flip := 0 // 0 unknown, +1 same orientation, -1 flipped
		for i := 0; i < 60; i++ {
			x := vec.Scale(3*g.Float64(), vec.Vec(g.UnitVector(d)))
			onSection := vec.Dot(sec.Normal, Lift(x)) - sec.Offset
			side := sep.Side(x)
			if math.Abs(onSection) < 1e-7 || side == 0 {
				continue
			}
			secSide := 1
			if onSection < 0 {
				secSide = -1
			}
			if flip == 0 {
				flip = side * secSide
			} else if side*secSide != flip {
				t.Fatalf("trial %d (%T): inconsistent orientation", trial, sep)
			}
		}
	}
	if spheres == 0 {
		t.Error("no sphere separators produced across 400 random sections")
	}
}

// End-to-end pipeline identity: lift points, apply reflection+dilation, cut
// with a random great circle, pull the section back, project to R^d — the
// resulting separator must classify original points exactly as the great
// circle classifies their conformal images.
func TestFullConformalPipeline(t *testing.T) {
	g := xrand.New(9)
	for trial := 0; trial < 100; trial++ {
		d := g.IntN(3) + 2
		// Random conformal map.
		axis := vec.Vec(g.UnitVector(d + 1))
		last := vec.Basis(d+1, d)
		h := vec.NewHouseholder(axis, last)
		dil, _ := NewDilationForHeight(g.Float64()*1.2 - 0.6)
		// Random great circle.
		gc, err := NewPlaneSection(vec.Vec(g.UnitVector(d+1)), 0)
		if err != nil {
			t.Fatal(err)
		}
		// Pull back: circle' = H⁻¹(D⁻¹(circle)) as a section in original sphere coords.
		pulled, err := dil.PullBackSection(gc)
		if err != nil {
			continue
		}
		section := PullBackSectionReflect(h, pulled)
		sep, err := SectionToSeparator(section)
		if err != nil {
			continue
		}
		flip := 0
		for i := 0; i < 50; i++ {
			x := vec.Scale(2*g.Float64(), vec.Vec(g.UnitVector(d)))
			img := dil.Apply(h.Apply(Lift(x)))
			want := vec.Dot(gc.Normal, img)
			side := sep.Side(x)
			if math.Abs(want) < 1e-6 || side == 0 {
				continue
			}
			wantSide := 1
			if want < 0 {
				wantSide = -1
			}
			if flip == 0 {
				flip = side * wantSide
			} else if side*wantSide != flip {
				t.Fatalf("trial %d: pipeline orientation inconsistent (%T)", trial, sep)
			}
		}
	}
}
