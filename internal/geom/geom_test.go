package geom

import (
	"math"
	"testing"

	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

func TestSphereSide(t *testing.T) {
	s, err := NewSphere(vec.Of(0, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Side(vec.Of(0.5, 0)); got != -1 {
		t.Errorf("inside point: Side = %d", got)
	}
	if got := s.Side(vec.Of(2, 0)); got != 1 {
		t.Errorf("outside point: Side = %d", got)
	}
	if got := s.Side(vec.Of(1, 0)); got != 0 {
		t.Errorf("on-sphere point: Side = %d", got)
	}
}

func TestNewSphereRejectsBadInput(t *testing.T) {
	if _, err := NewSphere(vec.Of(0), 0); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := NewSphere(vec.Of(0), -1); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := NewSphere(vec.Of(0), math.NaN()); err == nil {
		t.Error("NaN radius accepted")
	}
	if _, err := NewSphere(vec.Of(math.Inf(1)), 1); err == nil {
		t.Error("infinite center accepted")
	}
}

func TestSphereClassifyBall(t *testing.T) {
	s := Sphere{Center: vec.Of(0, 0), Radius: 10}
	cases := []struct {
		center vec.Vec
		r      float64
		want   Relation
	}{
		{vec.Of(0, 0), 1, Interior},
		{vec.Of(5, 0), 4.9, Interior},
		{vec.Of(5, 0), 6, Crossing},
		{vec.Of(10, 0), 0.5, Crossing},
		{vec.Of(20, 0), 1, Exterior},
		{vec.Of(0, 15), 4, Exterior},
		{vec.Of(0, 0), 10, Crossing}, // ball exactly inscribed touches the sphere
	}
	for i, c := range cases {
		if got := s.ClassifyBall(c.center, c.r); got != c.want {
			t.Errorf("case %d: ClassifyBall(%v, %v) = %v, want %v", i, c.center, c.r, got, c.want)
		}
	}
}

func TestHalfspaceSideAndClassify(t *testing.T) {
	h, err := NewHalfspace(vec.Of(2, 0), 4) // normalizes to x <= 2
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Side(vec.Of(0, 5)); got != -1 {
		t.Errorf("negative side: %d", got)
	}
	if got := h.Side(vec.Of(3, 0)); got != 1 {
		t.Errorf("positive side: %d", got)
	}
	if got := h.Side(vec.Of(2, -7)); got != 0 {
		t.Errorf("on plane: %d", got)
	}
	if got := h.ClassifyBall(vec.Of(0, 0), 1); got != Interior {
		t.Errorf("interior ball: %v", got)
	}
	if got := h.ClassifyBall(vec.Of(4, 0), 1); got != Exterior {
		t.Errorf("exterior ball: %v", got)
	}
	if got := h.ClassifyBall(vec.Of(2.5, 0), 1); got != Crossing {
		t.Errorf("crossing ball: %v", got)
	}
}

func TestNewHalfspaceRejectsZeroNormal(t *testing.T) {
	if _, err := NewHalfspace(vec.Of(0, 0), 1); err == nil {
		t.Error("zero normal accepted")
	}
}

func TestRelationString(t *testing.T) {
	if Interior.String() != "interior" || Crossing.String() != "crossing" || Exterior.String() != "exterior" {
		t.Error("Relation.String misnamed")
	}
	if Relation(7).String() == "" {
		t.Error("unknown relation should still render")
	}
}

func TestBounds(t *testing.T) {
	pts := []vec.Vec{vec.Of(0, 5), vec.Of(2, 1), vec.Of(-1, 3)}
	b := NewBounds(pts)
	if !vec.Equal(b.Lo, vec.Of(-1, 1)) || !vec.Equal(b.Hi, vec.Of(2, 5)) {
		t.Fatalf("Bounds = %v..%v", b.Lo, b.Hi)
	}
	if b.WidestDim() != 1 {
		t.Errorf("WidestDim = %d, want 1", b.WidestDim())
	}
	if got := b.Dist2ToPoint(vec.Of(0, 3)); got != 0 {
		t.Errorf("inside point Dist2 = %v", got)
	}
	if got := b.Dist2ToPoint(vec.Of(4, 0)); math.Abs(got-5) > 1e-12 {
		t.Errorf("outside point Dist2 = %v, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewBounds(empty) did not panic")
		}
	}()
	NewBounds(nil)
}

func TestSphereAndHalfspaceDim(t *testing.T) {
	s := Sphere{Center: vec.Of(0, 0, 0), Radius: 1}
	if s.Dim() != 3 {
		t.Errorf("Sphere.Dim = %d", s.Dim())
	}
	h := Halfspace{Normal: vec.Of(1, 0), Offset: 0}
	if h.Dim() != 2 {
		t.Errorf("Halfspace.Dim = %d", h.Dim())
	}
	if s.String() == "" || h.String() == "" {
		t.Error("String renders empty")
	}
}

// Property: for random balls and spheres, classification agrees with dense
// point sampling of the ball.
func TestClassifyBallAgainstSampling(t *testing.T) {
	g := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		d := g.IntN(3) + 2
		sep := Sphere{Center: vec.Vec(g.InCube(d)), Radius: g.Float64()*2 + 0.5}
		center := vec.Vec(g.InCube(d))
		radius := g.Float64() * 1.5
		rel := sep.ClassifyBall(center, radius)

		sawIn, sawOut := false, false
		for i := 0; i < 200; i++ {
			dir := vec.Vec(g.UnitVector(d))
			p := vec.Add(center, vec.Scale(radius*math.Pow(g.Float64(), 1/float64(d)), dir))
			switch sep.Side(p) {
			case -1:
				sawIn = true
			case 1:
				sawOut = true
			}
		}
		switch rel {
		case Interior:
			if sawOut {
				t.Fatalf("trial %d: interior ball has sampled point outside", trial)
			}
		case Exterior:
			if sawIn {
				t.Fatalf("trial %d: exterior ball has sampled point inside", trial)
			}
		case Crossing:
			// Sampling can miss a thin crossing sliver; no assertion.
		}
	}
}
