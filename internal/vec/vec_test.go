package vec

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestOfAndClone(t *testing.T) {
	v := Of(1, 2, 3)
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", v.Dim())
	}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone aliased the original: v[0] = %v", v[0])
	}
}

func TestAddSubScale(t *testing.T) {
	a := Of(1, 2, 3)
	b := Of(4, 5, 6)
	if got := Add(a, b); !Equal(got, Of(5, 7, 9)) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a); !Equal(got, Of(3, 3, 3)) {
		t.Errorf("Sub = %v", got)
	}
	if got := Scale(2, a); !Equal(got, Of(2, 4, 6)) {
		t.Errorf("Scale = %v", got)
	}
}

func TestInPlaceOpsAlias(t *testing.T) {
	a := Of(1, 2)
	AddTo(a, a, a)
	if !Equal(a, Of(2, 4)) {
		t.Errorf("AddTo aliasing = %v", a)
	}
	SubTo(a, a, a)
	if !Equal(a, Of(0, 0)) {
		t.Errorf("SubTo aliasing = %v", a)
	}
	b := Of(3, 4)
	ScaleTo(b, 0.5, b)
	if !Equal(b, Of(1.5, 2)) {
		t.Errorf("ScaleTo aliasing = %v", b)
	}
	AXPY(b, 2, Of(1, 1))
	if !Equal(b, Of(3.5, 4)) {
		t.Errorf("AXPY = %v", b)
	}
}

func TestDotNormDist(t *testing.T) {
	a := Of(3, 4)
	if got := Dot(a, a); got != 25 {
		t.Errorf("Dot = %v", got)
	}
	if got := Norm(a); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := Norm2(a); got != 25 {
		t.Errorf("Norm2 = %v", got)
	}
	b := Of(0, 0)
	if got := Dist(a, b); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := Dist2(a, b); got != 25 {
		t.Errorf("Dist2 = %v", got)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched dims did not panic")
		}
	}()
	Add(Of(1), Of(1, 2))
}

func TestCentroid(t *testing.T) {
	pts := []Vec{Of(0, 0), Of(2, 0), Of(0, 2), Of(2, 2)}
	if got := Centroid(pts); !Equal(got, Of(1, 1)) {
		t.Errorf("Centroid = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Centroid(empty) did not panic")
		}
	}()
	Centroid(nil)
}

func TestBasis(t *testing.T) {
	e := Basis(3, 1)
	if !Equal(e, Of(0, 1, 0)) {
		t.Errorf("Basis = %v", e)
	}
}

func TestApproxEqualAndIsFinite(t *testing.T) {
	if !ApproxEqual(Of(1, 2), Of(1.0000001, 2), 1e-6) {
		t.Error("ApproxEqual false negative")
	}
	if ApproxEqual(Of(1, 2), Of(1.1, 2), 1e-6) {
		t.Error("ApproxEqual false positive")
	}
	if ApproxEqual(Of(1), Of(1, 2), 1) {
		t.Error("ApproxEqual must reject mismatched dims")
	}
	if !IsFinite(Of(1, 2)) {
		t.Error("IsFinite false negative")
	}
	if IsFinite(Of(1, math.NaN())) || IsFinite(Of(math.Inf(1))) {
		t.Error("IsFinite false positive")
	}
}

// randVec builds a bounded random vector for property tests.
func randVec(r *rand.Rand, d int) Vec {
	v := make(Vec, d)
	for i := range v {
		v[i] = r.Float64()*20 - 10
	}
	return v
}

func TestPropertyDotSymmetric(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	f := func(seed uint64) bool {
		d := int(seed%7) + 1
		a, b := randVec(r, d), randVec(r, d)
		return almostEq(Dot(a, b), Dot(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	f := func(seed uint64) bool {
		d := int(seed%7) + 1
		a, b, c := randVec(r, d), randVec(r, d), randVec(r, d)
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCauchySchwarz(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	f := func(seed uint64) bool {
		d := int(seed%7) + 1
		a, b := randVec(r, d), randVec(r, d)
		return math.Abs(Dot(a, b)) <= Norm(a)*Norm(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
