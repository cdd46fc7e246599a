package vec

import (
	"math"
	"math/rand/v2"
	"testing"
)

func randUnit(r *rand.Rand, d int) Vec {
	for {
		v := make(Vec, d)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		if Norm(v) > 1e-6 {
			return Normalize(v)
		}
	}
}

func TestHouseholderMapsFromToTo(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	for i := 0; i < 500; i++ {
		d := r.IntN(6) + 2
		from, to := randUnit(r, d), randUnit(r, d)
		h := NewHouseholder(from, to)
		got := h.Apply(from)
		if !ApproxEqual(got, to, 1e-10) {
			t.Fatalf("d=%d: H(from) = %v, want %v", d, got, to)
		}
	}
}

func TestHouseholderPreservesNorm(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	for i := 0; i < 500; i++ {
		d := r.IntN(6) + 2
		h := NewHouseholder(randUnit(r, d), randUnit(r, d))
		v := randVec(r, d)
		if !almostEq(Norm(h.Apply(v)), Norm(v), 1e-10) {
			t.Fatalf("reflection changed norm: |Hv|=%v |v|=%v", Norm(h.Apply(v)), Norm(v))
		}
	}
}

func TestHouseholderInvolution(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	for i := 0; i < 500; i++ {
		d := r.IntN(6) + 2
		h := NewHouseholder(randUnit(r, d), randUnit(r, d))
		v := randVec(r, d)
		back := h.Inverse().Apply(h.Apply(v))
		if !ApproxEqual(back, v, 1e-9) {
			t.Fatalf("H(H(v)) != v: %v vs %v", back, v)
		}
	}
}

func TestHouseholderIdentity(t *testing.T) {
	u := Of(1, 0, 0)
	h := NewHouseholder(u, u)
	if !h.identity {
		t.Fatal("expected identity transform")
	}
	v := Of(3, 4, 5)
	if !Equal(h.Apply(v), v) {
		t.Error("identity Apply changed vector")
	}
}

func TestHouseholderPreservesInnerProducts(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 18))
	for i := 0; i < 200; i++ {
		d := r.IntN(6) + 2
		h := NewHouseholder(randUnit(r, d), randUnit(r, d))
		a, b := randVec(r, d), randVec(r, d)
		if !almostEq(Dot(h.Apply(a), h.Apply(b)), Dot(a, b), 1e-8) {
			t.Fatal("reflection changed inner product")
		}
	}
}

func TestHouseholderNearlyEqualVectors(t *testing.T) {
	// from and to differ by far less than the identity cutoff.
	from := Of(1, 0)
	to := Normalize(Of(1, 1e-17))
	h := NewHouseholder(from, to)
	got := h.Apply(from)
	if math.Abs(Norm(got)-1) > 1e-12 {
		t.Errorf("near-identity reflection broke norm: %v", got)
	}
}

// TestHouseholderNearCoincidentHighDim is the regression for the old
// dimension-independent n2 < 1e-30 degeneracy cutoff: at d = 8, unit
// vectors separated by |from−to|² ≈ 6.4e-31 carry genuine direction
// information (the d·ε² rounding floor is ≈ 3.9e-31), yet the fixed
// cutoff classified them as coincident and returned the identity,
// leaving a residual |H(from)−to| ≈ 8e-16 — an order of magnitude above
// what the reflection achieves.
func TestHouseholderNearCoincidentHighDim(t *testing.T) {
	const d = 8
	// Exact mirror images across the e0 hyperplane: both vectors have
	// identical coordinates except the sign of the first, so their norms
	// are exactly equal (a reflection can only map between equal-norm
	// vectors — at separations this small, even one ulp of norm mismatch
	// would dominate the residual). δ is chosen so |from−to|² = 4δ² lands
	// between the d=8 rounding floor (d·ε² ≈ 3.9e-31) and the old fixed
	// cutoff (1e-30).
	const delta = 4e-16
	from := make(Vec, d)
	for i := 1; i < d; i++ {
		from[i] = 1 / math.Sqrt(d-1)
	}
	to := from.Clone()
	from[0], to[0] = delta, -delta
	n2 := Dist2(from, to)
	if n2 <= d*0x1p-104 || n2 >= 1e-30 {
		t.Fatalf("fixture drifted out of the regression window: |from-to|² = %g", n2)
	}
	h := NewHouseholder(from, to)
	if h.identity {
		t.Fatalf("resolvable |from-to|² = %g at d=%d collapsed to the identity", n2, d)
	}
	if got := Dist(h.Apply(from), to); got >= Dist(from, to) || got > 4e-16 {
		t.Fatalf("reflection residual %g, want < identity residual %g and < 4e-16",
			got, Dist(from, to))
	}
	// Coordinates at one ulp of each other stay on the identity path:
	// that difference is pure rounding noise at every dimension.
	same := from.Clone()
	same[d-1] = math.Nextafter(same[d-1], 2)
	if !NewHouseholder(from, Normalize(same)).identity {
		t.Fatal("one-ulp perturbation no longer treated as coincident")
	}
}
