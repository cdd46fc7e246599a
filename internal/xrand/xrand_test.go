package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children from successive splits must differ from each other.
	diff := false
	for i := 0; i < 32; i++ {
		if c1.Uint64() != c2.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("successive splits produced identical streams")
	}
	// Splitting is itself deterministic.
	p1, p2 := New(9), New(9)
	s1, s2 := p1.Split(), p2.Split()
	for i := 0; i < 32; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestUnitVectorIsUnit(t *testing.T) {
	g := New(1)
	for d := 1; d <= 6; d++ {
		for i := 0; i < 100; i++ {
			v := g.UnitVector(d)
			var n2 float64
			for _, x := range v {
				n2 += x * x
			}
			if math.Abs(n2-1) > 1e-12 {
				t.Fatalf("d=%d: |v|^2 = %v", d, n2)
			}
		}
	}
}

func TestUnitVectorRoughlyUniform(t *testing.T) {
	// Mean of many unit vectors should be near the origin.
	g := New(2)
	const n = 20000
	d := 3
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		v := g.UnitVector(d)
		for j := range mean {
			mean[j] += v[j] / n
		}
	}
	for j, m := range mean {
		if math.Abs(m) > 0.02 {
			t.Errorf("coordinate %d mean %v, want ~0", j, m)
		}
	}
}

func TestInBallInside(t *testing.T) {
	g := New(3)
	for d := 1; d <= 5; d++ {
		for i := 0; i < 200; i++ {
			v := g.InBall(d)
			var n2 float64
			for _, x := range v {
				n2 += x * x
			}
			if n2 > 1+1e-12 {
				t.Fatalf("d=%d: point outside unit ball, |v|^2=%v", d, n2)
			}
		}
	}
}

func TestInBallRadialDistribution(t *testing.T) {
	// In d dimensions, P(|X| <= r) = r^d; check the median radius.
	g := New(4)
	const n = 20000
	d := 2
	count := 0
	median := math.Pow(0.5, 1/float64(d)) // r with r^d = 1/2
	for i := 0; i < n; i++ {
		v := g.InBall(d)
		var n2 float64
		for _, x := range v {
			n2 += x * x
		}
		if math.Sqrt(n2) <= median {
			count++
		}
	}
	frac := float64(count) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("fraction below median radius = %v, want ~0.5", frac)
	}
}

func TestInCubeRange(t *testing.T) {
	g := New(5)
	for i := 0; i < 500; i++ {
		v := g.InCube(4)
		for _, x := range v {
			if x < 0 || x >= 1 {
				t.Fatalf("coordinate %v out of [0,1)", x)
			}
		}
	}
}

func TestSampleDistinctAndInRange(t *testing.T) {
	g := New(6)
	for trial := 0; trial < 200; trial++ {
		n := g.IntN(50) + 1
		k := g.IntN(n) + 1
		if k > n {
			k = n
		}
		s := g.Sample(n, k)
		if len(s) != k {
			t.Fatalf("Sample returned %d values, want %d", len(s), k)
		}
		seen := map[int]bool{}
		for _, x := range s {
			if x < 0 || x >= n {
				t.Fatalf("sample value %d out of range [0,%d)", x, n)
			}
			if seen[x] {
				t.Fatalf("duplicate sample value %d", x)
			}
			seen[x] = true
		}
	}
}

func TestSamplePanicsWhenTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sample(2,3) did not panic")
		}
	}()
	New(1).Sample(2, 3)
}

func TestBernoulliExtremes(t *testing.T) {
	g := New(8)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}
