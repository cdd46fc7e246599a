package vec

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestNullVectorSatisfiesSystem(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 24))
	for trial := 0; trial < 300; trial++ {
		m := r.IntN(5) + 1
		n := m + 1 + r.IntN(3)
		A := make([][]float64, m)
		for i := range A {
			A[i] = make([]float64, n)
			for j := range A[i] {
				A[i][j] = r.Float64()*4 - 2
			}
		}
		x, err := NullVector(A)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Verify A x ~= 0 and x != 0.
		maxAbs := 0.0
		for _, v := range x {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if !almostEq(maxAbs, 1, 1e-9) {
			t.Fatalf("trial %d: null vector not normalized, max=%v", trial, maxAbs)
		}
		for i := range A {
			s := 0.0
			for j := range x {
				s += A[i][j] * x[j]
			}
			if math.Abs(s) > 1e-8 {
				t.Fatalf("trial %d: residual %v in row %d", trial, s, i)
			}
		}
	}
}

func TestNullVectorErrors(t *testing.T) {
	if _, err := NullVector(nil); err == nil {
		t.Error("expected error for empty system")
	}
	if _, err := NullVector([][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Error("expected error for square system")
	}
	if _, err := NullVector([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("expected error for ragged system")
	}
}
