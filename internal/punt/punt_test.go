package punt

import (
	"math"
	"testing"

	"sepdc/internal/xrand"
)

func TestZeroLogWeights(t *testing.T) {
	spec := ZeroLog()
	if spec.A(8) != 0 {
		t.Error("lucky weight nonzero")
	}
	if spec.B(8) != 3 {
		t.Errorf("unlucky weight = %v, want log2(8)=3", spec.B(8))
	}
}

func TestConstLogWeights(t *testing.T) {
	spec := ConstLog(2)
	if spec.A(16) != 2 {
		t.Errorf("lucky weight = %v", spec.A(16))
	}
	if spec.B(16) != 6 {
		t.Errorf("unlucky weight = %v, want 2+4", spec.B(16))
	}
}

func TestMaxWeightedDepthDeterministicCases(t *testing.T) {
	g := xrand.New(1)
	// A (1, 1)-tree has RD = levels+1 regardless of luck.
	ones := Spec{
		A: func(m int) float64 { return 1 },
		B: func(m int) float64 { return 1 },
	}
	for levels := 0; levels <= 6; levels++ {
		if got := MaxWeightedDepth(levels, ones, g); got != float64(levels+1) {
			t.Errorf("levels=%d: RD = %v, want %v", levels, got, levels+1)
		}
	}
	// All-zero tree.
	zero := Spec{A: func(int) float64 { return 0 }, B: func(int) float64 { return 0 }}
	if got := MaxWeightedDepth(5, zero, g); got != 0 {
		t.Errorf("zero tree RD = %v", got)
	}
}

func TestMaxWeightedDepthPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative levels accepted")
		}
	}()
	MaxWeightedDepth(-1, ZeroLog(), xrand.New(1))
}

func TestPuntingLemmaEmpirically(t *testing.T) {
	// Lemma 4.1: RD(n) = O(log n) w.h.p. For a (0, log m)-tree with 2^12
	// leaves, the empirical 99th percentile of RD must be within a small
	// constant multiple of log n.
	g := xrand.New(2)
	levels := 12
	samples := Simulate(levels, 400, ZeroLog(), g)
	p99 := Quantile(samples, 0.99)
	if p99 > 6*float64(levels) {
		t.Errorf("p99 RD = %v for log n = %d; punting lemma shape violated", p99, levels)
	}
	// The median must be small too: most paths see almost no unlucky nodes.
	med := Quantile(samples, 0.5)
	if med > 4*float64(levels) {
		t.Errorf("median RD = %v too large", med)
	}
}

func TestEmpiricalTailBelowLemmaBound(t *testing.T) {
	// Where the analytic bound is nontrivial (< 1), the empirical tail
	// must not exceed it by more than sampling noise.
	g := xrand.New(3)
	levels := 10
	samples := Simulate(levels, 600, ZeroLog(), g)
	for _, c := range []float64{2, 3, 4} {
		bound := LemmaBound(levels, c)
		if bound >= 1 {
			continue
		}
		emp := TailProbability(samples, 2*c*float64(levels))
		slack := 3 * math.Sqrt(bound*(1-bound)/600) // ~3σ binomial noise
		if emp > bound+slack+0.01 {
			t.Errorf("c=%v: empirical tail %v exceeds bound %v", c, emp, bound)
		}
	}
}

func TestCorollaryConstLogShape(t *testing.T) {
	// Corollary 4.1: the (C, log m)-tree has RD within 2(c+C) log n w.h.p.
	g := xrand.New(4)
	levels := 10
	C := 3.0
	samples := Simulate(levels, 300, ConstLog(C), g)
	p99 := Quantile(samples, 0.99)
	// RD >= C per level deterministically; w.h.p. not much more.
	lo := C * float64(levels)
	if p99 < lo {
		t.Errorf("p99 = %v below deterministic floor %v", p99, lo)
	}
	if p99 > 2*(4+C)*float64(levels) {
		t.Errorf("p99 = %v above corollary envelope", p99)
	}
}

func TestTailProbability(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	if got := TailProbability(sorted, 3); got != 0.4 {
		t.Errorf("TailProbability(3) = %v, want 0.4", got)
	}
	if got := TailProbability(sorted, 0); got != 1 {
		t.Errorf("TailProbability(0) = %v", got)
	}
	if got := TailProbability(sorted, 5); got != 0 {
		t.Errorf("TailProbability(5) = %v", got)
	}
	if TailProbability(nil, 1) != 0 {
		t.Error("empty tail nonzero")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if Quantile(sorted, 0) != 10 || Quantile(sorted, 1) != 40 {
		t.Error("extreme quantiles wrong")
	}
	if q := Quantile(sorted, 0.5); q != 20 {
		t.Errorf("median = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile not NaN")
	}
}

func TestConstants(t *testing.T) {
	if math.Abs(Rho-0.8243606) > 1e-6 {
		t.Errorf("Rho = %v", Rho)
	}
	if BoundConstant < 1 {
		t.Errorf("A = %v must exceed 1", BoundConstant)
	}
	// The bound decreases in c and is capped at 1.
	if LemmaBound(10, 0.1) != 1 {
		t.Error("tiny c should cap at 1")
	}
	if LemmaBound(10, 3) <= LemmaBound(10, 5) {
		t.Error("bound not decreasing in c")
	}
}

func TestSimulateSortedAndSized(t *testing.T) {
	g := xrand.New(5)
	s := Simulate(6, 50, ZeroLog(), g)
	if len(s) != 50 {
		t.Fatalf("got %d samples", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			t.Fatal("samples not sorted")
		}
	}
}
