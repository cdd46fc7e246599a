// Package punt implements the probabilistic (a,b)-trees of Section 4 of
// the paper and the Punting Lemma's moment-generating-function tail bound.
//
// A probabilistic (a,b)-tree of size n = 2^m is a complete binary tree
// whose node with m_v leaves below it weighs a(m_v) with probability
// 1 − 1/m_v and b(m_v) with probability 1/m_v. The (0, log m)-tree models
// the "run-A-first-if-unlucky-then-run-B" hybrid: a lucky node costs
// nothing extra, an unlucky node pays the slow algorithm's log-factor. The
// Punting Lemma bounds the maximum weighted root–leaf depth RD(n):
//
//	Pr( RD(n) > 2c·log n ) ≤ n·A·e^{−c·log n},  A = e^{ρ/(1−ρ)}, ρ = √e/2.
//
// Experiment E4 simulates RD(n) and compares its empirical tail to the
// bound.
package punt

import (
	"math"
	"sort"

	"sepdc/internal/xrand"
)

// Spec defines the weight functions of a probabilistic (a,b)-tree. m is
// the number of leaves under the node.
type Spec struct {
	A func(m int) float64 // weight with probability 1 − 1/m
	B func(m int) float64 // weight with probability 1/m
}

// ZeroLog returns the (0, log m)-tree of Lemma 4.1.
func ZeroLog() Spec {
	return Spec{
		A: func(m int) float64 { return 0 },
		B: func(m int) float64 { return math.Log2(float64(m)) },
	}
}

// ConstLog returns the (C, log m)-tree of Corollary 4.1: every node costs
// C even when lucky.
func ConstLog(c float64) Spec {
	return Spec{
		A: func(m int) float64 { return c },
		B: func(m int) float64 { return c + math.Log2(float64(m)) },
	}
}

// MaxWeightedDepth draws one probabilistic tree with 2^levels leaves and
// returns RD(n): the maximum over leaves of the summed node weights on the
// root path. The tree is never materialized; the recursion draws weights
// on the fly, which is exact because node weights are independent.
func MaxWeightedDepth(levels int, spec Spec, g *xrand.RNG) float64 {
	if levels < 0 {
		panic("punt: negative levels")
	}
	var rec func(h int) float64
	rec = func(h int) float64 {
		m := 1 << uint(h)
		var w float64
		if g.Float64() < 1/float64(m) {
			w = spec.B(m)
		} else {
			w = spec.A(m)
		}
		if h == 0 {
			return w
		}
		l := rec(h - 1)
		r := rec(h - 1)
		if r > l {
			l = r
		}
		return w + l
	}
	return rec(levels)
}

// Simulate draws trials independent trees and returns the sorted RD
// samples.
func Simulate(levels, trials int, spec Spec, g *xrand.RNG) []float64 {
	out := make([]float64, trials)
	for i := range out {
		out[i] = MaxWeightedDepth(levels, spec, g)
	}
	sort.Float64s(out)
	return out
}

// TailProbability returns the fraction of sorted samples strictly
// exceeding threshold.
func TailProbability(sorted []float64, threshold float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(sorted, math.Nextafter(threshold, math.Inf(1)))
	return float64(len(sorted)-i) / float64(len(sorted))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted samples.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// Rho is the paper's ρ = √e / 2 ≈ 0.824.
var Rho = math.Sqrt(math.E) / 2

// BoundConstant is the paper's A = e^{ρ/(1−ρ)}.
var BoundConstant = math.Exp(Rho / (1 - Rho))

// LemmaBound evaluates the right-hand side of Lemma 4.1,
// n·A·e^{−c·log n}, with log n = levels (the tree's height in the paper's
// m = log n convention). Values above 1 are reported as 1 (a probability).
func LemmaBound(levels int, c float64) float64 {
	n := math.Pow(2, float64(levels))
	b := n * BoundConstant * math.Exp(-c*float64(levels))
	if b > 1 {
		return 1
	}
	return b
}
