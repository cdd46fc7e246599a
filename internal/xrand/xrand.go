// Package xrand provides a seeded, splittable source of randomness for the
// randomized components of the library (separator sampling, workload
// generation, probabilistic-tree simulation).
//
// Every randomized algorithm in this repository takes an *xrand.RNG rather
// than reaching for a global source, so that
//
//   - experiments are exactly reproducible from a single integer seed, and
//   - parallel recursive calls can each receive an independent stream via
//     Split without locking a shared generator.
//
// The generator is math/rand/v2's PCG, which is fast, has a tiny state, and
// permits deterministic splitting by deriving child seeds from the parent
// stream.
package xrand

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random stream with geometric helpers.
type RNG struct {
	r *rand.Rand
}

// New returns a stream seeded from a single integer.
func New(seed uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Split returns a new independent stream derived from (and advancing) r.
// Two successive Splits yield streams that are independent of each other
// and of the parent's subsequent output.
func (g *RNG) Split() *RNG {
	return &RNG{r: rand.New(rand.NewPCG(g.r.Uint64(), g.r.Uint64()))}
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Shuffle randomly permutes the first n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// UnitVector returns a uniformly distributed point on the unit sphere
// S^{d-1} in R^d, via the normalized-Gaussian construction.
func (g *RNG) UnitVector(d int) []float64 {
	for {
		v := make([]float64, d)
		var n2 float64
		for i := range v {
			v[i] = g.r.NormFloat64()
			n2 += v[i] * v[i]
		}
		if n2 > 1e-20 {
			n := 1 / math.Sqrt(n2)
			for i := range v {
				v[i] *= n
			}
			return v
		}
	}
}

// InBall returns a uniformly distributed point in the unit ball of R^d.
func (g *RNG) InBall(d int) []float64 {
	v := g.UnitVector(d)
	r := math.Pow(g.r.Float64(), 1/float64(d))
	for i := range v {
		v[i] *= r
	}
	return v
}

// InCube returns a uniformly distributed point in [0, 1)^d.
func (g *RNG) InCube(d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = g.r.Float64()
	}
	return v
}

// Sample returns k distinct indices drawn uniformly from [0, n) in
// O(k) expected time (Floyd's algorithm). It panics when k > n.
func (g *RNG) Sample(n, k int) []int {
	if k > n {
		panic("xrand: sample size exceeds population")
	}
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := g.r.IntN(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
