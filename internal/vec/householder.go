package vec

import "math"

// Householder is an orthogonal reflection H = I - 2 u u^T with |u| = 1.
// It is the cheapest way to realize the rotations needed by the
// Miller–Teng–Thurston–Vavasis conformal map: a single reflection maps any
// given unit vector onto any other, and applying it costs O(d) per point
// with no matrix storage.
type Householder struct {
	u        Vec  // unit reflection axis; nil means identity
	identity bool // true when the requested map was already the identity
}

// NewHouseholder returns the reflection mapping unit vector `from` to unit
// vector `to`. Both inputs must be unit length (checked loosely). When the
// vectors already coincide the identity transform is returned.
//
// The identity test is scale-aware: a unit vector in R^d carries at most
// O(ε) rounding noise per coordinate on magnitudes summing to 1, so the
// smallest squared difference that encodes genuine direction information
// is Θ(d·ε²) — about d·4.9e-32. Anything below that floor is
// indistinguishable from coincidence and maps to the identity; anything
// above it builds the reflection, which sends `from` to `to` exactly
// regardless of how small the difference is. (The previous fixed 1e-30
// cutoff sat above this floor once d ≳ 3, silently discarding resolvable
// sub-ulp rotations at higher dimensions — nearly-coincident unit
// vectors at d=8 were mapped by the identity with an error ~20× the
// vectors' own rounding noise.)
func NewHouseholder(from, to Vec) Householder {
	assertSameDim(from, to)
	diff := Sub(from, to)
	n2 := Norm2(diff)
	const eps2 = 0x1p-104 // (2^-52)²: squared relative rounding unit
	if n2 < float64(len(from))*eps2 {
		return Householder{identity: true}
	}
	return Householder{u: Scale(1/math.Sqrt(n2), diff)}
}

// Apply returns H·v as a new vector.
func (h Householder) Apply(v Vec) Vec {
	if h.identity {
		return v.Clone()
	}
	s := 2 * Dot(h.u, v)
	w := v.Clone()
	return AXPY(w, -s, h.u)
}

// Inverse returns the inverse transform. Reflections are involutions, so the
// inverse is the reflection itself; the method exists for call-site clarity.
func (h Householder) Inverse() Householder { return h }
