package sepdc

import (
	"sepdc/internal/geom"
	"sepdc/internal/nbrsys"
	"sepdc/internal/separator"
	"sepdc/internal/xrand"
)

// SeparatorKind discriminates the two separator shapes. A great circle
// through the stereographic north pole projects to a hyperplane, and the
// retry loop can also fall back to a median hyperplane, so callers must be
// prepared for both.
type SeparatorKind string

const (
	// SphereSeparator is a (d−1)-sphere {x : |x − Center| = Radius}.
	SphereSeparator SeparatorKind = "sphere"
	// HyperplaneSeparator is the hyperplane {x : Normal·x = Offset}.
	HyperplaneSeparator SeparatorKind = "hyperplane"
)

// SeparatorResult describes a separator found for a point set.
type SeparatorResult struct {
	Kind SeparatorKind
	// Sphere fields (Kind == SphereSeparator).
	Center []float64
	Radius float64
	// Hyperplane fields (Kind == HyperplaneSeparator). Normal is unit.
	Normal []float64
	Offset float64
	// Interior and Exterior count the points on each side (on-surface
	// points count as interior, following the paper).
	Interior, Exterior int
	// Ratio is max(Interior, Exterior)/n; Theorem 2.1 promises a separator
	// with Ratio ≤ (d+1)/(d+2) + ε exists and is found quickly.
	Ratio float64
	// Trials is how many Unit Time Separator candidates were consumed.
	Trials int
	// Punted reports that the randomized search exhausted its budget and a
	// median hyperplane was returned instead.
	Punted bool
	// CrossingBalls is ι_B(S): how many k-neighborhood balls of the point
	// set the separator crosses (computed when k > 0 was requested).
	CrossingBalls int
}

// FindSeparator runs the Miller–Teng–Thurston–Vavasis sphere separator
// search on the points (Section 2 of the paper). When k ≥ 1, the k-
// neighborhood system is built and the separator's intersection number
// ι_B(S) is reported; pass k = 0 to skip that (it costs an all-k-NN
// construction).
func FindSeparator(points [][]float64, k int, seed uint64) (*SeparatorResult, error) {
	ps, err := convert(points)
	if err != nil {
		return nil, err
	}
	res, err := separator.FindGoodFlat(ps, xrand.New(seed), nil)
	if err != nil {
		return nil, err
	}
	out := toSeparatorResult(res)
	if k >= 1 {
		sys := nbrsys.KNeighborhoodFlat(ps, k)
		out.CrossingBalls = sys.IntersectionNumber(res.Sep)
	}
	return out, nil
}

// Side reports which side of the separator a point lies on: −1 interior
// (or on the surface), +1 exterior.
func (s *SeparatorResult) Side(point []float64) int {
	var sep geom.Separator
	switch s.Kind {
	case SphereSeparator:
		sep = geom.Sphere{Center: s.Center, Radius: s.Radius}
	default:
		sep = geom.Halfspace{Normal: s.Normal, Offset: s.Offset}
	}
	if sep.Side(point) <= 0 {
		return -1
	}
	return 1
}
