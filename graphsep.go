package sepdc

import (
	"context"
	"fmt"

	"sepdc/internal/geom"
	"sepdc/internal/knngraph"
	"sepdc/internal/nbrsys"
	"sepdc/internal/separator"
	"sepdc/internal/xrand"
)

// GraphSeparator is a balanced vertex separator of a k-nearest-neighbor
// graph, induced by a sphere separator of the underlying points — the
// object the paper's introduction promises for "nicely embedded" graphs:
// removing W leaves no edge between the interior and exterior vertex sets.
type GraphSeparator struct {
	// Separator is the inducing sphere (or fallback hyperplane).
	Separator *SeparatorResult
	// W is the separator vertex set, ascending. |W| = O(n^{(d−1)/d}) by
	// the Sphere Separator Theorem.
	W []int
	// Interior and Exterior list the vertices on each side, excluding W.
	Interior, Exterior []int
	// CrossingEdges counts graph edges with endpoints on opposite sides;
	// every one of them has an endpoint in W.
	CrossingEdges int
}

// FindGraphSeparator computes a balanced vertex separator of the k-NN
// graph of the points. The graph itself need not be precomputed; pass the
// same k used for the graph of interest.
func FindGraphSeparator(points [][]float64, k int, seed uint64) (*GraphSeparator, error) {
	ps, err := convert(points)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("sepdc: k must be >= 1, got %d", k)
	}
	g := xrand.New(seed)
	res, err := separator.FindGoodFlat(ps, g, nil)
	if err != nil {
		return nil, err
	}
	sys := nbrsys.KNeighborhoodFlat(ps, k)
	// Reuse the flat point set already built above instead of converting
	// the [][]float64 rows a second time.
	graph, err := buildFromPointSet(context.Background(), ps, k, &Options{Algorithm: KDTree})
	if err != nil {
		return nil, err
	}
	vs := knngraph.InducedVertexSeparator(graph.csr, sys.Centers, sys, res.Sep)

	out := &GraphSeparator{
		Separator:     toSeparatorResult(res),
		W:             vs.W,
		CrossingEdges: vs.CrossingEdges,
	}
	inW := make([]bool, ps.N())
	for _, w := range vs.W {
		inW[w] = true
	}
	for i, p := range sys.Centers {
		if inW[i] {
			continue
		}
		if res.Sep.Side(p) <= 0 {
			out.Interior = append(out.Interior, i)
		} else {
			out.Exterior = append(out.Exterior, i)
		}
	}
	return out, nil
}

// toSeparatorResult converts an internal separator result to the public
// shape (shared with FindSeparator).
func toSeparatorResult(res separator.Result) *SeparatorResult {
	out := &SeparatorResult{
		Interior: res.Stats.Interior,
		Exterior: res.Stats.Exterior,
		Ratio:    res.Stats.Ratio(),
		Trials:   res.Trials,
		Punted:   res.Punted,
	}
	switch s := res.Sep.(type) {
	case geom.Sphere:
		out.Kind = SphereSeparator
		out.Center = append([]float64(nil), s.Center...)
		out.Radius = s.Radius
	case geom.Halfspace:
		out.Kind = HyperplaneSeparator
		out.Normal = append([]float64(nil), s.Normal...)
		out.Offset = s.Offset
	}
	return out
}
