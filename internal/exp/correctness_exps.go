package exp

import (
	"sepdc/internal/brute"
	"sepdc/internal/core"
	"sepdc/internal/knngraph"
	"sepdc/internal/march"
	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/stats"
	"sepdc/internal/topk"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// fingerprint reduces per-point lists to comparable (first neighbor, count)
// pairs for the E11 exactness column; full structural comparison happens in
// E9 and the test suite.
func fingerprint(lists []*topk.List) [][2]int {
	out := make([][2]int, len(lists))
	for i, l := range lists {
		first := -1
		if l.Len() > 0 {
			first = l.Items()[0].Idx
		}
		out[i] = [2]int{first, l.Len()}
	}
	return out
}

// makeBalls builds count marching balls at k-NN scale from a D&C result.
func makeBalls(pts []vec.Vec, res *core.Result, count int, g *xrand.RNG) []march.Ball {
	if count > len(pts) {
		count = len(pts)
	}
	balls := make([]march.Ball, 0, count)
	for _, i := range g.Sample(len(pts), count) {
		r2, full := res.Lists[i].Radius2()
		if !full {
			continue
		}
		balls = append(balls, march.NewBall(i, pts[i], r2))
	}
	return balls
}

// runE9 verifies graph-level exactness of both algorithms against brute
// force across distributions, dimensions, and k values.
func runE9(cfg Config) []*stats.Table {
	g := xrand.New(cfg.Seed + 9)
	n := 400
	if cfg.Quick {
		n = 200
	}
	tb := &stats.Table{
		Title:  "Exactness vs brute force (n=" + stats.FormatFloat(float64(n)) + ")",
		Header: []string{"input", "d", "k", "sphere D&C", "hyperplane D&C"},
	}
	fails := 0
	for _, dist := range pointgen.All {
		for _, d := range []int{1, 2, 3} {
			for _, k := range []int{1, 3} {
				pts := pointgen.Dedup(pointgen.MustGenerate(dist, n, d, g.Split()))
				ref := knngraph.FromLists(brute.AllKNN(pts, k), k)
				verdict := func(res *core.Result, err error) string {
					if err != nil {
						fails++
						return "error: " + err.Error()
					}
					if diff := knngraph.Diff(ref, knngraph.FromLists(res.Lists, k)); diff != "" {
						fails++
						return "DIFF: " + diff
					}
					return "exact"
				}
				s := verdict(core.SphereDNC(pts, g.Split(), &core.Options{K: k}))
				h := verdict(core.HyperplaneDNC(pts, g.Split(), &core.Options{K: k}))
				tb.AddRow(string(dist), d, k, s, h)
			}
		}
	}
	tb.AddNote("failures: %d (claim: 0 — both algorithms are exact)", fails)
	return []*stats.Table{tb}
}

// runE12 verifies the Density Lemma: max ply ≤ τ_d·k.
func runE12(cfg Config) []*stats.Table {
	g := xrand.New(cfg.Seed + 12)
	n := 2000
	if cfg.Quick {
		n = 600
	}
	tb := &stats.Table{
		Title:  "Density Lemma: ply of k-neighborhood systems",
		Header: []string{"input", "d", "k", "max ply", "τ_d·k", "ply/(τ_d·k)"},
	}
	violations := 0
	for _, dist := range []pointgen.Dist{pointgen.UniformCube, pointgen.Clustered, pointgen.Annulus} {
		for _, d := range []int{1, 2, 3} {
			for _, k := range []int{1, 4} {
				pts := pointgen.Dedup(pointgen.MustGenerate(dist, n, d, g.Split()))
				sys := nbrsys.KNeighborhood(pts, k)
				maxPly := sys.MaxPlyAtCenters()
				bound := nbrsys.KissingNumber(d) * k
				if maxPly > bound {
					violations++
				}
				tb.AddRow(string(dist), d, k, maxPly, bound,
					float64(maxPly)/float64(bound))
			}
		}
	}
	tb.AddNote("violations of the τ_d·k bound: %d (claim: 0)", violations)
	return []*stats.Table{tb}
}
