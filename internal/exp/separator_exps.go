package exp

import (
	"fmt"
	"math"

	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/punt"
	"sepdc/internal/separator"
	"sepdc/internal/septree"
	"sepdc/internal/stats"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// runE1 measures separator quality: intersection number scaling, split
// ratio, and per-trial success probability (Theorem 2.1 and the Unit Time
// Separator Algorithm).
func runE1(cfg Config) []*stats.Table {
	g := xrand.New(cfg.Seed + 1)
	var tables []*stats.Table
	for _, d := range []int{2, 3} {
		tb := &stats.Table{
			Title:  stats.FormatFloat(float64(d)) + "D separator quality (uniform cube, k=1)",
			Header: []string{"n", "med ι(S)", "ι/n^((d-1)/d)", "med ratio", "mean trials", "punt rate"},
		}
		var ns, iotas []float64
		for _, n := range cfg.sizes() {
			pts := pointgen.MustGenerate(pointgen.UniformCube, n, d, g.Split())
			sys := nbrsys.KNeighborhood(pts, 1)
			var crossings []int
			var ratios []float64
			trials, punts := 0, 0
			for r := 0; r < cfg.repeats(); r++ {
				res, err := separator.FindGood(pts, g.Split(), nil)
				if err != nil {
					continue
				}
				trials += res.Trials
				if res.Punted {
					punts++
					continue
				}
				crossings = append(crossings, sys.IntersectionNumber(res.Sep))
				ratios = append(ratios, res.Stats.Ratio())
			}
			medI := stats.MedianInt(crossings)
			norm := float64(medI) / math.Pow(float64(n), float64(d-1)/float64(d))
			sortedRatios := append([]float64(nil), ratios...)
			medR := stats.Summarize(sortedRatios).Median
			tb.AddRow(n, medI, norm, medR,
				float64(trials)/float64(cfg.repeats()),
				float64(punts)/float64(cfg.repeats()))
			ns = append(ns, float64(n))
			if medI > 0 {
				iotas = append(iotas, float64(medI))
			} else {
				iotas = append(iotas, 1)
			}
		}
		fit := stats.PowerFit(ns, iotas)
		tb.AddNote("fitted ι(S) ~ n^%.3f (theory exponent (d-1)/d = %.3f), R²=%.3f",
			fit.Slope, float64(d-1)/float64(d), fit.R2)
		tb.AddNote("theory split bound δ = (d+1)/(d+2)+ε = %.3f", float64(d+1)/float64(d+2))
		tables = append(tables, tb)
	}
	return tables
}

// runE2 measures the Section-3 search structure: height, space, and query
// cost (Lemma 3.1), across d and k — the default leaf size grows with both
// k and log n, so space and the leaf scan are checked on the whole grid.
func runE2(cfg Config) []*stats.Table {
	g := xrand.New(cfg.Seed + 2)
	var tables []*stats.Table
	for _, d := range []int{2, 3} {
		tb := &stats.Table{
			Title:  fmt.Sprintf("Query structure (uniform ball, d=%d)", d),
			Header: []string{"k", "n", "height", "height/log2 n", "stored/n", "leaves", "forced leaves", "mean query visits", "max query visits", "mean leaf candidates", "cands/(k+log2 n)"},
		}
		for _, k := range []int{1, 4, 8} {
			for _, n := range cfg.sizes() {
				pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformBall, n, d, g.Split()))
				sys := nbrsys.KNeighborhood(pts, k)
				tree, err := septree.Build(sys, g.Split(), nil)
				if err != nil {
					continue
				}
				frozen, err := septree.Freeze(tree)
				if err != nil {
					continue
				}
				logN := math.Log2(float64(len(pts)))
				visits, cands, maxV := 0, 0, 0
				queries := 400
				var buf []int
				for q := 0; q < queries; q++ {
					var visited, scanned int
					buf, visited, scanned = frozen.Covering(pts[g.IntN(len(pts))], buf[:0])
					visits += visited
					cands += scanned
					maxV = max(maxV, visited)
				}
				meanCands := float64(cands) / float64(queries)
				tb.AddRow(k, len(pts), tree.Stats.Height,
					float64(tree.Stats.Height)/logN,
					float64(tree.Stats.TotalStored)/float64(len(pts)),
					tree.Stats.Leaves, tree.Stats.ForcedLeaves,
					float64(visits)/float64(queries), maxV,
					meanCands, meanCands/(float64(k)+logN))
			}
		}
		tb.AddNote("claims: height/log2 n bounded by a constant; stored/n bounded in n for each k (space O(n)); query visits O(log n); leaf candidates O(k + log n) (the audit bounds cands/(k+log2 n) by 4)")
		tables = append(tables, tb)
	}
	return tables
}

// runE3 measures the parallel-construction depth of the query structure:
// the separator-trial count on the critical path (Theorem 3.1).
func runE3(cfg Config) []*stats.Table {
	g := xrand.New(cfg.Seed + 3)
	tb := &stats.Table{
		Title:  "Parallel construction critical path (uniform cube, d=2, k=1)",
		Header: []string{"n", "med critical trials", "max critical trials", "crit/log2 n", "total trials", "build steps", "steps/log2 n"},
	}
	for _, n := range cfg.sizes() {
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, n, 2, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 1)
		var crit []int
		totalTrials := 0
		var steps int64
		for r := 0; r < cfg.repeats(); r++ {
			tree, err := septree.Build(sys, g.Split(), nil)
			if err != nil {
				continue
			}
			crit = append(crit, tree.Stats.CriticalTrials)
			totalTrials += tree.Stats.SeparatorTrials
			steps = tree.Stats.Cost.Steps
		}
		if len(crit) == 0 {
			continue
		}
		logN := math.Log2(float64(len(pts)))
		maxC := 0
		for _, c := range crit {
			if c > maxC {
				maxC = c
			}
		}
		tb.AddRow(len(pts), stats.MedianInt(crit), maxC,
			float64(stats.MedianInt(crit))/logN,
			totalTrials/cfg.repeats(), steps, float64(steps)/logN)
	}
	tb.AddNote("claim: critical trials and simulated build steps are O(log n); the normalized columns should stay near-constant")
	return []*stats.Table{tb}
}

// runE4 simulates probabilistic (a,b)-trees and compares the empirical RD
// tail to the Punting Lemma bound.
func runE4(cfg Config) []*stats.Table {
	g := xrand.New(cfg.Seed + 4)
	trials := 300
	if cfg.Quick {
		trials = 100
	}
	tb := &stats.Table{
		Title:  "Punting Lemma: RD(n) of probabilistic (0, log m)-trees",
		Header: []string{"log n", "median RD", "p99 RD", "max RD", "RD/log n (p99)", "tail@2c=4", "bound c=2", "tail@2c=6", "bound c=3"},
	}
	levelsSweep := []int{8, 10, 12, 14}
	if cfg.Quick {
		levelsSweep = []int{8, 10}
	}
	for _, levels := range levelsSweep {
		samples := punt.Simulate(levels, trials, punt.ZeroLog(), g.Split())
		p99 := punt.Quantile(samples, 0.99)
		tb.AddRow(levels,
			punt.Quantile(samples, 0.5), p99, samples[len(samples)-1],
			p99/float64(levels),
			punt.TailProbability(samples, 2*2*float64(levels)), punt.LemmaBound(levels, 2),
			punt.TailProbability(samples, 2*3*float64(levels)), punt.LemmaBound(levels, 3))
	}
	tb.AddNote("claim: empirical tails sit below the analytic bound wherever it is nontrivial; RD/log n stays bounded")

	// Corollary 4.1 variant.
	tb2 := &stats.Table{
		Title:  "Corollary 4.1: (C, log m)-trees, C=2",
		Header: []string{"log n", "median RD", "p99 RD", "(p99-C·logn)/log n"},
	}
	for _, levels := range levelsSweep {
		samples := punt.Simulate(levels, trials, punt.ConstLog(2), g.Split())
		p99 := punt.Quantile(samples, 0.99)
		tb2.AddRow(levels, punt.Quantile(samples, 0.5), p99,
			(p99-2*float64(levels))/float64(levels))
	}
	tb2.AddNote("the deterministic C·log n floor plus an O(log n) random excess")
	return []*stats.Table{tb, tb2}
}

// runE5 compares ball-crossing counts of sphere separators against median
// hyperplanes across benign and adversarial inputs.
func runE5(cfg Config) []*stats.Table {
	g := xrand.New(cfg.Seed + 5)
	n := 1 << 14
	if cfg.Quick {
		n = 1 << 12
	}
	tb := &stats.Table{
		Title:  "Crossing balls: sphere vs hyperplane (d=2, k=2, n=" + stats.FormatFloat(float64(n)) + ")",
		Header: []string{"input", "sphere ι", "widest-median ι", "fixed-dim ι", "sphere/n", "fixed/n"},
	}
	for _, dist := range []pointgen.Dist{pointgen.UniformCube, pointgen.Annulus, pointgen.LineNoise, pointgen.Clustered} {
		pts := pointgen.Dedup(pointgen.MustGenerate(dist, n, 2, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 2)

		var sphereCross []int
		for r := 0; r < cfg.repeats(); r++ {
			res, err := separator.FindGood(pts, g.Split(), nil)
			if err != nil || res.Punted {
				continue
			}
			sphereCross = append(sphereCross, sys.IntersectionNumber(res.Sep))
		}
		sMed := stats.MedianInt(sphereCross)

		widest := -1
		if sep, err := separator.MedianHyperplane(pts); err == nil {
			widest = sys.IntersectionNumber(sep)
		}
		fixed := -1
		// Cut along the dimension with the smallest spread: Bentley's fixed
		// orientation hitting the adversarial case.
		if sep, err := separator.FixedHyperplane(pts, narrowestDim(pts)); err == nil {
			fixed = sys.IntersectionNumber(sep)
		}
		tb.AddRow(string(dist), sMed, widest, fixed,
			float64(sMed)/float64(len(pts)), float64(fixed)/float64(len(pts)))
	}
	tb.AddNote("claim: fixed-orientation hyperplanes cross Ω(n) balls on line-noise; spheres stay o(n) everywhere")
	return []*stats.Table{tb}
}

func narrowestDim(pts []vec.Vec) int {
	if len(pts) == 0 {
		return 0
	}
	d := len(pts[0])
	best, bestExt := 0, math.Inf(1)
	for dim := 0; dim < d; dim++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			if p[dim] < lo {
				lo = p[dim]
			}
			if p[dim] > hi {
				hi = p[dim]
			}
		}
		if ext := hi - lo; ext < bestExt && ext > 0 {
			best, bestExt = dim, ext
		}
	}
	return best
}
