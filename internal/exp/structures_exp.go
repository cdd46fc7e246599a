package exp

import (
	"time"

	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/septree"
	"sepdc/internal/stats"
	"sepdc/internal/xrand"
)

// runE15 compares the paper's separator-based query structure against a
// practical alternative — a radius-annotated kd-tree (bounding-volume
// pruning, package nbrsys) — on the same covering-ball queries. The paper
// positions the separator structure against multi-dimensional divide and
// conquer (O(n log^{d−1} n) space, O(k + log^d n) query); the BV-tree is
// the modern engineering baseline filling that comparator role: linear
// space but no worst-case query bound. Reported: build time, space
// (stored ball references), and query cost.
func runE15(cfg Config) []*stats.Table {
	g := xrand.New(cfg.Seed + 15)
	tb := &stats.Table{
		Title:  "Query-structure comparison (uniform cube, d=2, k=2)",
		Header: []string{"n", "structure", "build ms", "stored/n", "mean query us", "answers checked"},
	}
	for _, n := range cfg.sizes() {
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, n, 2, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 2)
		queries := make([]int, 300)
		for i := range queries {
			queries[i] = g.IntN(len(pts))
		}

		// Separator-based structure (Section 3).
		start := time.Now()
		tree, err := septree.Build(sys, g.Split(), nil)
		if err != nil {
			continue
		}
		buildSep := time.Since(start)
		start = time.Now()
		sepAnswers := 0
		for _, q := range queries {
			balls, _ := tree.Query(pts[q])
			sepAnswers += len(balls)
		}
		querySep := time.Since(start)

		// Radius-annotated kd-tree (bounding-volume pruning).
		start = time.Now()
		idx := nbrsys.NewBallIndex(sys)
		buildBV := time.Since(start)
		start = time.Now()
		bvAnswers := 0
		for _, q := range queries {
			bvAnswers += len(idx.Covering(pts[q]))
		}
		queryBV := time.Since(start)

		check := "agree"
		if sepAnswers != bvAnswers {
			check = "MISMATCH"
		}
		perQ := float64(len(queries))
		tb.AddRow(len(pts), "septree (§3)",
			float64(buildSep.Microseconds())/1000,
			float64(tree.Stats.TotalStored)/float64(len(pts)),
			float64(querySep.Microseconds())/perQ, check)
		tb.AddRow(len(pts), "BV kd-tree",
			float64(buildBV.Microseconds())/1000,
			1.0, // stores each ball exactly once
			float64(queryBV.Microseconds())/perQ, check)
	}
	tb.AddNote("both answer identical covering-ball queries; the separator structure pays duplication (stored/n above 1) for its O(k+log n) worst-case query guarantee, the BV tree is linear-space with heuristic pruning")
	return []*stats.Table{tb}
}
