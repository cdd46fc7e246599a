package core

import (
	"math"
	"testing"

	"sepdc/internal/brute"
	"sepdc/internal/knngraph"
	"sepdc/internal/pointgen"
	"sepdc/internal/topk"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// assertExact verifies a result's lists against brute force, list by list.
func assertExact(t *testing.T, pts []vec.Vec, lists []*topk.List, k int, label string) {
	t.Helper()
	want := brute.AllKNN(pts, k)
	for i := range pts {
		if !topk.Equal(lists[i], want[i]) {
			t.Fatalf("%s: point %d lists differ:\n got %v\nwant %v",
				label, i, lists[i].Items(), want[i].Items())
		}
	}
}

func TestSphereDNCExactAcrossDistributions(t *testing.T) {
	g := xrand.New(1)
	for _, dist := range pointgen.All {
		for _, d := range []int{1, 2, 3} {
			pts := pointgen.Dedup(pointgen.MustGenerate(dist, 500, d, g.Split()))
			res, err := SphereDNC(pts, g.Split(), &Options{K: 2})
			if err != nil {
				t.Fatalf("%s d=%d: %v", dist, d, err)
			}
			assertExact(t, pts, res.Lists, 2, string(dist))
		}
	}
}

func TestHyperplaneDNCExactAcrossDistributions(t *testing.T) {
	g := xrand.New(2)
	for _, dist := range pointgen.All {
		for _, d := range []int{1, 2, 3} {
			pts := pointgen.Dedup(pointgen.MustGenerate(dist, 500, d, g.Split()))
			res, err := HyperplaneDNC(pts, g.Split(), &Options{K: 2})
			if err != nil {
				t.Fatalf("%s d=%d: %v", dist, d, err)
			}
			assertExact(t, pts, res.Lists, 2, string(dist))
		}
	}
}

func TestSphereDNCVariousK(t *testing.T) {
	g := xrand.New(3)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 800, 2, g))
	for _, k := range []int{1, 3, 8} {
		res, err := SphereDNC(pts, g.Split(), &Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		assertExact(t, pts, res.Lists, k, "k-sweep")
	}
}

func TestSphereDNCHigherDimensions(t *testing.T) {
	// d=4 and d=5 exercise the stereographic machinery in R^5/R^6 and the
	// larger Radon tuples; k=8 exercises deep neighbor lists.
	g := xrand.New(19)
	for _, d := range []int{4, 5} {
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.Gaussian, 350, d, g.Split()))
		res, err := SphereDNC(pts, g.Split(), &Options{K: 8})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		assertExact(t, pts, res.Lists, 8, "high-dim")
	}
}

func TestGraphsAgreeAcrossAlgorithms(t *testing.T) {
	g := xrand.New(4)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.Clustered, 1200, 2, g))
	k := 3
	sph, err := SphereDNC(pts, g.Split(), &Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	hyp, err := HyperplaneDNC(pts, g.Split(), &Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	ref := knngraph.FromLists(brute.AllKNN(pts, k), k)
	gs := knngraph.FromLists(sph.Lists, k)
	gh := knngraph.FromLists(hyp.Lists, k)
	if diff := knngraph.Diff(ref, gs); diff != "" {
		t.Errorf("sphere graph differs: %s", diff)
	}
	if diff := knngraph.Diff(ref, gh); diff != "" {
		t.Errorf("hyperplane graph differs: %s", diff)
	}
}

func TestSphereDNCParallelExecutionExact(t *testing.T) {
	g := xrand.New(5)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformBall, 1500, 3, g))
	res, err := SphereDNC(pts, xrand.New(77), &Options{K: 2, Machine: vm.NewMachine(4)})
	if err != nil {
		t.Fatal(err)
	}
	assertExact(t, pts, res.Lists, 2, "parallel")
	// Cost accounting must be identical to a sequential run with same seed.
	seq, err := SphereDNC(pts, xrand.New(77), &Options{K: 2, Machine: vm.Sequential()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cost != seq.Stats.Cost {
		t.Errorf("cost differs across machines: %v vs %v", res.Stats.Cost, seq.Stats.Cost)
	}
	if res.Stats.SeparatorTrials != seq.Stats.SeparatorTrials {
		t.Errorf("trials differ: %d vs %d", res.Stats.SeparatorTrials, seq.Stats.SeparatorTrials)
	}
}

func TestSphereDNCTinyInputs(t *testing.T) {
	g := xrand.New(6)
	if _, err := SphereDNC(nil, g, nil); err == nil {
		t.Error("empty input accepted")
	}
	one := []vec.Vec{vec.Of(1, 2)}
	res, err := SphereDNC(one, g, &Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lists[0].Len() != 0 {
		t.Error("singleton has neighbors")
	}
	two := []vec.Vec{vec.Of(0, 0), vec.Of(1, 1)}
	res, err = SphereDNC(two, g, &Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lists[0].Items()[0].Idx != 1 || res.Lists[1].Items()[0].Idx != 0 {
		t.Error("two-point neighbors wrong")
	}
}

func TestSphereDNCRejectsMalformedInput(t *testing.T) {
	g := xrand.New(7)
	mixed := []vec.Vec{vec.Of(0, 0), vec.Of(1)}
	if _, err := SphereDNC(mixed, g, nil); err == nil {
		t.Error("mixed dimensions accepted")
	}
	nan := []vec.Vec{vec.Of(0, 0), vec.Of(math.NaN(), 0)}
	if _, err := SphereDNC(nan, g, nil); err == nil {
		t.Error("NaN coordinate accepted")
	}
}

func TestSphereDNCDuplicatePoints(t *testing.T) {
	// Exact duplicates: k-NN distances of 0 with index tie-breaks.
	g := xrand.New(8)
	pts := make([]vec.Vec, 120)
	for i := range pts {
		pts[i] = vec.Of(float64(i/3), float64(i%3)) // triples of duplicates? no: distinct
	}
	// Make genuine duplicates: every pair (2i, 2i+1) identical.
	for i := 0; i+1 < len(pts); i += 2 {
		pts[i+1] = pts[i].Clone()
	}
	res, err := SphereDNC(pts, g, &Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertExact(t, pts, res.Lists, 2, "duplicates")
}

func TestSphereDNCAllIdentical(t *testing.T) {
	g := xrand.New(9)
	pts := make([]vec.Vec, 100)
	for i := range pts {
		pts[i] = vec.Of(3, 3)
	}
	res, err := SphereDNC(pts, g, &Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertExact(t, pts, res.Lists, 2, "identical")
}

func TestStatsPopulated(t *testing.T) {
	g := xrand.New(10)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 3000, 2, g))
	res, err := SphereDNC(pts, g.Split(), &Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Nodes == 0 || st.BaseCases == 0 {
		t.Errorf("recursion counters empty: %+v", st)
	}
	if st.SeparatorTrials < st.Nodes {
		t.Errorf("trials %d below nodes %d", st.SeparatorTrials, st.Nodes)
	}
	if st.FastCorrections == 0 && st.QueryCorrections == 0 {
		t.Error("no corrections recorded at all")
	}
	if st.Cost.Steps == 0 || st.Cost.Work == 0 {
		t.Error("cost not charged")
	}
	if res.Tree == nil || res.Tree.Height(res.Tree.Root) < 2 {
		t.Error("partition tree missing or trivial")
	}
}

func TestSphereDNCFastPathDominates(t *testing.T) {
	// On uniform data the fast correction should handle the bulk of the
	// corrections; punts must be the exception (the heart of Section 6).
	g := xrand.New(11)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 6000, 2, g))
	res, err := SphereDNC(pts, g.Split(), &Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	punts := st.ThresholdPunts + st.MarchAborts
	if st.FastCorrections == 0 {
		t.Fatal("fast correction never ran")
	}
	if punts > st.Nodes/2 {
		t.Errorf("punted at %d of %d nodes; fast path not dominating", punts, st.Nodes)
	}
}

func TestPartitionTreeCoversAllPoints(t *testing.T) {
	g := xrand.New(12)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.Gaussian, 700, 2, g))
	for _, c := range []struct {
		name  string
		build func([]vec.Vec, *xrand.RNG, *Options) (*Result, error)
	}{{"sphere", SphereDNC}, {"hyperplane", HyperplaneDNC}} {
		name := c.name
		res, err := c.build(pts, g.Split(), &Options{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		// The leaves partition the rows in order, and the rows are the
		// input points, each once, at the input index ID names.
		tree, next := res.Tree, 0
		walkLeaves(tree, tree.Root, func(lo, hi int) {
			if lo != next || hi <= lo {
				t.Fatalf("%s: leaf [%d, %d) after row %d", name, lo, hi, next)
			}
			next = hi
		})
		if next != len(pts) {
			t.Fatalf("%s: tree leaves hold %d rows, want %d", name, next, len(pts))
		}
		seen := make([]bool, len(pts))
		for p, i := range tree.ID {
			if seen[i] || !vec.Equal(tree.Rows.At(p), pts[i]) {
				t.Fatalf("%s: row %d holds input %d twice or not its point", name, p, i)
			}
			seen[i] = true
		}
	}
}

func TestBaseSizeOption(t *testing.T) {
	g := xrand.New(13)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 400, 2, g))
	res, err := SphereDNC(pts, g.Split(), &Options{K: 1, BaseSize: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes != 0 || res.Stats.BaseCases != 1 {
		t.Errorf("BaseSize=n should brute force once: %+v", res.Stats)
	}
	assertExact(t, pts, res.Lists, 1, "all-base")
}

func TestOptionDefaults(t *testing.T) {
	var o *Options
	if o.k() != 1 {
		t.Error("default k")
	}
	if o.mu() != 0.9 || (&Options{Mu: 1.5}).mu() != 0.9 || (&Options{Mu: 0.7}).mu() != 0.7 {
		t.Error("mu defaulting wrong")
	}
	if activeFactor != 8 {
		t.Error("active factor constant")
	}
	if got := o.baseSize(1024); got < 4 || got > 16 {
		t.Errorf("baseSize(1024) = %d", got)
	}
	if (&Options{K: 5}).baseSize(10) != 12 {
		t.Errorf("baseSize must cover 2(k+1): %d", (&Options{K: 5}).baseSize(10))
	}
}

func TestCollectProfiles(t *testing.T) {
	g := xrand.New(14)
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 2500, 2, g))
	res, err := SphereDNC(pts, g.Split(), &Options{K: 1, CollectProfiles: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FastCorrections > 0 && len(res.Stats.Profiles) == 0 {
		t.Error("profiles requested but not collected")
	}
	for _, prof := range res.Stats.Profiles {
		if len(prof) == 0 {
			t.Error("empty profile recorded")
		}
	}
}
