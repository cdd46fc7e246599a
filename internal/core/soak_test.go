package core

import (
	"testing"

	"sepdc/internal/kdtree"
	"sepdc/internal/pointgen"
	"sepdc/internal/topk"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// TestSoakLargeSphereDNC runs the sphere algorithm at a scale two orders
// of magnitude beyond the unit tests and verifies a random sample of
// neighbor lists against kd-tree queries — catching scale-dependent bugs
// (recursion depth, punt thresholds, accounting overflow) that small-n
// tests cannot.
func TestSoakLargeSphereDNC(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	g := xrand.New(2024)
	const n, k = 200_000, 3
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.Clustered, n, 2, g))
	res, err := SphereDNC(pts, g.Split(), &Options{K: k, Machine: vm.NewMachine(0)})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	t.Logf("n=%d: steps=%d work=%d trials=%d fast=%d punts=%d aborts=%d",
		len(pts), st.Cost.Steps, st.Cost.Work, st.SeparatorTrials,
		st.FastCorrections, st.ThresholdPunts, st.MarchAborts)

	// Shape checks at scale.
	if st.Cost.Steps > 3000 {
		t.Errorf("steps %d far above O(log n) expectations at n=%d", st.Cost.Steps, len(pts))
	}
	if st.MarchAborts > st.FastCorrections/10 {
		t.Errorf("aborts %d vs %d fast corrections; Lemma 6.2 violated at scale",
			st.MarchAborts, st.FastCorrections)
	}

	// Sampled exactness against kd-tree queries.
	tree := kdtree.Build(pts)
	for trial := 0; trial < 500; trial++ {
		i := g.IntN(len(pts))
		want := topk.New(k)
		tree.KNNInto(pts[i], i, want)
		if !topk.Equal(res.Lists[i], want) {
			t.Fatalf("point %d: sphere %v != kdtree %v", i, res.Lists[i].Items(), want.Items())
		}
	}
}
