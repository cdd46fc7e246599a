package audit

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/septree"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

func buildFixture(t *testing.T, dist pointgen.Dist, n, d, k int, seed uint64) (*septree.Frozen, []vec.Vec) {
	t.Helper()
	g := xrand.New(seed)
	pts := pointgen.Dedup(pointgen.MustGenerate(dist, n, d, g.Split()))
	sys := nbrsys.KNeighborhood(pts, k)
	tree, err := septree.Build(sys, g.Split(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tree, pts
}

func probes(pts []vec.Vec, d, n int, seed uint64) [][]float64 {
	g := xrand.New(seed)
	out := make([][]float64, n)
	for i := range out {
		if i%3 == 0 {
			out[i] = pts[g.IntN(len(pts))]
		} else {
			out[i] = g.InCube(d)
		}
	}
	return out
}

// TestAuditPassesOnPaperGenerators: the acceptance-criteria generators
// (sphere, grid, cluster) must all pass every invariant check at the
// default constants — this is the same sweep cmd/knn -audit runs.
func TestAuditPassesOnPaperGenerators(t *testing.T) {
	cases := []struct {
		gen  pointgen.Dist
		d, k int
	}{
		{pointgen.UniformBall, 2, 4},
		{pointgen.UniformBall, 3, 4},
		{pointgen.JitteredGrid, 2, 4},
		{pointgen.JitteredGrid, 3, 4},
		{pointgen.Clustered, 2, 4},
		{pointgen.Clustered, 3, 4},
		{pointgen.UniformBall, 2, 8},
		{pointgen.UniformBall, 3, 8},
		{pointgen.Clustered, 3, 8},
	}
	for _, c := range cases {
		tree, pts := buildFixture(t, c.gen, 3000, c.d, c.k, 42)
		rep, err := Audit(tree, probes(pts, c.d, 500, 43), c.k)
		if err != nil {
			t.Fatalf("%s d=%d k=%d: %v", c.gen, c.d, c.k, err)
		}
		rep.Gen = string(c.gen)
		if !rep.Pass {
			var buf bytes.Buffer
			rep.WriteTable(&buf)
			t.Errorf("%s d=%d k=%d failed audit:\n%s", c.gen, c.d, c.k, buf.String())
		}
		if len(rep.Checks) != 7 {
			t.Errorf("%s d=%d: %d checks, want 7", c.gen, c.d, len(rep.Checks))
		}
		for _, ch := range rep.Checks {
			if ch.Bound <= 0 {
				t.Errorf("%s: check %s has non-positive bound %v", c.gen, ch.Name, ch.Bound)
			}
			if ch.Pass && ch.Ratio > 1 {
				t.Errorf("%s: check %s passes with ratio %v > 1", c.gen, ch.Name, ch.Ratio)
			}
		}
	}
}

// TestAuditDetectsViolation: a single-leaf tree scans every ball on
// every probe, far over Theorem 3.1's candidate budget — the auditor is
// only useful if it can say no. 2,000 identical centers admit no
// separator, so the build makes the root a forced leaf.
func TestAuditDetectsViolation(t *testing.T) {
	g := xrand.New(7)
	centers := make([]vec.Vec, 2000)
	radii := make([]float64, len(centers))
	for i := range centers {
		centers[i] = vec.Of(0.25, -0.5)
		radii[i] = 0.5
	}
	tree, err := septree.Build(&nbrsys.System{Centers: centers, Radii: radii, K: 4}, g.Split(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := tree.Stats(); tree.NumNodes() != 1 || st.ForcedLeaves != 1 || st.TotalStored != len(centers) {
		t.Fatalf("want one forced root leaf of %d balls, got %d nodes and stats %+v", len(centers), tree.NumNodes(), st)
	}
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformBall, 2000, 2, g.Split()))
	rep, err := Audit(tree, probes(pts, 2, 200, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("audit passed a single-leaf tree")
	}
	failed := map[string]bool{}
	for _, c := range rep.Checks {
		if !c.Pass {
			failed[c.Name] = true
		}
	}
	if len(failed) != 1 || !failed["query_cands"] {
		t.Errorf("wrong checks failed: %v", failed)
	}
}

// TestAuditSplitBalanceIsExact: non-punted separators were accepted by
// the build at ratio ≤ δ; the audit recomputes the same quantity from
// scratch and must agree.
func TestAuditSplitBalanceIsExact(t *testing.T) {
	tree, pts := buildFixture(t, pointgen.Gaussian, 2500, 3, 3, 11)
	rep, err := Audit(tree, probes(pts, 3, 100, 12), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Checks {
		if c.Name == "split_balance" && !c.Pass {
			t.Fatalf("recomputed split balance %v exceeds the build's own δ %v", c.Observed, c.Bound)
		}
	}
}

func TestAuditTableAndPublish(t *testing.T) {
	tree, pts := buildFixture(t, pointgen.Clustered, 1500, 2, 4, 21)
	rep, err := Audit(tree, probes(pts, 2, 100, 22), 4)
	if err != nil {
		t.Fatal(err)
	}
	rep.Gen = "clustered"
	var buf bytes.Buffer
	if err := rep.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"paper-invariant audit [clustered]", "iota", "Thm 2.1", "Punting Lemma", "Lemma 6.1", "overall:"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	sink := errors.New("sink failed")
	if err := rep.WriteTable(&failAfter{err: sink}); !errors.Is(err, sink) {
		t.Errorf("WriteTable swallowed write error: %v", err)
	}
	rep.Publish() // must not panic; exposition is covered by obs tests
}

func TestAuditRejectsBadInput(t *testing.T) {
	if _, err := Audit(nil, nil, 1); err == nil {
		t.Error("nil tree accepted")
	}
	tree, _ := buildFixture(t, pointgen.UniformCube, 300, 2, 2, 5)
	if _, err := Audit(tree, nil, 0); err == nil {
		t.Error("k=0 accepted")
	}
	rep, err := Audit(tree, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) != 5 {
		t.Errorf("no-probe audit has %d checks, want 5 (query checks skipped)", len(rep.Checks))
	}
}

type failAfter struct{ err error }

func (f *failAfter) Write(p []byte) (int, error) { return 0, f.err }
