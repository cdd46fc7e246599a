package separator

import (
	"math"
	"testing"

	"sepdc/internal/chaos"
	"sepdc/internal/geom"
	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/pts"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// candidate runs one CandidateFlat trial over pv.
func candidate(pv []vec.Vec, g *xrand.RNG, opts *Options) (geom.Separator, error) {
	return CandidateFlat(pts.FromVecs(pv), g, opts)
}

func evaluate(sep geom.Separator, pv []vec.Vec) SplitStats {
	return EvaluateFlat(sep, pts.FromVecs(pv), nil)
}

func TestCandidateProducesValidSeparator(t *testing.T) {
	g := xrand.New(1)
	pts := pointgen.MustGenerate(pointgen.UniformCube, 1000, 3, g)
	for trial := 0; trial < 20; trial++ {
		sep, err := candidate(pts, g.Split(), nil)
		if err != nil {
			continue // rare degenerate candidates are allowed
		}
		if sep.Dim() != 3 {
			t.Fatalf("separator dimension %d", sep.Dim())
		}
		st := evaluate(sep, pts)
		if st.Interior+st.Exterior != len(pts) {
			t.Fatalf("classification lost points: %+v", st)
		}
	}
}

func TestCandidateEmptyInput(t *testing.T) {
	if _, err := CandidateFlat(&pts.PointSet{Dim: 2}, xrand.New(1), nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestEvaluateAndRatio(t *testing.T) {
	sep := geom.Sphere{Center: vec.Of(0, 0), Radius: 1}
	pts := []vec.Vec{vec.Of(0, 0), vec.Of(0.5, 0), vec.Of(2, 0), vec.Of(1, 0)}
	st := evaluate(sep, pts)
	// On-sphere point (1,0) counts interior.
	if st.Interior != 3 || st.Exterior != 1 {
		t.Errorf("EvaluateFlat = %+v", st)
	}
	if math.Abs(st.Ratio()-0.75) > 1e-12 {
		t.Errorf("Ratio = %v", st.Ratio())
	}
	if (SplitStats{}).Ratio() != 1 {
		t.Error("empty stats ratio must be 1")
	}
}

func TestFindGoodSplitsWithinDelta(t *testing.T) {
	g := xrand.New(2)
	for _, dist := range []pointgen.Dist{pointgen.UniformCube, pointgen.Gaussian, pointgen.Annulus, pointgen.Clustered} {
		for _, d := range []int{2, 3} {
			pts := pointgen.MustGenerate(dist, 2000, d, g.Split())
			res, err := FindGood(pts, g.Split(), nil)
			if err != nil {
				t.Fatalf("%s d=%d: %v", dist, d, err)
			}
			delta := DefaultDelta(d)
			if !res.Punted && res.Stats.Ratio() > delta {
				t.Errorf("%s d=%d: ratio %v exceeds delta %v without punt",
					dist, d, res.Stats.Ratio(), delta)
			}
			if res.Trials < 1 {
				t.Errorf("%s d=%d: trials = %d", dist, d, res.Trials)
			}
			if res.Sep == nil {
				t.Fatalf("%s d=%d: nil separator", dist, d)
			}
		}
	}
}

func TestFindGoodUsuallySucceedsQuickly(t *testing.T) {
	// The Unit Time Separator succeeds with constant probability per trial;
	// across many runs the average trial count must be small and punts rare.
	g := xrand.New(3)
	pts := pointgen.MustGenerate(pointgen.UniformBall, 3000, 2, g)
	totalTrials, punts := 0, 0
	const runs = 30
	for i := 0; i < runs; i++ {
		res, err := FindGood(pts, g.Split(), nil)
		if err != nil {
			t.Fatal(err)
		}
		totalTrials += res.Trials
		if res.Punted {
			punts++
		}
	}
	if avg := float64(totalTrials) / runs; avg > 8 {
		t.Errorf("average trials %v; separator success probability too low", avg)
	}
	if punts > runs/10 {
		t.Errorf("%d/%d runs punted to hyperplane", punts, runs)
	}
}

func TestFindGoodSphereCrossesFewBalls(t *testing.T) {
	// The paper's motivating bad case (Section 1): points concentrated
	// along a line. A fixed-orientation hyperplane that must halve them
	// slices along the line and crosses Ω(n) of the k-NN balls; a sphere
	// separator cuts transversally and crosses o(n).
	g := xrand.New(4)
	n := 4000
	pts := pointgen.MustGenerate(pointgen.LineNoise, n, 2, g)
	sys := nbrsys.KNeighborhood(pts, 2)

	// Bentley's rule with the cutting dimension parallel to the point line
	// (dimension 1 carries only tiny transverse noise).
	hyper, err := FixedHyperplane(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	hyperCross := sys.IntersectionNumber(hyper)
	if hyperCross < n/4 {
		t.Fatalf("adversarial input not adversarial: hyperplane crossed only %d/%d balls", hyperCross, n)
	}

	res, err := FindGood(pts, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Punted {
		t.Skip("separator punted; crossing comparison not meaningful")
	}
	sphereCross := sys.IntersectionNumber(res.Sep)
	if sphereCross*5 >= hyperCross {
		t.Errorf("sphere crossed %d balls vs hyperplane %d; expected >5x advantage",
			sphereCross, hyperCross)
	}
}

func TestFixedHyperplaneErrors(t *testing.T) {
	pts := []vec.Vec{vec.Of(0, 1), vec.Of(0, 2)}
	if _, err := FixedHyperplane(pts, 0); err == nil {
		t.Error("zero-spread dimension accepted")
	}
	if _, err := FixedHyperplane(pts, 5); err == nil {
		t.Error("out-of-range dimension accepted")
	}
	if _, err := FixedHyperplane(nil, 0); err == nil {
		t.Error("empty input accepted")
	}
	if sep, err := FixedHyperplane(pts, 1); err != nil || sep == nil {
		t.Error("valid dimension rejected")
	}
}

func TestFindGoodIntersectionScaling(t *testing.T) {
	// Theorem 2.1 shape check at two sizes: ι(S) = O(n^{(d-1)/d}); with
	// d=2 quadrupling n should roughly double crossings, certainly not
	// quadruple them. Use medians over several runs for stability.
	g := xrand.New(5)
	med := func(n int) int {
		pts := pointgen.MustGenerate(pointgen.UniformCube, n, 2, g.Split())
		sys := nbrsys.KNeighborhood(pts, 1)
		var xs []int
		for i := 0; i < 7; i++ {
			res, err := FindGood(pts, g.Split(), nil)
			if err != nil || res.Punted {
				continue
			}
			xs = append(xs, sys.IntersectionNumber(res.Sep))
		}
		if len(xs) == 0 {
			t.Fatal("no successful separator runs")
		}
		insertionSort(xs)
		return xs[len(xs)/2]
	}
	small := med(2000)
	large := med(8000)
	if small == 0 {
		small = 1
	}
	growth := float64(large) / float64(small)
	if growth > 3.2 {
		t.Errorf("crossing growth %.2f for 4x points; expected ~2x for sqrt scaling", growth)
	}
}

func insertionSort(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestMedianHyperplane(t *testing.T) {
	pts := []vec.Vec{vec.Of(0, 0), vec.Of(1, 0), vec.Of(2, 0), vec.Of(3, 0), vec.Of(4, 0)}
	sep, err := MedianHyperplane(pts)
	if err != nil {
		t.Fatal(err)
	}
	st := evaluate(sep, pts)
	if st.Interior != 3 || st.Exterior != 2 {
		t.Errorf("median split = %+v", st)
	}
}

func TestMedianHyperplaneSkewedDuplicates(t *testing.T) {
	// More than half the points share the top coordinate: the plane must
	// still produce a nonempty exterior.
	pts := []vec.Vec{vec.Of(0), vec.Of(5), vec.Of(5), vec.Of(5), vec.Of(5)}
	sep, err := MedianHyperplane(pts)
	if err != nil {
		t.Fatal(err)
	}
	st := evaluate(sep, pts)
	if st.Interior == 0 || st.Exterior == 0 {
		t.Errorf("degenerate split = %+v", st)
	}
}

func TestMedianHyperplaneAllIdentical(t *testing.T) {
	pts := []vec.Vec{vec.Of(1, 1), vec.Of(1, 1)}
	if _, err := MedianHyperplane(pts); err == nil {
		t.Error("identical points accepted")
	}
	if _, err := MedianHyperplane(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestOptionsDeltaBounds(t *testing.T) {
	for d := 1; d <= 10; d++ {
		delta := DefaultDelta(d)
		if delta < 0.8 || delta > 0.95 {
			t.Errorf("d=%d: delta %v outside [0.8, 0.95]", d, delta)
		}
	}
	if DefaultDelta(2) != 0.8 || math.Abs(DefaultDelta(3)-0.85) > 1e-12 || DefaultDelta(20) != 0.95 {
		t.Errorf("DefaultDelta(2, 3, 20) = %v, %v, %v; want 0.8, 0.85, 0.95", DefaultDelta(2), DefaultDelta(3), DefaultDelta(20))
	}
	if maxTrials(1000) != 64 || maxTrials(256) != 64 {
		t.Error("maxTrials wrong")
	}
	if maxTrials(100) != 16 || maxTrials(255) != 16 {
		t.Error("small inputs should get the reduced budget")
	}
}

func TestCentroidModeWorks(t *testing.T) {
	g := xrand.New(6)
	pts := pointgen.MustGenerate(pointgen.UniformCube, 1500, 2, g)
	res, err := FindGood(pts, g, &Options{Centroid: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sep == nil {
		t.Fatal("nil separator in centroid mode")
	}
	if res.Punted {
		t.Error("centroid mode punted on uniform data")
	}
}

func TestCandidateSucceedsOnTinyOffsetRegions(t *testing.T) {
	// Regression: deep divide-and-conquer subproblems occupy tiny regions
	// far from the origin. Without the centroid/RMS normalization before
	// the stereographic lift, such subsets lift to a minuscule cap, the
	// clamped centerpoint degrades the conformal map, and trials mostly
	// fail. With the fix, success stays one-to-two trials.
	g := xrand.New(8)
	base := vec.Of(0.73, 0.21)
	totalTrials, runs := 0, 40
	for r := 0; r < runs; r++ {
		pts := make([]vec.Vec, 60)
		for i := range pts {
			// A 60-point cloud of diameter ~1e-3 around base.
			pts[i] = vec.Add(base, vec.Scale(5e-4, vec.Vec(g.UnitVector(2))))
		}
		res, err := FindGood(pts, g.Split(), nil)
		if err != nil {
			t.Fatal(err)
		}
		totalTrials += res.Trials
		if res.Punted {
			t.Fatalf("run %d punted on a benign tiny region", r)
		}
	}
	if avg := float64(totalTrials) / float64(runs); avg > 3 {
		t.Errorf("average trials %.2f on tiny offset regions; normalization regressed", avg)
	}
}

func TestFindGoodNearDegenerateInput(t *testing.T) {
	// Line-embedded points stress the stereographic machinery.
	g := xrand.New(7)
	pts := pointgen.MustGenerate(pointgen.LineNoise, 1000, 3, g)
	res, err := FindGood(pts, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Ratio() > 0.95 {
		t.Errorf("line input split ratio %v", res.Stats.Ratio())
	}
}

// FindGoodSides must leave exactly the returned separator's sides, for an
// accepted candidate and for the median-hyperplane fallback (every
// candidate failed by the chaos injector), so the divide step can
// partition from them.
func TestFindGoodSidesMatchesSide(t *testing.T) {
	inj, err := chaos.Parse("sep-fail=all")
	if err != nil {
		t.Fatal(err)
	}
	ps := pts.FromVecs(pointgen.MustGenerate(pointgen.UniformCube, 500, 3, xrand.New(21)))
	for _, opts := range []*Options{nil, {Chaos: inj}} {
		interior := make([]bool, ps.N())
		res, err := FindGoodSides(ps, interior, xrand.New(22), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Punted != (opts != nil) {
			t.Fatalf("punted = %v with options %+v", res.Punted, opts)
		}
		in := 0
		for i, got := range interior {
			if want := res.Sep.Side(ps.At(i)) <= 0; got != want {
				t.Fatalf("punted=%v: point %d interior %v, Side says %v", res.Punted, i, got, want)
			}
			if got {
				in++
			}
		}
		if in != res.Stats.Interior || ps.N()-in != res.Stats.Exterior {
			t.Errorf("punted=%v: %d interior sides, stats %+v", res.Punted, in, res.Stats)
		}
	}
}
