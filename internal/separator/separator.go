// Package separator implements the Miller–Teng–Thurston–Vavasis sphere
// separator algorithm (the paper's "Unit Time Separator Algorithm") and the
// median-hyperplane separator of the Bentley / Cole–Goodrich baseline.
//
// The MTTV pipeline, run once per candidate:
//
//  1. Stereographically lift the points of R^d onto the unit sphere
//     S^d ⊂ R^{d+1}.
//  2. Compute an approximate centerpoint of a constant-size sample of the
//     lifted points (iterated Radon, package centerpoint).
//  3. Conformally map the sphere so the centerpoint moves to the origin:
//     a Householder rotation aligning the centerpoint with the projection
//     axis followed by a stereographic dilation.
//  4. Pick a uniformly random great circle (a plane through the origin).
//  5. Pull the circle back through the conformal map and project it to
//     R^d, where it becomes a sphere (or, degenerately, a hyperplane).
//
// Each candidate costs O(1) parallel steps on the vector model: the lift,
// the split test, and the conformal transforms are single elementwise
// passes, and the centerpoint works on a constant-size sample. A candidate
// δ-splits the points with constant probability; FindGood retries until
// one does, and the number of trials is the quantity the paper's
// Bernoulli/punting analysis charges for.
//
// The trial-scoring hot path operates on flat contiguous point storage
// (package pts): the divide and conquer hands each recursion node's subset
// over as one gathered PointSet, the per-trial sample is normalized and
// lifted into a pooled scratch arena, and Evaluate streams through the
// backing array — no per-point allocation anywhere in the loop. The
// []vec.Vec entry points remain as converting wrappers.
package separator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"sepdc/internal/centerpoint"
	"sepdc/internal/chaos"
	"sepdc/internal/geom"
	"sepdc/internal/obs"
	"sepdc/internal/pts"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// Options tunes the separator search. The split target δ, the retry
// budget and the centerpoint sample are fixed (DefaultDelta, maxTrials,
// and min(centerpoint.SampleSize, n) lifted points for centerpoint.Approx).
type Options struct {
	// Centroid replaces the iterated-Radon centerpoint with the sample
	// centroid. Cheaper and usually adequate on benign inputs; exposed for
	// the ablation experiment.
	Centroid bool
	// Chaos is the deterministic fault injector; its TrialFails hook
	// forces candidates to be judged failures so tests can drive FindGood
	// through the retry cascade and the hyperplane punt at will. Nil (the
	// default) injects nothing.
	Chaos *chaos.Injector
	// Done stops the retry loop when closed (typically a context's Done
	// channel): FindGood polls it between trials and returns
	// context.Canceled. Nil disables the probe.
	Done <-chan struct{}
}

// WithDone returns a copy of o (nil selects the defaults) whose Done is
// done: how callers carry their cancellation into the separator search.
func (o *Options) WithDone(done <-chan struct{}) *Options {
	c := Options{}
	if o != nil {
		c = *o
	}
	c.Done = done
	return &c
}

func (o *Options) cancelled() bool {
	if o == nil || o.Done == nil {
		return false
	}
	select {
	case <-o.Done:
		return true
	default:
		return false
	}
}

func (o *Options) chaos() *chaos.Injector {
	if o == nil {
		return nil
	}
	return o.Chaos
}

// DefaultDelta is the split-balance target the search accepts in
// dimension d: a candidate is good when both sides hold at most δ·n
// points. δ is the paper's (d+1)/(d+2) plus a 0.05 slack, clamped to
// [0.8, 0.95] so small inputs are not rejected spuriously. Exported so
// the paper-invariant auditor (internal/obs/audit) checks observed
// splits against the same number the build used.
func DefaultDelta(d int) float64 {
	return min(max(float64(d+1)/float64(d+2)+0.05, 0.8), 0.95)
}

// maxTrials returns FindGood's retry budget for an input of n points.
// Small subsets get a smaller budget: with few points the split-ratio
// variance is high and extra candidates are poorly spent — the median
// hyperplane fallback, which always satisfies the split bound (its cost
// is what the punting analysis absorbs), is the better exit.
func maxTrials(n int) int {
	if n < 256 {
		return 16
	}
	return 64
}

// candScratch holds the per-trial buffers of CandidateFlat: the subset
// centroid, one normalization temporary, and the lifted sample (flat
// (d+1)-stride storage plus its views). Pooled so that the recursion's
// many trials reuse a handful of arenas instead of allocating per point.
type candScratch struct {
	centroid vec.Vec
	q        vec.Vec
	lifted   []float64
	views    []vec.Vec
}

var candPool = sync.Pool{New: func() any { return &candScratch{} }}

// acquire returns a scratch arena sized for dimension d and sampleN lifted
// points; buffers grow monotonically and are reused across trials.
func acquireScratch(d, sampleN int) *candScratch {
	sc := candPool.Get().(*candScratch)
	if cap(sc.centroid) < d {
		sc.centroid = make(vec.Vec, d)
		sc.q = make(vec.Vec, d)
	}
	sc.centroid = sc.centroid[:d]
	sc.q = sc.q[:d]
	if need := sampleN * (d + 1); cap(sc.lifted) < need {
		sc.lifted = make([]float64, need)
	}
	if cap(sc.views) < sampleN {
		sc.views = make([]vec.Vec, sampleN)
	}
	sc.views = sc.views[:sampleN]
	for i := range sc.views {
		o := i * (d + 1)
		sc.views[i] = vec.Vec(sc.lifted[o : o+d+1 : o+d+1])
	}
	return sc
}

// CandidateFlat runs one trial of the Unit Time Separator Algorithm on
// flat contiguous point storage — the form the divide and conquer calls
// with each node's gathered subset — and returns the produced separator
// without judging its quality. The sample normalization and lift run in
// a pooled scratch arena, so a trial performs no per-point heap
// allocation.
func CandidateFlat(ps *pts.PointSet, g *xrand.RNG, opts *Options) (geom.Separator, error) {
	n := ps.N()
	if n == 0 {
		return nil, errors.New("separator: no points")
	}
	if obs.On() {
		obs.Add(obs.GSepCandidates, 1)
	}
	d := ps.Dim

	sampleN := min(centerpoint.SampleSize, n)
	sc := acquireScratch(d, sampleN)
	defer candPool.Put(sc)

	// Step 0: translate the centroid to the origin and rescale to unit RMS
	// radius before lifting. Without this, a subset occupying a tiny region
	// (as deep divide-and-conquer subproblems do) lifts to a tiny spherical
	// cap, its centerpoint hugs the sphere surface, and the conformal map
	// degenerates — the success probability of a trial would collapse with
	// depth. The transform is undone on the resulting separator, so callers
	// see original coordinates.
	centroid := sc.centroid
	ps.Centroid(centroid)
	var rms float64
	for i := 0; i < n; i++ {
		rms += vec.Dist2Flat(ps.At(i), centroid)
	}
	rms = math.Sqrt(rms / float64(n))
	if rms < 1e-300 {
		return nil, errors.New("separator: all points coincide")
	}
	liftInto := func(dst vec.Vec, p vec.Vec) {
		vec.SubTo(sc.q, p, centroid)
		vec.ScaleTo(sc.q, 1/rms, sc.q)
		geom.LiftTo(dst, sc.q)
	}

	// Step 1–2: centerpoint of a sample of lifted points.
	lifted := sc.views
	if sampleN == n {
		for i := 0; i < n; i++ {
			liftInto(lifted[i], ps.At(i))
		}
	} else {
		for i := range lifted {
			liftInto(lifted[i], ps.At(g.IntN(n)))
		}
	}
	var cp vec.Vec
	if opts != nil && opts.Centroid {
		cp = vec.Centroid(lifted)
	} else {
		cp = centerpoint.Approx(lifted, g.Split())
	}

	// Step 3: conformal map sending cp to the origin. Clamp the centerpoint
	// radius away from the sphere so the dilation stays well conditioned.
	r := vec.Norm(cp)
	const maxR = 0.999
	if r > maxR {
		cp = vec.Scale(maxR/r, cp)
		r = maxR
	}
	axisLast := vec.Basis(d+1, d)
	var rot vec.Householder
	if r < 1e-9 {
		rot = vec.NewHouseholder(axisLast, axisLast) // identity
		r = 0
	} else {
		rot = vec.NewHouseholder(vec.Scale(1/r, cp), axisLast)
	}
	dil, err := geom.NewDilationForHeight(r)
	if err != nil {
		return nil, fmt.Errorf("separator: dilation: %w", err)
	}

	// Step 4: uniformly random great circle through the origin.
	gc := geom.PlaneSection{Normal: vec.Vec(g.UnitVector(d + 1)), Offset: 0}

	// Step 5: pull back and project.
	pulled, err := dil.PullBackSection(gc)
	if err != nil {
		return nil, fmt.Errorf("separator: pullback: %w", err)
	}
	section := geom.PullBackSectionReflect(rot, pulled)
	sep, err := geom.SectionToSeparator(section)
	if err != nil {
		return nil, fmt.Errorf("separator: projection: %w", err)
	}
	// Undo the normalization: the separator was found in y = (x−t)/s
	// coordinates; map it back to x-space.
	switch s := sep.(type) {
	case geom.Sphere:
		center := vec.Scale(rms, s.Center)
		vec.AddTo(center, center, centroid)
		return geom.NewSphere(center, s.Radius*rms)
	case geom.Halfspace:
		return geom.Halfspace{Normal: s.Normal, Offset: s.Offset*rms + vec.Dot(s.Normal, centroid)}, nil
	default:
		return sep, nil
	}
}

// SplitStats reports how a separator divides a point set.
type SplitStats struct {
	Interior int // points with Side <= 0 (on-surface points count inside)
	Exterior int
}

// Ratio returns max(interior, exterior)/total, the splitting ratio the
// theorem bounds by (d+1)/(d+2)+ε. A ratio of 1 means no split at all.
func (s SplitStats) Ratio() float64 {
	total := s.Interior + s.Exterior
	if total == 0 {
		return 1
	}
	m := s.Interior
	if s.Exterior > m {
		m = s.Exterior
	}
	return float64(m) / float64(total)
}

// EvaluateFlat classifies the points of a flat PointSet against sep,
// streaming through the contiguous backing array. A non-nil interior
// receives each point's side: interior[i] is sep.Side(ps.At(i)) <= 0.
func EvaluateFlat(sep geom.Separator, ps *pts.PointSet, interior []bool) SplitStats {
	var st SplitStats
	n := ps.N()
	for i := 0; i < n; i++ {
		in := sep.Side(ps.At(i)) <= 0
		if in {
			st.Interior++
		}
		if interior != nil {
			interior[i] = in
		}
	}
	st.Exterior = n - st.Interior
	return st
}

// Result is the outcome of FindGood.
type Result struct {
	Sep    geom.Separator
	Stats  SplitStats
	Trials int  // candidates generated, the paper's "sequence of calls"
	Punted bool // true when the retry budget ran out and a median hyperplane was used
}

// FindGood repeats the Unit Time Separator Algorithm until a candidate
// δ-splits the points, mirroring step 2 of Parallel Neighborhood Querying:
// "Iteratively apply Unit Time Sphere Separator Algorithm until finding a
// good sphere separator S." If maxTrials candidates all fail (probability
// exponentially small in the budget), it falls back to the median
// hyperplane, which splits perfectly by construction. A search whose
// Options.Done closes returns context.Canceled before its next trial.
func FindGood(pv []vec.Vec, g *xrand.RNG, opts *Options) (Result, error) {
	if len(pv) == 0 {
		return Result{}, errors.New("separator: no points")
	}
	return FindGoodFlat(pts.FromVecs(pv), g, opts)
}

// FindGoodFlat is FindGood on flat contiguous point storage.
func FindGoodFlat(ps *pts.PointSet, g *xrand.RNG, opts *Options) (Result, error) {
	return FindGoodSides(ps, nil, g, opts)
}

// FindGoodSides is FindGoodFlat that also leaves the returned separator's
// sides in interior (see EvaluateFlat), sparing a partition a second pass.
func FindGoodSides(ps *pts.PointSet, interior []bool, g *xrand.RNG, opts *Options) (Result, error) {
	if ps.N() == 0 {
		return Result{}, errors.New("separator: no points")
	}
	delta := DefaultDelta(ps.Dim)
	budget := maxTrials(ps.N())
	inj := opts.chaos()
	var res Result
	for trial := 1; trial <= budget; trial++ {
		if opts.cancelled() {
			return res, context.Canceled
		}
		sep, err := CandidateFlat(ps, g, opts)
		if err != nil {
			res.Trials = trial
			continue // a degenerate candidate costs a trial, like a bad split
		}
		st := EvaluateFlat(sep, ps, interior)
		res.Trials = trial
		if inj.TrialFails(trial) {
			continue // chaos: the candidate is judged unlucky regardless of its ratio
		}
		if st.Ratio() <= delta {
			res.Sep, res.Stats = sep, st
			return res, nil
		}
	}
	if obs.On() {
		obs.Add(obs.GSepFallbacks, 1)
	}
	sep, err := MedianHyperplaneFlat(ps)
	if err != nil {
		return res, err
	}
	res.Sep = sep
	res.Stats = EvaluateFlat(sep, ps, interior)
	res.Punted = true
	return res, nil
}

// MedianHyperplane returns the axis-aligned hyperplane through the median
// coordinate of the widest dimension — Bentley's splitting rule ("translate
// a fixed hyperplane until the points are divided in half"). It is both the
// baseline algorithm's separator and FindGood's deterministic fallback.
func MedianHyperplane(pv []vec.Vec) (geom.Separator, error) {
	if len(pv) == 0 {
		return nil, errors.New("separator: no points")
	}
	return MedianHyperplaneFlat(pts.FromVecs(pv))
}

// MedianHyperplaneFlat is MedianHyperplane on flat storage.
func MedianHyperplaneFlat(ps *pts.PointSet) (geom.Separator, error) {
	n := ps.N()
	if n == 0 {
		return nil, errors.New("separator: no points")
	}
	dim := widestDimFlat(ps)
	coords := make([]float64, n)
	for i := 0; i < n; i++ {
		coords[i] = ps.Data[i*ps.Dim+dim]
	}
	med, err := medianSplitCoord(coords, "separator: all points identical; no separator exists")
	if err != nil {
		return nil, err
	}
	return geom.Halfspace{Normal: vec.Basis(ps.Dim, dim), Offset: med}, nil
}

// widestDimFlat returns the dimension of largest extent, with ties going
// to the smaller index — the same choice geom.NewBounds(...).WidestDim()
// makes.
func widestDimFlat(ps *pts.PointSet) int {
	d := ps.Dim
	lo := append(vec.Vec(nil), ps.At(0)...)
	hi := append(vec.Vec(nil), ps.At(0)...)
	for i := 1; i < ps.N(); i++ {
		row := ps.At(i)
		for c := 0; c < d; c++ {
			if row[c] < lo[c] {
				lo[c] = row[c]
			}
			if row[c] > hi[c] {
				hi[c] = row[c]
			}
		}
	}
	best, bestExt := 0, -1.0
	for c := 0; c < d; c++ {
		if ext := hi[c] - lo[c]; ext > bestExt {
			best, bestExt = c, ext
		}
	}
	return best
}

// medianSplitCoord sorts the coordinates and picks the halving value:
// points with coordinate <= med land on the interior side. If the median
// equals the maximum (more than half the points share the top value), the
// plane is lowered to the largest smaller value so the exterior side is
// nonempty. Zero spread returns an error with the given message.
func medianSplitCoord(coords []float64, zeroSpreadMsg string) (float64, error) {
	sort.Float64s(coords)
	if coords[0] == coords[len(coords)-1] {
		return 0, errors.New(zeroSpreadMsg)
	}
	med := coords[(len(coords)-1)/2]
	if med == coords[len(coords)-1] {
		i := sort.SearchFloat64s(coords, med) // first occurrence of the top value
		med = coords[i-1]
	}
	return med, nil
}

// FixedHyperplane returns the median hyperplane orthogonal to the given
// fixed dimension — Bentley's original rule, which does not adapt to the
// data's shape. When the points concentrate near a hyperplane of that very
// orientation, every halving translate crosses Ω(n) of the k-NN balls; this
// is the paper's motivating bad case for hyperplane divide and conquer and
// the comparator of experiment E5.
func FixedHyperplane(pv []vec.Vec, dim int) (geom.Separator, error) {
	if len(pv) == 0 {
		return nil, errors.New("separator: no points")
	}
	return FixedHyperplaneFlat(pts.FromVecs(pv), dim)
}

// FixedHyperplaneFlat is FixedHyperplane on flat storage.
func FixedHyperplaneFlat(ps *pts.PointSet, dim int) (geom.Separator, error) {
	n := ps.N()
	if n == 0 {
		return nil, errors.New("separator: no points")
	}
	if dim < 0 || dim >= ps.Dim {
		return nil, fmt.Errorf("separator: dimension %d out of range for R^%d", dim, ps.Dim)
	}
	coords := make([]float64, n)
	for i := 0; i < n; i++ {
		coords[i] = ps.Data[i*ps.Dim+dim]
	}
	med, err := medianSplitCoord(coords, "separator: zero spread in requested dimension")
	if err != nil {
		return nil, err
	}
	return geom.Halfspace{Normal: vec.Basis(ps.Dim, dim), Offset: med}, nil
}
