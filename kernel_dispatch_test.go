package sepdc

import (
	"testing"

	"sepdc/internal/geom"
	"sepdc/internal/nbrsys"
	"sepdc/internal/vec"
)

// bruteCovering answers every query by the definition: a Dist2Flat scan
// of all k-neighborhood balls, in ascending id order, with the open
// predicate d² < r² and the closed predicate d² ≤ r² + geom.Eps.
func bruteCovering(points, queries [][]float64, k int) (open, closed [][]int) {
	centers := make([]vec.Vec, len(points))
	for i, p := range points {
		centers[i] = p
	}
	sys := nbrsys.KNeighborhood(centers, k)
	open, closed = make([][]int, len(queries)), make([][]int, len(queries))
	for qi, q := range queries {
		for i, c := range sys.Centers {
			r2 := sys.Radii[i] * sys.Radii[i]
			d2 := vec.Dist2Flat(q, c)
			if d2 < r2 {
				open[qi] = append(open[qi], i)
			}
			if d2 <= r2+geom.Eps {
				closed[qi] = append(closed[qi], i)
			}
		}
	}
	return open, closed
}

// checkAgainstBrute requires every answer of a query structure over
// points, sequential and batched, open and closed, to equal the
// brute-force covering scan.
func checkAgainstBrute(t *testing.T, points, queries [][]float64, k int, seed uint64) {
	t.Helper()
	wantOpen, wantClosed := bruteCovering(points, queries, k)
	qs, err := NewQueryStructure(points, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		got, err := qs.CoveringBalls(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !sameInts(got, wantOpen[i]) {
			t.Fatalf("sequential query %d: %v, brute %v", i, got, wantOpen[i])
		}
	}
	bt := qs.NewBatcher(3)
	if err := bt.Run(queries); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if !sameInts(bt.Result(i), wantOpen[i]) {
			t.Fatalf("batched open query %d: %v, brute %v", i, bt.Result(i), wantOpen[i])
		}
	}
	if err := bt.RunClosed(queries); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if !sameInts(bt.Result(i), wantClosed[i]) {
			t.Fatalf("batched closed query %d: %v, brute %v", i, bt.Result(i), wantClosed[i])
		}
	}
}

// dispatchFamilies names one dimension per kernel family the dispatch
// table serves: the flat loops outside d = 2..8, the unrolled Go bodies
// (d = 3, inlined in the leaf scan), and the dimension where AVX2 hosts
// run the assembly strided and four-point bodies (d = 6; Go elsewhere).
var dispatchFamilies = []struct {
	name string
	d    int
}{{"generic", 9}, {"unrolled", 3}, {"asm", 6}}

// TestGoldenAcrossKernelTiersChaos is the kernel-dispatch golden
// contract under every chaos profile: whatever KNN_CHAOS does to the
// build, every answer each kernel family serves must equal the
// brute-force Dist2Flat covering scan.
func TestGoldenAcrossKernelTiersChaos(t *testing.T) {
	const n, k, seed = 400, 3, 21
	profiles := map[string]string{"clean": ""}
	for name, spec := range chaosSpecs {
		profiles[name] = spec
	}
	for name, spec := range profiles {
		t.Run(name, func(t *testing.T) {
			if spec != "" {
				t.Setenv("KNN_CHAOS", spec)
			}
			for _, fam := range dispatchFamilies {
				t.Run(fam.name, func(t *testing.T) {
					points := genPoints(n, fam.d, seed)
					checkAgainstBrute(t, points, queryPoints(points, 160, 33), k, seed)
				})
			}
		})
	}
}

// TestGoldenKernelTiersAllDims sweeps the dispatch table's dimension
// range: at every d = 2..8 the answers, sequential and batched, open
// and closed, equal the brute-force covering scan.
func TestGoldenKernelTiersAllDims(t *testing.T) {
	for d := 2; d <= 8; d++ {
		points := genPoints(300, d, uint64(40+d))
		checkAgainstBrute(t, points, queryPoints(points, 120, uint64(50+d)), 3, uint64(40+d))
	}
}
