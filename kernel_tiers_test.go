package sepdc

import (
	"testing"

	"sepdc/internal/vec"
)

// availableTiers lists the kernel dispatch tiers this build/CPU can
// actually serve — the asm tier only where the AVX2 bodies are linked
// in and runnable.
func availableTiers() []vec.KernelTier {
	ts := []vec.KernelTier{vec.TierGeneric, vec.TierUnrolled}
	if vec.AsmSupported() {
		ts = append(ts, vec.TierAsm)
	}
	return ts
}

// TestGoldenAcrossKernelTiersChaos is the cross-tier golden contract
// under every chaos profile: whatever KNN_CHAOS does to the build, and
// whichever kernel tier (KNN_KERNELS equivalent) serves the queries,
// every answer — sequential and batched, open and closed — must be element-for-element identical to the clean
// generic-tier baseline. This is the acceptance gate for swapping the
// assembly kernels into the serving path.
func TestGoldenAcrossKernelTiersChaos(t *testing.T) {
	const n, d, k, seed = 400, 6, 3, 21
	points := genPoints(n, d, seed)
	queries := queryPoints(points, 160, 33)
	prev := vec.ActiveTier()
	defer vec.SetActiveTier(prev)

	// Baseline: clean build, generic tier.
	vec.SetActiveTier(vec.TierGeneric)
	qs0, err := NewQueryStructure(points, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	wantOpen := make([][]int, len(queries))
	for i, q := range queries {
		if wantOpen[i], err = qs0.CoveringBalls(q); err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
	}
	base := qs0.NewBatcher(1)
	if err := base.RunClosed(queries); err != nil {
		t.Fatal(err)
	}
	wantClosed := make([][]int, len(queries))
	for i := range queries {
		wantClosed[i] = append([]int(nil), base.Result(i)...)
	}

	profiles := map[string]string{"clean": ""}
	for name, spec := range chaosSpecs {
		profiles[name] = spec
	}
	for name, spec := range profiles {
		t.Run(name, func(t *testing.T) {
			if spec != "" {
				t.Setenv("KNN_CHAOS", spec)
			}
			for _, tier := range availableTiers() {
				t.Run(tier.String(), func(t *testing.T) {
					vec.SetActiveTier(tier)
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
							t.Fatalf("sequential query %d: %v, baseline %v", i, got, wantOpen[i])
						}
					}
					bt := qs.NewBatcher(3)
					if err := bt.Run(queries); err != nil {
						t.Fatal(err)
					}
					for i := range queries {
						if !sameInts(bt.Result(i), wantOpen[i]) {
							t.Fatalf("batched open query %d: %v, baseline %v", i, bt.Result(i), wantOpen[i])
						}
					}
					if err := bt.RunClosed(queries); err != nil {
						t.Fatal(err)
					}
					for i := range queries {
						if !sameInts(bt.Result(i), wantClosed[i]) {
							t.Fatalf("batched closed query %d: %v, baseline %v", i, bt.Result(i), wantClosed[i])
						}
					}
				})
			}
		})
	}
}

// TestGoldenKernelTiersAllDims sweeps the asm-covered dimension range:
// at every d the tiers must return identical coverings, sequential and
// batched.
func TestGoldenKernelTiersAllDims(t *testing.T) {
	prev := vec.ActiveTier()
	defer vec.SetActiveTier(prev)
	for d := 2; d <= 8; d++ {
		points := genPoints(300, d, uint64(40+d))
		queries := queryPoints(points, 120, uint64(50+d))
		vec.SetActiveTier(vec.TierGeneric)
		qs0, err := NewQueryStructure(points, 3, uint64(40+d))
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]int, len(queries))
		for i, q := range queries {
			if want[i], err = qs0.CoveringBalls(q); err != nil {
				t.Fatal(err)
			}
		}
		for _, tier := range availableTiers() {
			vec.SetActiveTier(tier)
			qs, err := NewQueryStructure(points, 3, uint64(40+d))
			if err != nil {
				t.Fatal(err)
			}
			bt := qs.NewBatcher(2)
			if err := bt.Run(queries); err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				got, err := qs.CoveringBalls(q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameInts(got, want[i]) {
					t.Fatalf("d=%d tier=%v query %d: %v, baseline %v", d, tier, i, got, want[i])
				}
				if !sameInts(bt.Result(i), want[i]) {
					t.Fatalf("d=%d tier=%v batched query %d: %v, baseline %v", d, tier, i, bt.Result(i), want[i])
				}
			}
		}
	}
}
