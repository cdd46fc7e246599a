package sepdc

import (
	"strings"
	"testing"
	"time"

	"sepdc/internal/chaos"
)

// chaosProfiles enumerates the injection profiles the suite runs every
// algorithm under. Each one forces a different unlucky path of the divide
// and conquer; the acceptance criterion for all of them is identical —
// the graph does not change.
// chaosSpecs are the raw injection profiles, shared between the injector
// form below and the env-driven (KNN_CHAOS) golden tests.
var chaosSpecs = map[string]string{
	"sep-fail-2":    "sep-fail=2",
	"sep-fail-all":  "sep-fail=all",
	"punt-all":      "punt=all",
	"punt-top":      "punt=0,1",
	"march-abort":   "march-abort=all",
	"march-level-1": "march-level=1",
	"stall":         "stall=200us",
	"kitchen-sink":  "sep-fail=all;punt=all;march-abort=all;march-level=1;stall=100us",
	"deep-combined": "sep-fail=1;punt=2,3;march-level=2",
}

func chaosProfiles(t *testing.T) map[string]*chaos.Injector {
	t.Helper()
	out := make(map[string]*chaos.Injector, len(chaosSpecs))
	for name, spec := range chaosSpecs {
		inj, err := chaos.Parse(spec)
		if err != nil {
			t.Fatalf("profile %s: Parse(%q): %v", name, spec, err)
		}
		out[name] = inj
	}
	return out
}

// TestChaosGraphUnchanged is the tentpole assertion: under every injection
// profile, both divide-and-conquer algorithms still produce exactly the
// graph of the uninjected build (itself cross-checked against Brute). The
// injections reroute work onto the punt and fallback paths — they must
// never change the answer. This is the Punting Lemma as a test.
func TestChaosGraphUnchanged(t *testing.T) {
	const n, d, k, seed = 400, 3, 3, 7
	points := genPoints(n, d, seed)
	truth, err := BuildKNNGraph(points, k, &Options{Algorithm: Brute})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{Sphere, Hyperplane} {
		// The zero injector pins this build clean even when the test process
		// itself runs under a KNN_CHAOS profile (make chaos).
		clean, err := BuildKNNGraph(points, k, &Options{Algorithm: algo, Seed: seed, chaos: &chaos.Injector{}})
		if err != nil {
			t.Fatalf("%s clean build: %v", algo, err)
		}
		if !Equal(clean, truth) {
			t.Fatalf("%s clean build disagrees with brute force", algo)
		}
		for name, inj := range chaosProfiles(t) {
			t.Run(string(algo)+"/"+name, func(t *testing.T) {
				opts := &Options{Algorithm: algo, Seed: seed, chaos: inj}
				if inj.StallDuration() > 0 {
					// The stall hook lives on the pool's workers; give the
					// pool real workers even on a single-CPU runner.
					opts.Workers = 4
				}
				g, err := BuildKNNGraph(points, k, opts)
				if err != nil {
					t.Fatalf("chaos build: %v", err)
				}
				if !Equal(g, clean) {
					t.Fatalf("profile %q changed the graph", inj)
				}
			})
		}
	}
}

// TestChaosMovesCounters asserts the injections are actually firing: each
// profile must leave a visible footprint in the build statistics, not just
// coincidentally produce the right graph because the hook never ran.
func TestChaosMovesCounters(t *testing.T) {
	const n, d, k, seed = 400, 3, 3, 7
	points := genPoints(n, d, seed)
	// Zero injector: keep the baseline clean even under an ambient KNN_CHAOS.
	clean, err := BuildKNNGraph(points, k, &Options{Algorithm: Sphere, Seed: seed, chaos: &chaos.Injector{}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec  string
		check func(t *testing.T, clean, injected Stats)
	}{
		{"sep-fail=2", func(t *testing.T, c, i Stats) {
			if i.SeparatorTrials <= c.SeparatorTrials {
				t.Errorf("sep-fail=2: trials %d, want > clean %d", i.SeparatorTrials, c.SeparatorTrials)
			}
		}},
		{"punt=all", func(t *testing.T, c, i Stats) {
			if i.FastCorrections != 0 {
				t.Errorf("punt=all: %d fast corrections survived, want 0", i.FastCorrections)
			}
			if i.Punts <= c.Punts {
				t.Errorf("punt=all: punts %d, want > clean %d", i.Punts, c.Punts)
			}
		}},
		{"march-abort=all", func(t *testing.T, c, i Stats) {
			if i.FastCorrections != 0 {
				t.Errorf("march-abort=all: %d fast corrections completed, want 0", i.FastCorrections)
			}
		}},
		{"march-level=1", func(t *testing.T, c, i Stats) {
			if i.FastCorrections != 0 {
				t.Errorf("march-level=1: %d marches survived level 1, want 0", i.FastCorrections)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			inj, err := chaos.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			g, err := BuildKNNGraph(points, k, &Options{Algorithm: Sphere, Seed: seed, chaos: inj})
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(g, clean) {
				t.Fatal("injection changed the graph")
			}
			tc.check(t, clean.Stats(), g.Stats())
		})
	}
}

// TestChaosPuntAllTakesBothPuntPaths: with every correction punted, the
// small punts scan directly and the large ones still build the Section-3
// query structure, so both halves of the punt path stay exercised.
func TestChaosPuntAllTakesBothPuntPaths(t *testing.T) {
	const n, d, k, seed = 2048, 3, 4, 11
	points := genPoints(n, d, seed)
	clean, err := BuildKNNGraph(points, k, &Options{Algorithm: Sphere, Seed: seed, chaos: &chaos.Injector{}})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.Parse("punt=all")
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildKNNGraph(points, k, &Options{Algorithm: Sphere, Seed: seed, Observe: true, chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, clean) {
		t.Fatal("punt=all changed the graph")
	}
	rep := g.Stats().Report
	builds, corrections := rep.Counter("septree_builds"), rep.Counter("query_corrections")
	t.Logf("septree_builds %d, query_corrections %d", builds, corrections)
	if builds == 0 {
		t.Errorf("no punt built a query structure (septree_builds = 0)")
	}
	if corrections <= builds {
		t.Errorf("query_corrections %d <= septree_builds %d: no punt scanned directly", corrections, builds)
	}
}

// TestChaosDeterministicUnderInjection: a chaos build is as reproducible
// as a clean one — same seed, same profile, same graph and same counters.
func TestChaosDeterministicUnderInjection(t *testing.T) {
	points := genPoints(300, 2, 11)
	inj, err := chaos.Parse("sep-fail=1;punt=1;march-level=2")
	if err != nil {
		t.Fatal(err)
	}
	var prev *Graph
	for run := 0; run < 3; run++ {
		g, err := BuildKNNGraph(points, 4, &Options{Algorithm: Sphere, Seed: 5, chaos: inj})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if !Equal(g, prev) {
				t.Fatalf("run %d: graph differs from previous run", run)
			}
			if g.Stats().SeparatorTrials != prev.Stats().SeparatorTrials ||
				g.Stats().Punts != prev.Stats().Punts ||
				g.Stats().MaxDepth != prev.Stats().MaxDepth {
				t.Fatalf("run %d: stats differ: %+v vs %+v", run, g.Stats(), prev.Stats())
			}
		}
		prev = g
	}
}

// TestChaosFromEnv drives the injector through the KNN_CHAOS environment
// spec — the route CI and downstream consumers use — and checks both that
// it fires and that the graph is unchanged.
func TestChaosFromEnv(t *testing.T) {
	points := genPoints(200, 2, 3)
	t.Setenv(chaos.EnvVar, "") // shield the baseline from an ambient profile
	clean, err := BuildKNNGraph(points, 2, &Options{Algorithm: Sphere, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	t.Setenv(chaos.EnvVar, "sep-fail=all")
	g, err := BuildKNNGraph(points, 2, &Options{Algorithm: Sphere, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, clean) {
		t.Fatal("env-driven injection changed the graph")
	}
	if g.Stats().SeparatorTrials <= clean.Stats().SeparatorTrials {
		t.Fatalf("env injection did not fire: trials %d, clean %d",
			g.Stats().SeparatorTrials, clean.Stats().SeparatorTrials)
	}

	// The in-code knob outranks the environment.
	quiet, err := BuildKNNGraph(points, 2, &Options{Algorithm: Sphere, Seed: 3, chaos: &chaos.Injector{}})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Stats().SeparatorTrials != clean.Stats().SeparatorTrials {
		t.Fatal("explicit injector did not override KNN_CHAOS")
	}

	t.Setenv(chaos.EnvVar, "sep-fail=banana")
	if _, err := BuildKNNGraph(points, 2, nil); err == nil {
		t.Fatal("invalid KNN_CHAOS spec: want error, got nil")
	} else if !strings.Contains(err.Error(), chaos.EnvVar) {
		t.Fatalf("error %q does not name %s", err, chaos.EnvVar)
	}
}

// TestChaosStallPerturbsOnlySchedule: with a worker stall installed the
// build takes visibly longer but produces the identical graph and the
// identical deterministic counters.
func TestChaosStallPerturbsOnlySchedule(t *testing.T) {
	points := genPoints(300, 2, 9)
	clean, err := BuildKNNGraph(points, 3, &Options{Algorithm: Sphere, Seed: 9, Workers: 4, chaos: &chaos.Injector{}})
	if err != nil {
		t.Fatal(err)
	}
	inj := &chaos.Injector{WorkerStall: 200 * time.Microsecond}
	stalled, err := BuildKNNGraph(points, 3, &Options{Algorithm: Sphere, Seed: 9, Workers: 4, chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(stalled, clean) {
		t.Fatal("worker stall changed the graph")
	}
	cs, ss := clean.Stats(), stalled.Stats()
	if cs.SeparatorTrials != ss.SeparatorTrials || cs.Punts != ss.Punts ||
		cs.FastCorrections != ss.FastCorrections || cs.MaxDepth != ss.MaxDepth {
		t.Fatalf("worker stall moved deterministic counters: %+v vs %+v", cs, ss)
	}
}
