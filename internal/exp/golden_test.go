package exp

import (
	"os"
	"strings"
	"testing"

	"sepdc/internal/stats"
)

// quickGolden renders the quick-mode tables of the experiments that run
// the fast-correction march (E8's marching profile, E10's reachability
// kernel) at the suite's default seed. Both are deterministic: their
// cells are counts and simulated costs, never wall time.
func quickGolden() string {
	var b strings.Builder
	cfg := Config{Seed: 1992, Quick: true}
	for _, run := range []func(Config) []*stats.Table{runE8, runE10} {
		for _, tb := range run(cfg) {
			b.WriteString(tb.Render())
		}
	}
	return b.String()
}

// TestMarchExperimentsGolden pins the simulated figures of E8 and E10:
// a change to how the partition tree is laid out or marched must leave
// every cell as it was.
func TestMarchExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/e8_e10_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := quickGolden(); got != string(want) {
		t.Errorf("E8/E10 quick tables changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
