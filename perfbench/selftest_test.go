package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSelf runs every workload at tiny size, untraced and traced, and
// checks that the result line names every BENCHMARK.json metric with its
// unit and that the report prints every one of them. A corrupted expected
// answer must then fail each workload: error_rate > 0 and a non-zero exit.
//
//	cd perfbench && go test -run TestSelf -v
func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs knnserve")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bench, server := filepath.Join(dir, "perfbench"), filepath.Join(dir, "knnserve")
	for _, args := range [][]string{
		{"build", "-o", bench, "."},
		{"-C", "..", "build", "-o", server, "./cmd/knnserve"},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	run := func(t *testing.T, w string, extra ...string) (string, result, error) {
		args := append([]string{"--knnserve", server, "--tiny", "--workload", w, "--seed", "7", "--seconds", "1"}, extra...)
		out, err := exec.Command(bench, args...).Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			t.Fatalf("%s %v: last line is not a result: %v\n%s", w, extra, jerr, out)
		}
		return string(out), res, err
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w := sw.Name
		t.Run(w, func(t *testing.T) {
			for trace, metrics := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
				out, res, err := run(t, w, "--trace", strconv.Itoa(trace))
				if err != nil {
					t.Fatalf("trace %d: %v\n%s", trace, err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(metrics) {
					t.Errorf("trace %d: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(metrics))
				}
				for _, m := range metrics {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace %d: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
					}
					if _, ok := reportValue(out, m.Name, m.Unit); !ok {
						t.Errorf("trace %d: report has no %s line in %s", trace, m.Name, m.Unit)
					}
				}
			}

			out, res, err := run(t, w, "--trace", "0", "--selftest-corrupt")
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Errorf("corrupted answer: exit error %v, want a non-zero exit", err)
			}
			if rate, ok := reportValue(out, "error_rate", "ratio"); !ok || rate <= 0 {
				t.Errorf("corrupted answer: error_rate %v (found %v), want > 0\n%s", rate, ok, out)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("corrupted answer: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

// reportValue finds the report line printing metric name in unit.
func reportValue(out, name, unit string) (float64, bool) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[2] == name && f[4] == unit {
			v, err := strconv.ParseFloat(f[3], 64)
			return v, err == nil
		}
	}
	return 0, false
}
