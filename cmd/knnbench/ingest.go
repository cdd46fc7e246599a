package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"sepdc/internal/benchfile"
)

// capture is one saved perfbench run: its standard output, of which
// ingest reads the "# perfbench" line, the "# provenance k=v" lines and
// the final JSON result line.
type capture struct {
	file     string
	workload string
	seed     int
	seconds  string
	traced   bool
	prov     map[string]string
	result   struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
}

// parseCapture reads one perfbench run and refuses a run that answered
// wrongly or names no commit.
func parseCapture(file string) (*capture, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	c := &capture{file: file, prov: map[string]string{}}
	var last []byte
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "# perfbench "); ok {
			for _, field := range strings.Fields(rest) {
				k, v, _ := strings.Cut(field, "=")
				switch k {
				case "workload":
					c.workload = v
				case "seed":
					c.seed, _ = strconv.Atoi(v)
				case "seconds":
					c.seconds = v
				case "trace":
					c.traced = v == "true"
				}
			}
		} else if rest, ok := strings.CutPrefix(line, "# provenance "); ok {
			k, v, _ := strings.Cut(rest, "=")
			c.prov[k] = v
		} else if strings.HasPrefix(line, "{") {
			last = []byte(line)
		}
	}
	switch {
	case c.workload == "":
		return nil, fmt.Errorf("%s: no \"# perfbench workload=\" line", file)
	case last == nil:
		return nil, fmt.Errorf("%s: no result line", file)
	case len(c.prov["commit"]) != 40:
		return nil, fmt.Errorf("%s: provenance names no commit (%q)", file, c.prov["commit"])
	}
	if err := json.Unmarshal(last, &c.result); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", file, err)
	}
	if !c.result.Correct {
		return nil, fmt.Errorf("%s: the run answered wrongly (\"correct\": false)", file)
	}
	return c, nil
}

// Stat summarizes one metric over a workload's runs. The quartiles are
// nearest-rank, as perfbench computes its own order statistics.
type Stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
	Unit   string  `json:"unit"`
}

// Workload is one perfbench workload's section.
type Workload struct {
	benchfile.Header
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	Metrics   map[string]Stat `json:"metrics"`
}

func summarize(xs []float64, unit string) Stat {
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := func(q float64) float64 {
		return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
	}
	return Stat{Median: rank(0.5), Q1: rank(0.25), Q3: rank(0.75), Runs: len(s), Unit: unit}
}

// readCaptures parses the named capture files.
func readCaptures(files []string) ([]*capture, error) {
	runs := make([]*capture, len(files))
	for i, f := range files {
		var err error
		if runs[i], err = parseCapture(f); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// ingest writes one perfbench section per workload the runs cover,
// leaving the sections of other workloads as they are. Every run must
// come from one commit. A workload needs at least one untraced run,
// whose results give the end-to-end metrics, and exactly one traced
// run, whose result gives the per-layer metrics; all its runs share one
// duration. generated stamps the sections.
func ingest(rep *benchfile.Report, runs []*capture, generated string) error {
	byWorkload := map[string][]*capture{}
	var names []string
	for _, c := range runs {
		if c.prov["commit"] != runs[0].prov["commit"] {
			return fmt.Errorf("%s and %s come from different commits (%s, %s)",
				runs[0].file, c.file, runs[0].prov["commit"], c.prov["commit"])
		}
		if byWorkload[c.workload] == nil {
			names = append(names, c.workload)
		}
		byWorkload[c.workload] = append(byWorkload[c.workload], c)
	}
	if rep.Perfbench == nil {
		rep.Perfbench = map[string]json.RawMessage{}
	}
	for _, name := range names {
		w, err := summarizeWorkload(byWorkload[name], generated)
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		if rep.Perfbench[name], err = json.Marshal(w); err != nil {
			return err
		}
	}
	return nil
}

func summarizeWorkload(runs []*capture, generated string) (*Workload, error) {
	var plain []*capture
	var traced *capture
	for _, c := range runs {
		switch {
		case c.seconds != runs[0].seconds:
			return nil, fmt.Errorf("%s runs %s s, %s runs %s s", runs[0].file, runs[0].seconds, c.file, c.seconds)
		case !c.traced:
			plain = append(plain, c)
		case traced != nil:
			return nil, fmt.Errorf("two traced runs, %s and %s", traced.file, c.file)
		default:
			traced = c
		}
	}
	if len(plain) == 0 || traced == nil {
		return nil, fmt.Errorf("want untraced runs and one traced run, have %d and %d", len(plain), len(runs)-len(plain))
	}
	slices.SortFunc(plain, func(a, b *capture) int { return a.seed - b.seed })
	seeds := make([]string, len(plain))
	for i, c := range plain {
		seeds[i] = strconv.Itoa(c.seed)
	}
	p := plain[0].prov
	procs, _ := strconv.Atoi(p["gomaxprocs_bench"])
	ncpu, _ := strconv.Atoi(p["nproc"])
	w := &Workload{
		Header: benchfile.Header{
			Commit:    p["commit"],
			Generated: generated,
			Host: benchfile.Host{
				GoVersion: p["go_version"], GOMAXPROCS: procs, NumCPU: ncpu,
				CPUModel: p["cpu_model"], CPUFeatures: p["cpu_features"], KernelTier: p["kernel_tier"],
			},
			Protocol: fmt.Sprintf("perfbench --workload %s --seconds %s: end-to-end metrics are the median and "+
				"nearest-rank quartiles of %d untraced runs (seeds %s); per-layer metrics come from one traced "+
				"run (seed %d); attempted and failed sum over every run",
				plain[0].workload, plain[0].seconds, len(plain), strings.Join(seeds, ","), traced.seed),
		},
		Metrics: map[string]Stat{},
	}
	values := map[string][]float64{}
	for _, c := range append(plain, traced) {
		w.Dirty = w.Dirty || c.prov["dirty"] != "false"
		w.Attempted += c.result.Attempted
		w.Failed += c.result.Failed
		for name, m := range c.result.Metrics {
			if c == traced && values[name] != nil {
				return nil, fmt.Errorf("%s reports %s, which the untraced runs measure", c.file, name)
			}
			values[name] = append(values[name], m.Value)
			w.Metrics[name] = Stat{Unit: m.Unit}
		}
	}
	for name, xs := range values {
		w.Metrics[name] = summarize(xs, w.Metrics[name].Unit)
	}
	return w, nil
}
