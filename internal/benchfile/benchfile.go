// Package benchfile is the one reader and writer of BENCH_knn.json, the
// repository's benchmark record. Every command that records numbers
// merges its sections through Update, so a writer never disturbs the
// bytes of a section it did not measure, and every section opens with a
// Header naming the commit, host and protocol behind its numbers.
package benchfile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"sepdc/internal/cpufeat"
	"sepdc/internal/vec"
)

// Host records the machine and toolchain a section's numbers were taken on.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPUModel   string `json:"cpu_model,omitempty"`
	// CPUFeatures and KernelTier pin which distance-kernel dispatch the
	// numbers were taken under: the detected vector features
	// ("avx,avx2,fma,..." or "none") and the tier the process resolved
	// ("asm", "unrolled", or "generic" — KNN_KERNELS overrides).
	CPUFeatures string `json:"cpu_features,omitempty"`
	KernelTier  string `json:"kernel_tier,omitempty"`
}

// Header opens every section: the commit whose code produced the
// numbers (Dirty when the working tree differed from it), when, on what
// host, and by which protocol.
type Header struct {
	Commit    string `json:"commit"`
	Dirty     bool   `json:"dirty"`
	Generated string `json:"generated"`
	Host      Host   `json:"host"`
	Protocol  string `json:"protocol"`
}

// Capture returns the header, all but its protocol, for numbers this
// process measures now. The commit comes from the binary's build info,
// which `go build` stamps inside a git checkout (`go run` and `go test`
// do not); a binary that names no commit has nothing to record under.
func Capture() (Header, error) {
	h := Header{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host: Host{
			GoVersion:   runtime.Version(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
			GOOS:        runtime.GOOS,
			GOARCH:      runtime.GOARCH,
			CPUModel:    cpuModel(),
			CPUFeatures: cpufeat.Features(),
			KernelTier:  vec.ActiveTier().String(),
		},
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	if h.Commit == "" {
		return Header{}, errors.New("benchfile: the binary names no commit; build it with go build in a git checkout")
	}
	return h, nil
}

// cpuModel is the CPU model name from /proc/cpuinfo ("" where there is
// none).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// Report is the whole BENCH_knn.json document. The sections are held as
// raw JSON so that a writer marshals only the sections it measures and
// carries every other section of the existing file forward byte for
// byte: cmd/knnbench writes perfbench (one section per perfbench
// workload, ingested from its runs), kernels and journal; cmd/knnload
// writes serve.
type Report struct {
	Perfbench map[string]json.RawMessage `json:"perfbench,omitempty"`
	Kernels   json.RawMessage            `json:"kernels,omitempty"`
	Journal   json.RawMessage            `json:"journal,omitempty"`
	Serve     json.RawMessage            `json:"serve,omitempty"`
}

// Update reads the report at path (an empty one if the file does not
// exist), lets measure overwrite the sections it re-measures, and writes
// the report back. Sections measure leaves alone keep their bytes in a
// two-space-indented record: the encoder re-indents raw sections at the
// depth they were read from and leaves their string escapes alone (HTML
// escaping is off). A top-level key Report does not know is an error, so
// no rewrite drops a section unnoticed.
func Update(path string, measure func(rep *Report) error) error {
	var rep Report
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rep); err != nil {
			return fmt.Errorf("parse existing report %s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return fmt.Errorf("read existing report: %w", err)
	}
	if err := measure(&rep); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
