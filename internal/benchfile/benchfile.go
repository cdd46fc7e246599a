// Package benchfile is the one reader and writer of BENCH_knn.json, the
// repository's benchmark record. Every command that records numbers
// merges its sections through Update, so a writer never disturbs the
// bytes of a section it did not measure.
package benchfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Env records the machine and build the numbers were taken on.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GitCommit  string `json:"git_commit,omitempty"`
	// CPUFeatures and KernelTier pin which distance-kernel dispatch the
	// numbers were taken under: the detected vector features
	// ("avx,avx2,fma,..." or "none") and the tier the process resolved
	// ("asm", "unrolled", or "generic" — KNN_KERNELS overrides).
	CPUFeatures string `json:"cpu_features,omitempty"`
	KernelTier  string `json:"kernel_tier,omitempty"`
}

// Report is the whole BENCH_knn.json document. The sections are held as
// raw JSON so that a writer marshals only the sections it measures and
// carries every other section of the existing file forward byte for
// byte: cmd/knnbench owns the header and every section but serve,
// cmd/knnload owns serve, and layout is the recorded baseline of a
// retired configuration that nothing measures any more.
type Report struct {
	Generated  string          `json:"generated"`
	GoVersion  string          `json:"go_version"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Env        Env             `json:"env"`
	Note       string          `json:"note"`
	Baseline   json.RawMessage `json:"baseline,omitempty"`
	Results    json.RawMessage `json:"results,omitempty"`
	Query      json.RawMessage `json:"query,omitempty"`
	Obs        json.RawMessage `json:"obs_overhead,omitempty"`
	Journal    json.RawMessage `json:"journal,omitempty"`
	Kernels    json.RawMessage `json:"kernels,omitempty"`
	Layout     json.RawMessage `json:"layout,omitempty"`
	Serve      json.RawMessage `json:"serve,omitempty"`
}

// Update reads the report at path, lets measure overwrite the header
// fields and sections it re-measures, and writes the report back. Sections
// measure leaves alone keep their bytes in a two-space-indented record:
// the encoder re-indents raw sections at the depth they were read from
// and leaves their string escapes alone (HTML escaping is off). A
// missing file starts an empty report unless mustExist is set (knnbench's
// -only modes merge into a record, so they need one); path "-" starts
// empty and writes to stdout.
func Update(path string, mustExist bool, measure func(rep *Report) error) error {
	var rep Report
	if path != "-" {
		raw, err := os.ReadFile(path)
		switch {
		case err == nil:
			if err := json.Unmarshal(raw, &rep); err != nil {
				return fmt.Errorf("parse existing report %s: %w", path, err)
			}
		case mustExist || !os.IsNotExist(err):
			return fmt.Errorf("read existing report: %w", err)
		}
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
	if path == "-" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
