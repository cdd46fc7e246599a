// Command knnbench writes BENCH_knn.json, the repository's benchmark
// record. It ingests saved perfbench runs (the standard output of
// `bash perfbench/run.sh`), one section per workload, and adds the two
// measurements perfbench does not take: the distance kernels per
// dimension and the wide-event journal's drain throughput. knnload
// writes the serve section. `make bench-json` runs the whole
// regeneration. knnbench takes its commit from its build stamp, so it
// is built with go build (go run stamps none):
//
//	go build -o .bench_runs/knnbench ./cmd/knnbench
//	.bench_runs/knnbench -out BENCH_knn.json .bench_runs/*.txt
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"sepdc/internal/benchfile"
)

func main() {
	out := flag.String("out", "BENCH_knn.json", "benchmark record to update")
	flag.Parse()
	if err := regenerate(*out, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "knnbench:", err)
		os.Exit(1)
	}
}

// regenerate ingests the perfbench captures and re-measures kernels and
// journal, refusing captures from another commit than its own.
func regenerate(path string, files []string) error {
	if len(files) == 0 {
		return errors.New("usage: knnbench [-out FILE] PERFBENCH_CAPTURE...")
	}
	runs, err := readCaptures(files)
	if err != nil {
		return err
	}
	hdr, err := benchfile.Capture()
	if err != nil {
		return err
	}
	if commit := runs[0].prov["commit"]; commit != hdr.Commit {
		return fmt.Errorf("%s comes from commit %s, knnbench from %s", runs[0].file, commit, hdr.Commit)
	}
	kernels := &Kernels{Header: hdr, Rows: runKernelBench()}
	kernels.Protocol = kernelsProtocol
	journal, err := runJournalBench()
	if err != nil {
		return err
	}
	journal.Header = hdr
	journal.Protocol = journalProtocol
	return benchfile.Update(path, func(rep *benchfile.Report) error {
		if err := ingest(rep, runs, hdr.Generated); err != nil {
			return err
		}
		if rep.Kernels, err = json.Marshal(kernels); err != nil {
			return err
		}
		rep.Journal, err = json.Marshal(journal)
		return err
	})
}
