package main

import (
	"fmt"
	"os"
	"time"

	"sepdc/internal/benchfile"
	"sepdc/internal/nbrsys"
	"sepdc/internal/obs"
	"sepdc/internal/pointgen"
	"sepdc/internal/septree"
	"sepdc/internal/xrand"
)

// JournalBench characterizes the wide-event journal itself rather than
// its serving overhead: how fast a concurrent consumer can pull events
// out (the /journal?drain=1 path), and how hard the ring overwrites
// when nobody drains (the flight-recorder-only deployment, where
// Snapshot reads whatever the ring still holds).
type JournalBench struct {
	benchfile.Header

	// Drained leg: a consumer drains continuously while batches serve.
	DrainedEvents  uint64  `json:"drained_events"`
	DrainedPerSec  float64 `json:"drained_events_per_sec"`
	DrainedDropped uint64  `json:"drained_dropped"` // overwritten before the drainer got there

	// Saturated leg: nobody drains; the ring overwrites freely and one
	// final drain accounts for everything lost.
	SaturatedPublished uint64  `json:"saturated_published"`
	SaturatedDropped   uint64  `json:"saturated_dropped"`
	OverwriteRate      float64 `json:"overwrite_rate"` // dropped / published
}

// journalProtocol describes runJournalBench for the section header.
const journalProtocol = "knnbench: 50 batch passes of 4096 queries (a third replaying stored points) " +
	"over an n=1e5, d=2, k=4 uniform-cube structure on one strand, journaling every query into a " +
	"1024-event ring; drained leg with a concurrent consumer draining in a loop, then a saturated " +
	"leg that nobody drains until the end"

// runJournalBench measures journal drain throughput and ring-overwrite
// behavior over a live batch engine.
func runJournalBench() (*JournalBench, error) {
	const (
		n, d, k    = 100000, 2, 4
		numQueries = 4096
		batches    = 50
		perStrand  = 1024 // deliberately small: overwrite pressure is the point
	)
	g := xrand.New(uint64(n*31 + d))
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, n, d, g.Split()))
	frozen, err := septree.Build(nbrsys.KNeighborhood(pts, k), xrand.New(42), nil)
	if err != nil {
		return nil, err
	}
	queries := make([][]float64, numQueries)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = pts[g.IntN(len(pts))]
		} else {
			queries[i] = g.InCube(d)
		}
	}
	res := &JournalBench{}

	// Drained leg: consumer drains as fast as it can while serving runs.
	jour := obs.NewJournal(obs.JournalConfig{PerStrand: perStrand}, 1)
	b := septree.NewBatch(frozen, 1)
	b.Journal(jour)
	b.Run(queries, nil, false) // warm
	jour.Drain()
	stop := make(chan struct{})
	done := make(chan struct{})
	var drained, dropped uint64 // dropped is cumulative in each Drain; keep the last
	go func() {
		defer close(done)
		for stopped := false; !stopped; { // one last drain after stop
			select {
			case <-stop:
				stopped = true
			default:
			}
			d := jour.Drain()
			drained += uint64(len(d.Events))
			dropped = d.Dropped
		}
	}()
	start := time.Now()
	for i := 0; i < batches; i++ {
		b.Run(queries, nil, false)
	}
	el := time.Since(start)
	close(stop)
	<-done
	res.DrainedEvents = drained
	res.DrainedDropped = dropped
	res.DrainedPerSec = float64(drained) / el.Seconds()

	// Saturated leg: same engine, nobody drains until the end.
	jour2 := obs.NewJournal(obs.JournalConfig{PerStrand: perStrand}, 1)
	b.Journal(jour2)
	for i := 0; i < batches; i++ {
		b.Run(queries, nil, false)
	}
	snap := jour2.Drain()
	res.SaturatedPublished = snap.Published
	res.SaturatedDropped = snap.Dropped
	if snap.Published > 0 {
		res.OverwriteRate = float64(snap.Dropped) / float64(snap.Published)
	}
	fmt.Fprintf(os.Stderr, "journal n=%-6d d=%d ring=%d  drained %.0f ev/s (%d dropped)  saturated overwrite rate %.3f (%d/%d)\n",
		n, d, perStrand, res.DrainedPerSec, res.DrainedDropped,
		res.OverwriteRate, res.SaturatedDropped, res.SaturatedPublished)
	return res, nil
}
