package main

import (
	"fmt"
	"time"

	"sepdc"
	"sepdc/internal/pointgen"
	"sepdc/internal/xrand"
)

// runFlight is the -flight serve loop: build the Section-3 query
// structure, attach the full diagnosis pipeline (serve observer,
// wide-event journal, flight recorder with a per-batch latency SLO),
// and serve batches while evaluating the burn rate between Runs. A
// KNN_CHAOS stall profile inflates batch latency through the Batcher's
// serving chaos seam, so the flight-smoke CI job can trip the SLO
// deterministically:
//
//	KNN_CHAOS="stall=3ms" knn -flight /tmp/fl -n 2000 -d 2 -k 3 \
//	    -rnn 64 -flight-latency 4ms -flight-batches 150
//
// Bundles land under the -flight directory; verify one with
// -verify-bundle.
func runFlight(dir string, n, d, k int, seed uint64, workers, queriesPerBatch, batches int, latency time.Duration) error {
	if queriesPerBatch <= 0 {
		queriesPerBatch = 256
	}
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, n, d, xrand.New(seed)))
	points := make([][]float64, len(pts))
	for i, p := range pts {
		points[i] = p
	}
	qs, err := sepdc.NewQueryStructure(points, k, seed)
	if err != nil {
		return err
	}
	g := xrand.New(seed + 1)
	queries := make([][]float64, queriesPerBatch)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = points[g.IntN(len(points))]
		} else {
			queries[i] = g.InCube(d)
		}
	}

	obsv := sepdc.NewServeObserver("flight", sepdc.ServeObserverConfig{SampleEvery: 4})
	defer obsv.Close()
	jr := sepdc.NewQueryJournal("flight", sepdc.QueryJournalConfig{})
	defer jr.Close()
	fr, err := sepdc.NewFlightRecorder(sepdc.FlightConfig{
		Dir:              dir,
		LatencyObjective: latency,
	})
	if err != nil {
		return err
	}
	defer fr.Close()

	bt := qs.NewBatcher(workers)
	bt.Observe(obsv)
	bt.Journal(jr)
	if err := fr.WatchBatcher("flight_latency", bt, jr, obsv); err != nil {
		return err
	}

	fmt.Printf("flight serve loop: %d batches x %d queries, latency objective %v, bundles under %s\n",
		batches, queriesPerBatch, latency, dir)
	tripped := false
	for i := 0; i < batches; i++ {
		if err := bt.Run(queries); err != nil {
			return err
		}
		if s := fr.Evaluate(); s.Tripped && !tripped {
			tripped = true
			fmt.Printf("SLO %s tripped at batch %d: fast burn %.2f, slow burn %.2f (%d/%d bad)\n",
				s.Name, i+1, s.FastBurn, s.SlowBurn, s.Bad, s.Total)
		}
	}
	fr.Close() // wait for async captures before reporting

	st := bt.Stats()
	snap := jr.Snapshot()
	fmt.Printf("served:       %d queries in %d batches\n", st.Queries, st.Batches)
	fmt.Printf("journal:      %d events published, %d retained, %d dropped\n",
		snap.Published, len(snap.Events), snap.Dropped)
	bundles := fr.Bundles()
	if len(bundles) == 0 {
		fmt.Println("bundles:      none (SLO never tripped)")
		return nil
	}
	for _, b := range bundles {
		status := "ok"
		if err := sepdc.CheckFlightBundle(b); err != nil {
			status = err.Error()
		}
		fmt.Printf("bundle:       %s (%s)\n", b, status)
	}
	return nil
}

// verifyBundle is -verify-bundle: validate a captured flight bundle
// (metadata, journal JSONL, trace/profile evidence) and report.
func verifyBundle(dir string) error {
	if err := sepdc.CheckFlightBundle(dir); err != nil {
		return err
	}
	fmt.Printf("bundle %s: complete\n", dir)
	return nil
}
