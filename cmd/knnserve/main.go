// Command knnserve is the serving front end for the Section-3 covering-
// ball query structure: an HTTP server owning per-strand replicas of one
// frozen snapshot, coalescing incoming queries into batched engine
// passes, and swapping in freshly rebuilt snapshots without a serving
// stall (POST /swap — epoch/RCU semantics via internal/snapshot).
//
// Quickstart:
//
//	knnserve -addr :8080 -n 20000 -d 2 -k 3 &
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/query \
//	    -d '{"queries":[[0.5,0.5],[0.25,0.75]],"closed":false}'
//	curl -s -X POST localhost:8080/swap
//	curl -s localhost:8080/metrics | grep sepdc_serve
//
// The wire-efficient path POSTs the internal/serveproto binary frame
// with Content-Type application/x-sepdc-query; cmd/knnload speaks it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sepdc"
	"sepdc/internal/obs"
	"sepdc/internal/pointgen"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dist     = flag.String("dist", string(pointgen.UniformCube), "point distribution (uniform-cube, gaussian, clustered, annulus, ...)")
		n        = flag.Int("n", 20000, "number of points")
		d        = flag.Int("d", 2, "dimension")
		k        = flag.Int("k", 3, "neighborhood size")
		seed     = flag.Uint64("seed", 1, "point-set and initial tree seed")
		replicas = flag.Int("replicas", 0, "serving replicas / coalescer strands (0 = 2)")
		workers  = flag.Int("workers", 0, "Batcher strands per replica (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "per-replica pending-request queue bound (0 = 256)")
		ringSize = flag.Int("journal-ring", 0, "wide-event journal ring capacity per strand; watch sepdc_journal_overwrite_rate (0 = 4096)")
		flight   = flag.String("flight", "", "flight-recorder bundle directory (empty = off)")
		flightLa = flag.Duration("flight-latency", 0, "flight SLO per-pass latency objective (0 = 100ms)")
	)
	flag.Parse()

	obs.EnableGlobal()
	srv, err := newServer(serverConfig{
		dist:          pointgen.Dist(*dist),
		n:             *n,
		d:             *d,
		k:             *k,
		seed:          *seed,
		replicas:      *replicas,
		workers:       *workers,
		queue:         *queue,
		ringSize:      *ringSize,
		flightDir:     *flight,
		flightLatency: *flightLa,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "knnserve:", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.handler()}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// Log the resolved distance-kernel tier (and publish it on /statsz)
	// so production can confirm the assembly kernels actually engaged.
	tier, cpu := sepdc.KernelInfo()
	obs.SetInfo("kernel_tier", tier)
	obs.SetInfo("cpu_features", cpu)
	fmt.Printf("knnserve: kernels tier=%s cpu=%s\n", tier, cpu)
	fmt.Printf("knnserve: %d points, d=%d k=%d, %d replicas, serving on %s\n",
		len(srv.points), *d, *k, srv.cfg.replicas, *addr)

	select {
	case err := <-done:
		fmt.Fprintln(os.Stderr, "knnserve:", err)
		srv.Close()
		os.Exit(1)
	case <-sig:
	}

	// Graceful stop: stop accepting, drain in-flight handlers, THEN stop
	// the coalescers — server.Close requires no handler be mid-dispatch.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	srv.Close()
}
