# Development entry points. `make verify` is the tier-1 gate (see ROADMAP.md).

GO ?= go
FUZZTIME ?= 60s

.PHONY: build vet test test-race race-build race-batch race-serve metrics-audit flight-smoke serve-smoke bench bench-json bench-query bench-kernel bench-serve ab-perfbench kernels-matrix perfbench-check verify fuzz chaos clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full-repo race gate. -short skips the large soak builds whose race
# overhead would dominate CI; the soak itself stays in plain `make test`.
test-race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem .

# Regenerate BENCH_knn.json, every section at the checked-out commit:
# each perfbench workload for seeds 1-5 untraced plus one traced run, at
# the 20 s BENCHMARK.json runs them for (captures kept in .bench_runs/),
# then knnload's serve section, then knnbench, which ingests the
# captures and measures kernels and journal. knnbench is built first so
# its commit stamp predates the record's rewrite. Takes about 15 minutes.
bench-json:
	rm -rf .bench_runs && mkdir -p .bench_runs
	$(GO) build -o .bench_runs/knnbench ./cmd/knnbench
	for w in build query serve serve-swap; do \
		for s in 1 2 3 4 5; do \
			bash perfbench/run.sh --workload $$w --seed $$s --seconds 20 --trace 0 >.bench_runs/$$w-$$s.txt || exit 1; \
		done; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 20 --trace 1 >.bench_runs/$$w-traced.txt || exit 1; \
	done
	./scripts/bench_serve.sh
	.bench_runs/knnbench -out BENCH_knn.json .bench_runs/*.txt

# Query-serving benchmarks: the covering-ball engines, the batched
# adjacency accessor and the query-structure set-up they serve from,
# the set-up on one CPU and on two, since it builds on every worker.
# CI runs these at -benchtime=1x and diffs against
# testdata/bench-query-baseline.txt with benchstat when available
# (informational smoke, not a gate). The last line runs the engine's
# telemetry legs (nil, journal, observer, traced) once each, so they
# keep compiling and running; time them with a longer -benchtime.
bench-query:
	$(GO) test -run '^$$' -bench 'CoveringBalls|NeighborsBatch' -benchmem .
	$(GO) test -run '^$$' -bench 'NewQueryStructure' -cpu 1,2 -benchmem .
	$(GO) test -run '^$$' -bench 'JournaledBatch' -benchtime 1x ./internal/septree/

# Distance-kernel benchmarks: the d=2..8 dispatch table (unrolled
# single-pair and four-point forms, with the AVX2 assembly four-lane
# form at d=5..8 and eight-lane strided form at d=4..8 on CPUs that
# have them) against the generic fallback. CI runs these at
# -benchtime=1x and diffs against testdata/bench-kernel-baseline.txt —
# deliberately a record taken before any assembly existed, so on
# an AVX2 host the benchstat delta reads as the dispatch's gain over the
# unrolled kernels — with benchstat when available (informational
# smoke, not a gate). NullVector times the fixed-size Radon null-vector
# solves (D=3, D=4) against the generic elimination.
bench-kernel:
	$(GO) test -run '^$$' -bench 'Dist2Kernel|Dist2Generic|Dist2Batch4|Dist2Strided8|DotKernel|NullVector' -benchmem ./internal/vec/

# Kernel-dispatch matrix: the packages that exercise distance
# arithmetic, end to end once under the default dispatch (the AVX2
# assembly bodies on CPUs that have them) and once built purego, where
# every batch form is Go and the strided form is absent, so both
# dispatches stay exact against the brute-force and golden references.
# core's punts and the audit query separator trees capture their
# kernels at build time, so both packages run in each leg. Then a
# non-amd64 cross-compile of the stub path (what CI's kernels-matrix
# job runs).
kernels-matrix:
	$(GO) test -count=1 . ./internal/vec/ ./internal/septree/ ./internal/core/ ./internal/obs/audit/
	$(GO) build -tags purego ./...
	$(GO) test -tags purego -count=1 . ./internal/vec/ ./internal/septree/ ./internal/core/ ./internal/obs/audit/ ./internal/cpufeat/
	GOOS=linux GOARCH=arm64 $(GO) build ./...

# perfbench is its own module (perfbench/go.mod) and imports internal
# packages (septree, separator, nbrsys, pts, ...), so `go build ./...` at
# the root never compiles it. Vet it and run its self-test so that a
# signature change it depends on fails here rather than at benchmark time
# (what CI's perfbench-check job runs).
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 -run TestSelf ./...

# Focused race gate over the build: sibling strands of one build write
# disjoint ranges of one shared working copy of the points and of its
# lists. Runs without -short (unlike test-race), so the golden, worker-
# invariance, chaos, cancellation, parallel, pin and soak builds all fork
# across workers under the detector.
race-build:
	$(GO) test -race -count=1 -run 'Golden|Workers|Deterministic|Chaos|Cancel|ContextBuild' .
	$(GO) test -race -count=1 -run 'Parallel|Chaos|PuntingLemma|Pinned|Soak' ./internal/core/

# Focused race gate over the batched query-serving paths and the
# serving telemetry they feed (concurrent Snapshot during recording,
# journal publish/drain, same-name journal registration, SLO evaluation,
# flight capture) and the worker pool's slot handoff, which every pass
# fans out through. Also covered by test-race's full-module sweep; kept
# as its own target so a failure names the subsystem.
race-batch:
	$(GO) test -race -run 'Batch|Batcher|CoveringBalls|QueryStructure|Serve|Journal|NewQueryJournalConcurrentSameName|Flight|Burn|Trip|Trace' . ./internal/septree/ ./internal/obs/ ./internal/obs/slo/ ./internal/obs/flight/ ./internal/obs/runtimeobs/
	$(GO) test -race -count=10 ./internal/pool/

# Focused race gate over the serving front end: concurrent HTTP traffic
# against the coalescer, repeated epoch/RCU snapshot swaps, telemetry
# snapshots mid-flight, and the snapshot holder's release-ordering
# tests. Also covered by test-race; its own target so a failure names
# the subsystem.
race-serve:
	$(GO) test -race ./cmd/knnserve/ ./internal/snapshot/ ./internal/serveproto/

# Scrape gate: serve a live -audit run's /metrics, then lint the
# exposition and assert the paper-invariant gauges (what CI's
# metrics-audit job runs).
metrics-audit:
	./scripts/metrics_audit.sh

# Flight-recorder smoke: a chaos-stalled -flight run must trip the SLO
# and capture a complete, -verify-bundle-clean flight bundle (what CI's
# flight-smoke job runs).
flight-smoke:
	./scripts/flight_smoke.sh

# Serving smoke: boot cmd/knnserve, replay golden-checked deterministic
# knnload traffic (including a hot snapshot swap under load), and lint
# the live /metrics exposition (what CI's serve-smoke job runs).
serve-smoke:
	./scripts/serve_smoke.sh

# Record serving latency percentiles under saturation into the "serve"
# section of BENCH_knn.json. Boots a local knnserve and drives it with
# knnload at a fixed seed; other report sections are preserved.
bench-serve:
	./scripts/bench_serve.sh

# Interleaved perfbench A/B of the working tree against PARENT, the
# protocol behind a performance claim: PAIRS pairs of WORKLOAD runs,
# RUN_SECONDS each, alternating which side runs first, then each side's
# median and quartiles and the pairs in which the tree read lower.
PARENT ?= HEAD
WORKLOAD ?= build
PAIRS ?= 10
RUN_SECONDS ?= 20
ab-perfbench:
	./scripts/ab_perfbench.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(RUN_SECONDS)

# Fuzz smoke: each target gets FUZZTIME (default 60s) of coverage-guided
# input generation on top of the committed seed corpora in testdata/fuzz.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzBuildKNNGraph$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzSerializeRoundTrip$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzInsertSequence$$' -fuzztime $(FUZZTIME) ./internal/topk/
	$(GO) test -run '^$$' -fuzz '^FuzzServeRequest$$' -fuzztime $(FUZZTIME) ./internal/serveproto/
	$(GO) test -run '^$$' -fuzz '^FuzzServeJSONQuery$$' -fuzztime $(FUZZTIME) ./cmd/knnserve/
	$(GO) test -run '^$$' -fuzz '^FuzzKernelParity$$' -fuzztime $(FUZZTIME) ./internal/vec/
	$(GO) test -run '^$$' -fuzz '^FuzzNullVectorFixed$$' -fuzztime $(FUZZTIME) ./internal/vec/

# Chaos matrix: the identity/degeneracy tests under every fault-injection
# profile (see DESIGN.md §10). The graph is exact, so no profile may change
# any test's outcome. ParallelQueryStructure compares a forked query-structure
# build with a sequential one; the stall profile reorders its forks.
chaos:
	KNN_CHAOS="sep-fail=all" $(GO) test -run 'Chaos|Degenerate|Golden|AllAlgorithmsAgree|FlatBackendsMatchBrute|ParallelQueryStructure' .
	KNN_CHAOS="punt=all" $(GO) test -run 'Chaos|Degenerate|Golden|AllAlgorithmsAgree|FlatBackendsMatchBrute|ParallelQueryStructure' .
	KNN_CHAOS="march-abort=all" $(GO) test -run 'Chaos|Degenerate|Golden|AllAlgorithmsAgree|FlatBackendsMatchBrute|ParallelQueryStructure' .
	KNN_CHAOS="march-level=1" $(GO) test -run 'Chaos|Degenerate|Golden|AllAlgorithmsAgree|FlatBackendsMatchBrute|ParallelQueryStructure' .
	KNN_CHAOS="sep-fail=all;punt=all;march-level=1;stall=200us" $(GO) test -run 'Chaos|Degenerate|Golden|AllAlgorithmsAgree|FlatBackendsMatchBrute|ParallelQueryStructure' .

verify: build test vet test-race

clean:
	$(GO) clean ./...
