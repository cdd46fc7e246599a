# Development entry points. `make verify` is the tier-1 gate (see ROADMAP.md).

GO ?= go
FUZZTIME ?= 60s

.PHONY: build vet test test-race race-batch race-serve metrics-audit flight-smoke serve-smoke bench bench-json bench-query bench-kernel bench-serve kernels-matrix verify fuzz chaos clean

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

# Regenerate the machine-readable BuildKNNGraph benchmark record
# (includes the query-serving section: pointer vs frozen vs batch).
bench-json:
	$(GO) run ./cmd/knnbench -out BENCH_knn.json

# Query-serving benchmarks: the three covering-ball engines and the
# batched adjacency accessor. CI runs these at -benchtime=1x and diffs
# against testdata/bench-query-baseline.txt with benchstat when
# available (informational smoke, not a gate).
bench-query:
	$(GO) test -run '^$$' -bench 'CoveringBalls|NeighborsBatch' -benchmem .

# Distance-kernel benchmarks: the d=2..8 dispatch table (unrolled
# single-pair and four-point forms, plus the AVX2 assembly four-lane
# and eight-lane strided forms on CPUs that have them) against the generic
# fallback. CI runs these at -benchtime=1x and diffs against
# testdata/bench-kernel-baseline.txt — deliberately the PR-6 record,
# taken before the assembly tier existed, so on an AVX2 host the
# benchstat delta reads as asm's gain over the unrolled kernels —
# with benchstat when available (informational smoke, not a gate).
# NullVector times the fixed-size Radon null-vector solves (D=3, D=4)
# against the generic elimination.
bench-kernel:
	$(GO) test -run '^$$' -bench 'Dist2Kernel|Dist2Generic|Dist2Batch4|Dist2Strided8|DotKernel|NullVector' -benchmem ./internal/vec/

# Kernel-dispatch matrix: the packages that exercise distance
# arithmetic, end to end under each KNN_KERNELS tier (answers must be
# identical — the asm leg degrades to unrolled on CPUs without AVX2),
# plus a purego no-assembly build-and-test leg and a non-amd64
# cross-compile of the stub path (what CI's kernels-matrix job runs).
kernels-matrix:
	KNN_KERNELS=generic $(GO) test -count=1 . ./internal/vec/ ./internal/septree/
	KNN_KERNELS=asm $(GO) test -count=1 . ./internal/vec/ ./internal/septree/
	$(GO) build -tags purego ./...
	$(GO) test -tags purego -count=1 ./internal/vec/ ./internal/septree/ ./internal/cpufeat/
	GOOS=linux GOARCH=arm64 $(GO) build ./...

# Focused race gate over the batched query-serving paths and the
# serving telemetry they feed (concurrent Snapshot during recording,
# journal publish/drain, SLO evaluation, flight capture). Also covered
# by test-race's full-module sweep; kept as its own target so a failure
# names the subsystem.
race-batch:
	$(GO) test -race -run 'Batch|Batcher|CoveringBalls|QueryStructure|Serve|Journal|Flight|Burn|Trip|Trace' . ./internal/septree/ ./internal/obs/ ./internal/obs/slo/ ./internal/obs/flight/ ./internal/obs/runtimeobs/

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
# any test's outcome.
chaos:
	KNN_CHAOS="sep-fail=all" $(GO) test -run 'Chaos|Degenerate|Golden|AllAlgorithmsAgree|FlatBackendsMatchBrute' .
	KNN_CHAOS="punt=all" $(GO) test -run 'Chaos|Degenerate|Golden|AllAlgorithmsAgree|FlatBackendsMatchBrute' .
	KNN_CHAOS="march-abort=all" $(GO) test -run 'Chaos|Degenerate|Golden|AllAlgorithmsAgree|FlatBackendsMatchBrute' .
	KNN_CHAOS="march-level=1" $(GO) test -run 'Chaos|Degenerate|Golden|AllAlgorithmsAgree|FlatBackendsMatchBrute' .
	KNN_CHAOS="sep-fail=all;punt=all;march-level=1;stall=200us" $(GO) test -run 'Chaos|Degenerate|Golden|AllAlgorithmsAgree|FlatBackendsMatchBrute' .

verify: build test vet test-race

clean:
	$(GO) clean ./...
