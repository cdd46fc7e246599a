#!/usr/bin/env bash
# Scrape gate for the serving telemetry: run a plain cmd/knn -audit at
# d=3, k=8, then run cmd/knn -audit at d=2, k=4 with the debug server
# up, scrape /metrics while the process holds, lint the Prometheus
# exposition, and assert the paper-invariant gauges are in bounds. Exits
# nonzero if either audit fails, the exposition is malformed, or any
# gauge assertion is violated.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18417}"
OUT="$(mktemp -d)"
KNN_PID=""
trap 'rm -rf "$OUT"; [ -z "$KNN_PID" ] || kill "$KNN_PID" 2>/dev/null || true' EXIT

go build -o "$OUT/knn" ./cmd/knn
go build -o "$OUT/promlint" ./cmd/promlint

# The space and query-candidate invariants at d=3, k=8, where the leaf
# size has to grow with k (Lemma 3.1, Theorem 3.1). A plain run: its
# exit status is the gate.
if ! "$OUT/knn" -n 4000 -d 3 -k 8 -audit >"$OUT/audit-d3k8.log" 2>&1; then
  echo "metrics-audit: knn -audit -d 3 -k 8 failed" >&2
  cat "$OUT/audit-d3k8.log" >&2
  exit 1
fi
cat "$OUT/audit-d3k8.log"

"$OUT/knn" -n 4000 -d 2 -k 4 -audit -debug-addr "$ADDR" -debug-hold 30s \
  >"$OUT/audit.log" 2>&1 &
KNN_PID=$!

# Wait for the audit tables to finish and the debug server to come up.
scraped=""
for _ in $(seq 1 60); do
  if grep -q "holding for" "$OUT/audit.log" 2>/dev/null &&
     curl -fsS "http://$ADDR/metrics" -o "$OUT/metrics.txt" 2>/dev/null; then
    scraped=yes
    break
  fi
  if ! kill -0 "$KNN_PID" 2>/dev/null; then
    echo "metrics-audit: knn exited before scrape" >&2
    cat "$OUT/audit.log" >&2
    exit 1
  fi
  sleep 1
done
if [ -z "$scraped" ]; then
  echo "metrics-audit: never scraped $ADDR/metrics" >&2
  cat "$OUT/audit.log" >&2
  exit 1
fi

cat "$OUT/audit.log"

# The exposition must parse, and every audit gauge must be in bounds:
# overall pass == 1 and every observed/bound ratio in (0, 1].
"$OUT/promlint" \
  -gauge 'sepdc_audit_pass:1:1' \
  -gauge 'sepdc_audit_iota_ratio:0:1' \
  -gauge 'sepdc_audit_split_balance_ratio:0:1' \
  -gauge 'sepdc_audit_depth_ratio:0:1' \
  -gauge 'sepdc_audit_punt_rate_ratio:0:1' \
  -gauge 'sepdc_audit_space_ratio:0:1' \
  -gauge 'sepdc_audit_query_nodes_ratio:0:1' \
  -gauge 'sepdc_audit_query_cands_ratio:0:1' \
  "$OUT/metrics.txt"

# The serving telemetry of the audit's own probe traffic must be there.
"$OUT/promlint" -q -gauge 'sepdc_serve_audit_queries_total:1:1e18' "$OUT/metrics.txt"

# The wide-event journal's ring-saturation gauge must be exposed and be
# a fraction. (It reads 1.0 only when the ring retains a vanishing
# share of served traffic — the BENCH_knn footgun; the knob is
# QueryJournalConfig.PerStrand / knnserve -journal-ring.)
"$OUT/promlint" -q -gauge 'sepdc_journal_overwrite_rate:0:1' "$OUT/metrics.txt"

# The runtime bridge and SLO engine series must be exposed too: the
# debug server starts a runtime/metrics sampler, and runAudit runs a
# one-shot burn-rate evaluation over its probe-batch latency histogram.
"$OUT/promlint" -q \
  -gauge 'sepdc_runtime_goroutines:1:1e6' \
  -gauge 'sepdc_runtime_heap_live_bytes:1:1e18' \
  -gauge 'sepdc_runtime_gc_cycles:0:1e9' \
  -gauge 'sepdc_slo_burn_fast:0:1e9' \
  -gauge 'sepdc_slo_burn_slow:0:1e9' \
  -gauge 'sepdc_slo_tripped:0:1' \
  "$OUT/metrics.txt"

# Scrape again and hold the exposition to the cross-scrape contract:
# counters (including histogram buckets) must not decrease.
sleep 2
curl -fsS "http://$ADDR/metrics" -o "$OUT/metrics2.txt"
"$OUT/promlint" -q -prev "$OUT/metrics.txt" "$OUT/metrics2.txt"

kill "$KNN_PID" 2>/dev/null || true
echo "metrics-audit: ok"
