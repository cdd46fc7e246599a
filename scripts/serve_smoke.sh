#!/usr/bin/env bash
# Serving smoke gate: boot cmd/knnserve, replay deterministic knnload
# traffic at a fixed seed with golden checking on, lint the live
# /metrics exposition, drive a hot snapshot swap under load (the "swap"
# shape), and assert zero errors and zero golden failures. Exits
# nonzero on any wrong answer, serve error, or malformed exposition.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18427}"
ADDR2="${ADDR2:-127.0.0.1:18428}"
N=4000 D=2 K=3 SEED=7
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"; kill "$SERVE_PID" "$SERVE2_PID" 2>/dev/null || true' EXIT
SERVE_PID="" SERVE2_PID=""

go build -o "$OUT/knnserve" ./cmd/knnserve
go build -o "$OUT/knnload" ./cmd/knnload
go build -o "$OUT/promlint" ./cmd/promlint
go build -o "$OUT/knn" ./cmd/knn

"$OUT/knnserve" -addr "$ADDR" -n "$N" -d "$D" -k "$K" -seed "$SEED" \
  >"$OUT/serve.log" 2>&1 &
SERVE_PID=$!

# Wait for the server to build its first snapshot and come up.
up=""
for _ in $(seq 1 60); do
  if curl -fsS "http://$ADDR/healthz" -o "$OUT/healthz.json" 2>/dev/null; then
    up=yes
    break
  fi
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "serve-smoke: knnserve exited before serving" >&2
    cat "$OUT/serve.log" >&2
    exit 1
  fi
  sleep 1
done
if [ -z "$up" ]; then
  echo "serve-smoke: $ADDR/healthz never came up" >&2
  cat "$OUT/serve.log" >&2
  exit 1
fi
grep -q '"status":"ok"' "$OUT/healthz.json" || {
  echo "serve-smoke: unhealthy: $(cat "$OUT/healthz.json")" >&2
  exit 1
}

# Golden-checked load at a fixed seed across every traffic shape,
# including hot snapshot swaps mid-load. knnload exits nonzero itself on
# any error or golden failure.
"$OUT/knnload" -addr "$ADDR" -n "$N" -d "$D" -k "$K" -seed "$SEED" \
  -shapes uniform,hot,mixed,swap -conns 6 -requests 80 -batch 16 \
  -swap-every 100 -golden >"$OUT/load.json"

# The swap shape must have completed at least one hot swap, with zero
# golden failures recorded for any shape (knnload already gates on this;
# re-assert from the artifact so a silent report change cannot pass).
python3 - "$OUT/load.json" <<'PY'
import json, sys
sec = json.load(open(sys.argv[1]))
shapes = {s["shape"]: s for s in sec["shapes"]}
assert "swap" in shapes, "swap shape missing"
assert shapes["swap"].get("swaps", 0) >= 1, "no hot swap completed during load"
for name, s in shapes.items():
    assert s["errors"] == 0, f"{name}: {s['errors']} serve errors"
    assert s["golden_failures"] == 0, f"{name}: wrong answers"
    assert s["requests"] > 0, f"{name}: no requests served"
    assert s["p99_us"] > 0, f"{name}: no latency recorded"
print("serve-smoke: shapes ok:", ", ".join(
    f"{n} p99={s['p99_us']:.0f}us swaps={s.get('swaps', 0)}" for n, s in sorted(shapes.items())))
PY

# One more explicit hot swap, then lint the live exposition: the
# per-replica serving observers live for the process, so after the
# swaps each must still be present exactly once under its name.
curl -fsS -X POST "http://$ADDR/swap" >"$OUT/swap.json"
grep -q '"epoch"' "$OUT/swap.json" || {
  echo "serve-smoke: swap response malformed: $(cat "$OUT/swap.json")" >&2
  exit 1
}

# Post-swap traffic: a swap re-attaches the same per-replica observers
# to the new generation's Batchers, so the series keep counting.
# Round-robin admission alternates replicas; a few requests cover all.
for _ in 1 2 3 4; do
  curl -fsS -X POST "http://$ADDR/query" \
    -d '{"queries":[[0.5,0.5],[0.25,0.75]]}' >/dev/null
done

curl -fsS "http://$ADDR/metrics" -o "$OUT/metrics.txt"
"$OUT/promlint" \
  -gauge 'sepdc_serve_serve0_queries_total:1:1e18' \
  "$OUT/metrics.txt"

# Exactly one exposition slot per replica: a swap must never duplicate
# or leak the per-replica observer series.
count=$(grep -c '^sepdc_serve_serve0_queries_total' "$OUT/metrics.txt" || true)
if [ "$count" -ne 1 ]; then
  echo "serve-smoke: serve0 queries_total appears $count times (leaked observer slot?)" >&2
  exit 1
fi

# ---- Trace leg: a known traceparent must be traceable end to end. ----
# The W3C spec's own example trace id; the sampled flag forces every
# query of the request onto the timed phase-split path.
TP_ID='4bf92f3577b34da6a3ce929d0e0e4736'
TP="00-${TP_ID}-00f067aa0ba902b7-01"

# Round-robin admission alternates replicas; four traced requests land
# at least one exemplar on each replica's recorder after the swaps.
for _ in 1 2 3 4; do
  curl -fsS -X POST "http://$ADDR/query" -H "traceparent: $TP" \
    -D "$OUT/trace_hdrs.txt" \
    -d '{"queries":[[0.5,0.5],[0.25,0.75],[0.75,0.25]]}' >/dev/null
done
grep -qi "^traceparent: $TP" "$OUT/trace_hdrs.txt" || {
  echo "serve-smoke: adopted traceparent not echoed on the response" >&2
  cat "$OUT/trace_hdrs.txt" >&2
  exit 1
}

# The journal's sampled per-query events carry the trace id.
curl -fsS "http://$ADDR/journal" -o "$OUT/journal.json"
grep -q "$TP_ID" "$OUT/journal.json" || {
  echo "serve-smoke: trace id $TP_ID absent from /journal" >&2
  exit 1
}

# The request record: queue/coalesce/pass spans with sane timings.
curl -fsS "http://$ADDR/traces?id=$TP_ID" -o "$OUT/trace.jsonl"
python3 - "$OUT/trace.jsonl" "$TP_ID" <<'PY'
import json, sys
recs = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert recs, "no request records for the traced id"
for r in recs:
    assert r["trace_id"] == sys.argv[2], r
    assert r["sampled"] is True, r
    assert r["queries"] == 3, r
    assert r["queue_ns"] >= 0 and r["pass_ns"] > 0, r
    assert r["total_ns"] >= r["pass_ns"], r
print(f"serve-smoke: trace ok: {len(recs)} request record(s) for {sys.argv[2]}")
PY

# The same trace renders as Chrome trace_event JSON with the full span
# decomposition: request phases plus per-query descend/scan spans.
curl -fsS "http://$ADDR/traces?id=$TP_ID&format=chrome" -o "$OUT/chrome.json"
python3 - "$OUT/chrome.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
names = {e["name"] for e in events}
for want in ("queue", "coalesce", "pass", "descend", "scan"):
    assert want in names, f"missing {want} span: {sorted(names)}"
descends = sum(1 for e in events if e["name"] == "descend")
assert descends >= 3, f"want >=3 descend spans, got {descends}"
print(f"serve-smoke: chrome trace ok: {len(events)} events, {descends} descend spans")
PY

# The latency histograms carry the trace as an OpenMetrics exemplar on
# both replicas, and the exemplar syntax survives the linter.
curl -fsS "http://$ADDR/metrics" -o "$OUT/metrics2.txt"
grep -q "trace_id=\"$TP_ID\"" "$OUT/metrics2.txt" || {
  echo "serve-smoke: trace id $TP_ID absent from /metrics exemplars" >&2
  exit 1
}
"$OUT/promlint" \
  -exemplar 'sepdc_serve_serve0_latency_ns' \
  -exemplar 'sepdc_serve_serve1_latency_ns' \
  "$OUT/metrics2.txt"

# ---- Flight leg: a tripped bundle must freeze the traced request. ----
# A chaos-stalled second server blows a tight pass-latency objective;
# the burn-rate trip's bundle must retain the traced request's record.
KNN_CHAOS="stall=3ms" "$OUT/knnserve" -addr "$ADDR2" -n 1500 -d "$D" \
  -k "$K" -seed "$SEED" -flight "$OUT/flight" -flight-latency 2ms \
  >"$OUT/serve2.log" 2>&1 &
SERVE2_PID=$!
up=""
for _ in $(seq 1 60); do
  if curl -fsS "http://$ADDR2/healthz" -o /dev/null 2>/dev/null; then
    up=yes
    break
  fi
  if ! kill -0 "$SERVE2_PID" 2>/dev/null; then
    echo "serve-smoke: flight knnserve exited before serving" >&2
    cat "$OUT/serve2.log" >&2
    exit 1
  fi
  sleep 1
done
[ -n "$up" ] || { echo "serve-smoke: $ADDR2/healthz never came up" >&2; exit 1; }

# Traced traffic until the SLO trips and a bundle lands (every pass is
# bad under the stall, so a few seconds of traffic suffices).
tripped=""
for _ in $(seq 1 400); do
  curl -fsS -X POST "http://$ADDR2/query" -H "traceparent: $TP" \
    -d '{"queries":[[0.5,0.5],[0.25,0.75]]}' >/dev/null || true
  if compgen -G "$OUT/flight/bundle-*" >/dev/null; then
    tripped=yes
    break
  fi
done
[ -n "$tripped" ] || {
  echo "serve-smoke: flight SLO never tripped under chaos stall" >&2
  cat "$OUT/serve2.log" >&2
  exit 1
}
kill "$SERVE2_PID" 2>/dev/null || true
wait "$SERVE2_PID" 2>/dev/null || true

bundle=$(ls -d "$OUT"/flight/bundle-* | head -1)
"$OUT/knn" -verify-bundle "$bundle"
grep -q "$TP_ID" "$bundle/traces.jsonl" || {
  echo "serve-smoke: traced request absent from $bundle/traces.jsonl" >&2
  exit 1
}
echo "serve-smoke: flight bundle ok: $(basename "$bundle") retains trace $TP_ID"

# Final health check: the server survived the whole run.
curl -fsS "http://$ADDR/healthz" -o "$OUT/healthz2.json"
python3 - "$OUT/healthz2.json" <<'PY'
import json, sys
h = json.load(open(sys.argv[1]))
assert h["status"] == "ok"
assert h["swaps"] >= 2, f"expected >=2 swaps, got {h['swaps']}"
assert h["passes"] > 0
print(f"serve-smoke: healthz ok: {h['passes']} passes, {h['coalesced']} coalesced, "
      f"{h['swaps']} swaps, {h['rejected']} rejected")
PY

kill "$SERVE_PID" 2>/dev/null || true
echo "serve-smoke: ok"
