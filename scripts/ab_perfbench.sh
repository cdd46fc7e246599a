#!/usr/bin/env bash
# Interleaved A/B of one perfbench workload: a parent revision against the
# working tree. Run from the repository root:
#
#   scripts/ab_perfbench.sh PARENT_REV WORKLOAD PAIRS [SECONDS]
#
# The parent's files are unpacked with `git archive` into a temporary
# directory, removed on exit. Pair i runs both sides with `bash
# perfbench/run.sh --workload WORKLOAD --seed i --seconds SECONDS --trace 0`
# (SECONDS defaults to 20, the length BENCHMARK.json runs); odd pairs run
# the parent first, even pairs the working tree. Each pair's end-to-end
# values print as the pair finishes, then per metric each side's median
# and quartiles and the pairs in which the working tree read lower.
# Captures stay in .bench_runs/ab/.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 PARENT_REV WORKLOAD PAIRS [SECONDS]" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=${4:-20}
root=$(pwd)
caps="$root/.bench_runs/ab"
parent=$(mktemp -d)
trap 'rm -rf "$parent"' EXIT
git archive "$rev" | tar -x -C "$parent"
mkdir -p "$caps"

run() { # tag seed
  local dir=$root
  [ "$1" = parent ] && dir=$parent
  (cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$2" \
    --seconds "$seconds" --trace 0) >"$caps/$workload-$1-$2.txt"
}

for seed in $(seq 1 "$pairs"); do
  if [ $((seed % 2)) = 1 ]; then
    run parent "$seed"
    run change "$seed"
  else
    run change "$seed"
    run parent "$seed"
  fi
  python3 - "$caps/$workload-parent-$seed.txt" "$caps/$workload-change-$seed.txt" "$seed" <<'EOF'
import json, sys
p, c = (json.loads(open(f).read().splitlines()[-1]) for f in sys.argv[1:3])
vals = "  ".join(f"{m} {p['metrics'][m]['value']:.4g} -> {c['metrics'][m]['value']:.4g}"
                 for m in sorted(p["metrics"]))
print(f"pair {sys.argv[3]}: {vals}  (failed {p['failed']} -> {c['failed']}, "
      f"correct {p['correct']} -> {c['correct']})")
EOF
done

python3 - "$caps" "$workload" "$pairs" <<'EOF'
import json, statistics, sys
caps, workload, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
def load(tag):
    return [json.loads(open(f"{caps}/{workload}-{tag}-{s}.txt").read().splitlines()[-1])
            for s in range(1, pairs + 1)]
def summary(v):
    if len(v) < 2:
        return f"{v[0]:.4g}"
    q1, _, q3 = statistics.quantiles(v, n=4)
    return f"{statistics.median(v):.4g} ({q1:.4g}-{q3:.4g})"
parent, change = load("parent"), load("change")
for m in sorted(parent[0]["metrics"]):
    p = [r["metrics"][m]["value"] for r in parent]
    c = [r["metrics"][m]["value"] for r in change]
    mp, mc = statistics.median(p), statistics.median(c)
    lower = sum(y < x for x, y in zip(p, c))
    print(f"{workload} {m}: parent {summary(p)} -> change {summary(c)}: "
          f"{100 * (mc - mp) / mp:+.1f}%, lower in {lower} of {pairs} pairs")
EOF
