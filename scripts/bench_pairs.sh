#!/usr/bin/env bash
# Measures a change against an older commit by the rule for claiming a gain:
# alternating pairs of runs of one workload, one run of the older commit and
# one of this checkout per pair, flipping which side runs first each pair.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [first-seed]
#
# <parent-rev> is extracted (git archive) into .bench_build/parent-<sha>
# and built there by its own perfbench/run.sh; this checkout builds into its
# own .bench_build. Pair i runs seed first-seed + i (default first seed 1)
# on both sides, for BENCHMARK.json's run length. The raw runs are written
# to .bench_build/pairs-<workload>-<sha>.json.
#
# Prints, per end-to-end metric: each side's median and quartiles, the pairs
# the change won (ties count for neither side), and a verdict:
#   gain       the change won at least 9/10 of the pairs AND the medians
#              differ by more than the parent's interquartile range;
#   REGRESSED  the change's median is worse than the parent's by more than
#              the metric's BENCHMARK.json bound;
#   unresolved the parent's own spread exceeds the bound;
#   ok         otherwise.
# Exits 1 when any metric regressed or the change failed more operations.
#
# Both sides rebuild from their sources on every run, so do not edit this
# checkout while pairs run: copy the tree elsewhere first if you need to.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  sed -n '2,/^set -euo/p' "$0" | sed '$d' >&2
  exit 2
fi
rev="$1" workload="$2" pairs="$3" first_seed="${4:-1}"

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
sha="$(git rev-parse --short=12 "$rev^{commit}")"
parent=".bench_build/parent-$sha"
if [ ! -f "$parent/BENCHMARK.json" ]; then
  rm -rf "$parent"
  mkdir -p "$parent"
  git archive "$sha" | tar -x -C "$parent"
fi

out=".bench_build/pairs-$workload-$sha.json"
python3 perfbench/compare.py run --runs "$pairs" --first-seed "$first_seed" \
  --workloads "$workload" --checkout "$parent" --checkout . --out "$out"

python3 - "$out" "$parent" "$root" "$workload" <<'EOF'
import json
import os
import statistics
import sys

out, parent, change, workload = sys.argv[1:]
result = json.load(open(out))
spec = json.load(open(os.path.join(change, "BENCHMARK.json")))
runs = {os.path.abspath(k): v[workload] for k, v in result["runs"].items()}
base = runs[os.path.abspath(parent)]
new = runs[os.path.abspath(change)]
pairs = len(base)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


failed_base = sum(r["failed"] for r in base)
failed_new = sum(r["failed"] for r in new)
print(f"{workload}: {pairs} pairs, seeds "
      f"{base[0]['seed']}..{base[-1]['seed']}; failed operations "
      f"parent {failed_base}, change {failed_new}")
print(f"{'metric':22s} {'parent q1/median/q3':>34s} "
      f"{'change q1/median/q3':>34s}  wins  verdict")
bad = failed_new > failed_base
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    a = [r["metrics"][name] for r in base]
    b = [r["metrics"][name] for r in new]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    worse = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
    if worse > m["bound"]:
        verdict = "REGRESSED"
        bad = True
    elif 10 * wins >= 9 * pairs and abs(mb - ma) > qa3 - qa1:
        verdict = "gain"
    elif ma and (qa3 - qa1) / ma > m["bound"]:
        verdict = "unresolved"
    else:
        verdict = "ok"
    print(f"{name:22s} {qa1:10.5g} {ma:11.5g} {qa3:11.5g} "
          f"{qb1:10.5g} {mb:11.5g} {qb3:11.5g}  {wins:2d}/{pairs:<2d} "
          f"{verdict} ({100 * (mb - ma) / ma if ma else 0:+.1f}%)")
sys.exit(1 if bad else 0)
EOF
