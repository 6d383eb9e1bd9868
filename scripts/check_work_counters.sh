#!/usr/bin/env bash
# Gates on perfbench's fixed work counters. With `--trace 1`, perfbench runs
# one fixed pass of each statement kind and reports the work it did: rows
# examined per row returned, the share of rows the stable prefilter
# rejected, state-store probes per row and morsels claimed per scan, plus
# cold_scan's heap-page misses per scan: each scan reads every page of its
# table from disk and verifies its checksum. These repeat exactly for a
# seed, whatever the run length or the machine, so a mismatch means a change
# made statements do different work. Latency is not gated: shared machines
# are too noisy for it.
#
#   scripts/check_work_counters.sh
#
# Exits 1 when a run fails its own checks or a counter differs from its
# pinned value in the first 6 significant digits. A change that moves a
# counter on purpose updates the value pinned below.
set -euo pipefail
cd "$(dirname "$0")/.."

# check <workload> <seconds> <metric>=<pinned value>...
# cold_scan runs 20 s so that its latency percentiles have enough samples
# for the run's own end-to-end checks to pass.
check() {
  local workload="$1" seconds="$2"
  shift 2
  local out
  out="$(mktemp)"
  if ! bash perfbench/run.sh --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace 1 >"$out"; then
    cat "$out" >&2
    rm -f "$out"
    echo "check_work_counters: $workload run failed" >&2
    return 1
  fi
  local status=0
  tail -n 1 "$out" | python3 -c '
import json, sys
workload, pins = sys.argv[1], sys.argv[2:]
metrics = json.load(sys.stdin)["metrics"]
bad = 0
for pin in pins:
    name, want = pin.split("=")
    got = "%.6g" % metrics[name]["value"]
    ok = got == want
    bad += not ok
    print("%-10s %-40s %12s %12s  %s" % (workload, name, want, got,
                                        "ok" if ok else "MISMATCH"))
sys.exit(1 if bad else 0)
' "$workload" "$@" || status=1
  rm -f "$out"
  return "$status"
}

printf '%-10s %-40s %12s %12s\n' workload counter pinned measured
failed=0
check hot_query 2 \
  query.rows_examined_per_row_returned=39.4628 \
  query.prefilter_ratio=0.474853 \
  query.store_probes_per_row=0.275243 \
  util.morsels_per_scan=40 || failed=1
check cold_scan 20 \
  query.rows_examined_per_row_returned=193.548 \
  query.prefilter_ratio=0.743354 \
  query.store_probes_per_row=0.00514583 \
  util.morsels_per_scan=504 \
  storage.heap_misses_per_scan=8000 || failed=1
if [ "$failed" -ne 0 ]; then
  echo "check_work_counters: FAILED" >&2
  exit 1
fi
echo "check_work_counters: OK"
