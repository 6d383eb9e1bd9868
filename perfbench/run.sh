#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources (a no-op once built) and
# runs one workload:
#
#   bash perfbench/run.sh --workload <ingest|hot_query|cold_scan|expiry_mix> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output, database scratch space and traces live under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout. The last line of
# stdout is the result object; a failed build prints no result and exits 3.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
log="$build/perfbench-build.log"
# Compiler and run temporaries stay inside the build directory too.
TMPDIR="$(cd "$build/tmp" && pwd)"
export TMPDIR

build_benchmark() {
  : >"$log"
  if [ ! -f "$build/perfbench/Makefile" ]; then
    cmake -S perfbench -B "$build/perfbench" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      >>"$log" 2>&1 || return 1
  fi
  cmake --build "$build/perfbench" --target perfbench_instantdb \
    -j "$(nproc)" >>"$log" 2>&1 || return 1
}

exec 9>"$build/perfbench.lock"
flock 9
if ! build_benchmark; then
  echo "benchmark build failed; last lines of $log:" >&2
  tail -n 20 "$log" >&2
  exit 3
fi
flock -u 9
exec 9>&-

exec "$build/perfbench/perfbench_instantdb" --dir "$build/runs" \
  --out "$build/traces" "$@"
