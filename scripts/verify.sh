#!/usr/bin/env bash
# Tier-1 verification: what CI should invoke.
#
#   scripts/verify.sh            # plain build + full ctest suite
#   scripts/verify.sh --tsan     # additionally build with -fsanitize=thread
#                                # and run the concurrency-heavy tests
#   scripts/verify.sh --asan     # AddressSanitizer variant of the same
#
# The sanitizer pass uses a separate build directory so the plain build
# stays incremental.
#
# Not run here: scripts/unreached_symbols.sh, a report (never a gate) of the
# src/ functions only tests link, for finding code no caller reaches.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

# Fault-injection schedules run from a fixed seed so CI failures reproduce
# locally with the same command; override via IDB_FAULT_SEED to explore.
export IDB_FAULT_SEED="${IDB_FAULT_SEED:-20260808}"

# Statements borrow workers from the shared pool (util/worker_pool.h); they
# never spawn threads. Only the pool itself and the one background loop
# (degrade/degradation_engine: degradation, checkpoints, audits) may create
# one.
check_thread_spawning() {
  local hits
  hits="$(grep -rnE 'std::(thread|jthread|async)\b' src |
    grep -vE '^src/(util/worker_pool|degrade/degradation_engine)\.(h|cc):' ||
    true)"
  if [ -n "$hits" ]; then
    echo "verify: thread creation outside the worker pool and background loop:" >&2
    echo "$hits" >&2
    return 1
  fi
}

# One key per segment file: a key is minted where a WAL or state-store
# segment file is created and destroyed where that file is erased, and
# nowhere else.
check_key_lifecycle() {
  local hits
  hits="$(grep -rnE 'keys_->(Mint|Destroy)\(' src |
    grep -vE '^src/(wal/wal_manager|storage/state_store)\.cc:' ||
    true)"
  if [ -n "$hits" ]; then
    echo "verify: key minted or destroyed outside segment creation and erase:" >&2
    echo "$hits" >&2
    return 1
  fi
}

run_plain() {
  check_thread_spawning
  check_key_lifecycle
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

# Sanitized pass: the tests that drive real thread interleavings, plus the
# fault-injection suite — injected I/O errors exercise the rarely-taken
# unwind paths where use-after-free and lock bugs hide — plus storage_test,
# whose heap compacts holed pages in place (memcpy and memset over the data
# region) and walks the free-space max-tree by index arithmetic, and whose
# galloping store search and pointer-walking heap record parser do raw
# iterator and buffer arithmetic; catalog_test for the same parser;
# partition_test, whose row map shifts its sorted arrays on out-of-order
# inserts and middle erases, drops the consumed head and gallops through
# them on id-list reads; wal_test, whose
# reopen parses torn segment tails and the manifest from disk and whose
# group-commit cases race eight committers through the sync watermark;
# wal_recovery_test, which recovers crash images of a multi-partition
# workload in every privacy mode; database_test,
# whose FORMAT gate parses stamps and crash images from disk, and
# query_test and cursor_test: results render after the statement from
# retained hierarchy pointers, and σ/f_k index hierarchy arrays by stored
# leaf ordinals. stable_predicate_test runs the stable σ on string views
# parsed out of encoded bytes, and index_test the postings' row-id arrays
# (shifting inserts and erases, compaction, and the wiping allocator's
# release on growth and shrink). txn_test commits a delete while an
# earlier delete of its row is still applying. util_test runs the CRC32C kernel's unaligned
# word loads and byte tail over random offsets and lengths. The rest of the
# suite is single-threaded and adds only build time.
SANITIZE_TESTS="util_test|txn_test|storage_test|catalog_test|index_test|wal_test|database_test|query_test|cursor_test|concurrency_stress_test|parallel_scan_test|pushdown_test|stable_predicate_test|partition_test|degradation_engine_test|write_batch_test|wal_recovery_test|checkpoint_fuzzy_test|maintenance_test|fault_injection_test|crash_sweep_test|morsel_test|service_test"

run_sanitized() {
  local kind="$1"
  local dir="build-$kind"
  cmake -B "$dir" -S . -DINSTANTDB_SANITIZE="$kind" -DINSTANTDB_BUILD_EXAMPLES=OFF
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j 1 -R "$SANITIZE_TESTS"
}

case "${1:-}" in
  # Sequenced, not chained with &&: `set -e` is suspended inside an &&
  # list, so a failing step there would fall through to "verify: OK".
  --tsan) run_plain; run_sanitized thread ;;
  --asan) run_plain; run_sanitized address ;;
  "") run_plain ;;
  *) echo "usage: $0 [--tsan|--asan]" >&2; exit 2 ;;
esac
echo "verify: OK"
