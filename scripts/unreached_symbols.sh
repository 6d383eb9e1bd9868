#!/usr/bin/env bash
# Link-reachability report: the src/ functions that only tests reach.
#
#   scripts/unreached_symbols.sh [build-dir]    # default: build-unreached/
#
# Builds the library, every test binary, every example and perfbench at -O0
# with one section per function (-ffunction-sections) and links them with
# --gc-sections, so each binary keeps exactly the functions it can reach and
# no inlining hides a call. A src/ symbol is a function the library defines
# out of line (nm type T: not a header inline or a template instance).
#
# Prints two lists of demangled names:
#   - linked into some test binary, but into neither perfbench nor any
#     example: test-only code, to delete or to move into the tests;
#   - linked into no binary at all: dead code.
# A report, not a gate: it always exits 0.
set -uo pipefail
cd "$(dirname "$0")/.."

dir="${1:-build-unreached}"
jobs="$(nproc 2>/dev/null || echo 4)"
flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

build() {  # <source dir> <build dir> [target]
  cmake -S "$1" -B "$2" "${flags[@]}" >/dev/null &&
    cmake --build "$2" -j"$jobs" ${3:+--target "$3"} >/dev/null
}
if ! build . "$dir/repo" || ! build perfbench "$dir/perfbench" perfbench_instantdb; then
  echo "unreached_symbols: build failed; no report" >&2
  exit 0
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Strong function definitions, mangled, one per line.
functions() { nm --defined-only "$@" 2>/dev/null | awk '$2 == "T" { print $3 }' | sort -u; }
# Demangled, one per line (constructor and destructor variants folded),
# with the string types spelled short.
names() {
  c++filt < "$1" |
    sed -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
        -e 's/std::basic_string_view<char, std::char_traits<char> >/std::string_view/g' |
    sort -u
}

functions "$dir/repo/libinstantdb.a" > "$tmp/src"
tests=("$dir"/repo/*_test)
products=("$dir"/repo/example_* "$dir/perfbench/perfbench_instantdb")
for bin in "${tests[@]}"; do functions "$bin"; done | sort -u > "$tmp/tests"
for bin in "${products[@]}"; do functions "$bin"; done | sort -u > "$tmp/products"

comm -12 "$tmp/src" "$tmp/tests" | comm -23 - "$tmp/products" > "$tmp/test_only"
sort -u "$tmp/tests" "$tmp/products" | comm -23 "$tmp/src" - > "$tmp/dead"
names "$tmp/test_only" > "$tmp/test_only.txt"
names "$tmp/dead" > "$tmp/dead.txt"

echo "src/ functions linked into some of ${#tests[@]} test binaries but into" \
     "neither perfbench nor any of $((${#products[@]} - 1)) examples:" \
     "$(wc -l < "$tmp/test_only.txt")"
sed 's/^/  /' "$tmp/test_only.txt"
echo "src/ functions linked into no binary: $(wc -l < "$tmp/dead.txt")"
sed 's/^/  /' "$tmp/dead.txt"
exit 0
