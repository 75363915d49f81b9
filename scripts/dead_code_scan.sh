#!/usr/bin/env bash
# Dead-code scan: which memnet:: functions in the src/ libraries does no
# program link, and which do only the tests link?
#
#     scripts/dead_code_scan.sh [work-dir]
#
# Builds the whole tree (tests, benches, examples) and the standalone
# benchmark/ program at -O0 with -ffunction-sections -fdata-sections,
# linked with -Wl,--gc-sections, so the linker drops every function no
# binary reaches and the compiler inlines nothing away. -O0 matters: in
# an optimized build every inlined function looks unlinked too. The
# benchmark also gets -DNDEBUG: memnet_bench returns early in a build
# without it, and even -O0 then drops the rest of main, which would make
# everything only the benchmark reaches look unlinked.
#
# It then compares `nm -C --defined-only` of the src/ archives against
# the union over all binaries and prints two lists:
#   never linked - defined in src/ but in no binary;
#   test-only    - linked by test binaries only (not by any bench,
#                  example or memnet_bench).
# The work directory defaults to a fresh temporary one and is kept so
# the builds can be inspected; it takes a few minutes at -j4. Run by
# hand from the repo root; not part of CI.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=${1:-$(mktemp -d -t memnet-dead-code.XXXXXX)}
JOBS=${JOBS:-4}
mkdir -p "$WORK"
FLAGS="-O0 -ffunction-sections -fdata-sections"

build() { # <source-dir> <build-dir> <extra-flags> [target]
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
        -DCMAKE_CXX_FLAGS="$FLAGS $3" \
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >"$2.log" 2>&1
    cmake --build "$2" -j "$JOBS" ${4:+--target "$4"} >>"$2.log" 2>&1 ||
        { echo "build failed; see $2.log" >&2; exit 1; }
}
echo "building in $WORK ..." >&2
build "$ROOT" "$WORK/tree" ""
build "$ROOT/benchmark" "$WORK/benchmark" -DNDEBUG memnet_bench

# Demangled names of the memnet:: functions an object file defines.
functions() {
    nm -C --defined-only "$@" 2>/dev/null |
        awk '$2 ~ /^[TtWw]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
        grep '^memnet::' | sort -u
}
is_exe() { [ -f "$1" ] && [ -x "$1" ] && head -c 4 "$1" | grep -q ELF; }

functions "$WORK"/tree/src/*.a >"$WORK/defined.txt"
: >"$WORK/tests.txt"
: >"$WORK/programs.txt"
while IFS= read -r bin; do
    is_exe "$bin" || continue
    case "$bin" in
        "$WORK"/tree/tests/*) functions "$bin" >>"$WORK/tests.txt" ;;
        *) functions "$bin" >>"$WORK/programs.txt" ;;
    esac
done < <(find "$WORK/tree/tests" "$WORK/tree/bench" "$WORK/tree/examples" \
              "$WORK/benchmark" -maxdepth 1 -type f)
sort -u -o "$WORK/tests.txt" "$WORK/tests.txt"
sort -u -o "$WORK/programs.txt" "$WORK/programs.txt"
sort -u "$WORK/tests.txt" "$WORK/programs.txt" >"$WORK/linked.txt"

comm -23 "$WORK/defined.txt" "$WORK/linked.txt" >"$WORK/never_linked.txt"
comm -12 "$WORK/defined.txt" "$WORK/tests.txt" |
    comm -23 - "$WORK/programs.txt" >"$WORK/test_only.txt"

echo "memnet:: functions defined in src/: $(wc -l <"$WORK/defined.txt")"
echo
echo "never linked ($(wc -l <"$WORK/never_linked.txt")):"
sed 's/^/  /' "$WORK/never_linked.txt"
echo
echo "test-only ($(wc -l <"$WORK/test_only.txt")):"
sed 's/^/  /' "$WORK/test_only.txt"
