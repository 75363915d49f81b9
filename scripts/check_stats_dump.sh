#!/bin/sh
# A memnet_run --stats-json dump is bench JSON holding one run: it
# must validate against ci/bench_schema.json and render through the
# bench-JSON path of both report scripts.
#
#     scripts/check_stats_dump.sh path/to/memnet_run out-dir
#
# Writes stats.json, energy_report.txt and latency_report.txt into
# out-dir. PYTHON overrides the interpreter (default python3).
set -eu

RUN="$1"
OUT="$2"
PY="${PYTHON:-python3}"
SCRIPTS="$(cd "$(dirname "$0")" && pwd)"
ROOT="$(dirname "$SCRIPTS")"

mkdir -p "$OUT"
"$RUN" --workload mixE --topology star --mech vwl --roo --policy aware \
    --measure-us 50 --stats-json "$OUT/stats.json" > /dev/null
"$PY" "$SCRIPTS/validate_bench_json.py" "$ROOT/ci/bench_schema.json" \
    "$OUT/stats.json"
"$PY" "$SCRIPTS/energy_report.py" "$OUT/stats.json" \
    | tee "$OUT/energy_report.txt"
"$PY" "$SCRIPTS/latency_report.py" "$OUT/stats.json" \
    | tee "$OUT/latency_report.txt"
