#!/bin/sh
# The hot-path configuration (the long_run benchmark's: mixC on a
# 13-module daisy chain, VWL + ROO, network-aware management) must
# reproduce its committed stats dump in every field, the event-kernel
# counters (fired, scheduled, descheduled, peak depth) included.
#
#     tests/check_long_run_golden.sh path/to/memnet_run <work-dir>
#
# Only a deliberate change of simulated results regenerates the golden:
#
#     build/examples/memnet_run --workload mixC --topology daisychain \
#         --size big --mech vwl --roo --policy aware --measure-us 50 \
#         --stats-json ci/long_run_stats.golden.json
#
# PYTHON overrides the interpreter (default python3).
set -eu
RUN=$1
DIR=$2
PY="${PYTHON:-python3}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$DIR"

"$RUN" --workload mixC --topology daisychain --size big --mech vwl \
    --roo --policy aware --measure-us 50 \
    --stats-json "$DIR/stats.json" >/dev/null
# Host wall clock differs run to run, and Debug builds audit every
# run (audit_checks_run > 0); everything else must match exactly.
"$PY" "$ROOT/scripts/diff_runs.py" "$ROOT/ci/long_run_stats.golden.json" \
    "$DIR/stats.json" \
    --ignore '(^|\.)(result\.profile\.(wall_s|audit_checks_run)|host\.prof_phases)$'
