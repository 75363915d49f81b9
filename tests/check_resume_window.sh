#!/bin/sh
# A journal resumes only the runs whose window matches: journal three
# seeds at MEMNET_SIM_US=20, then resume at 30 (every run is a new
# config and re-simulates) and at 20 (every run is served from the
# journal).
#
#     tests/check_resume_window.sh path/to/memnet_run <work-dir>
set -eu
RUN=$1
DIR=$2
rm -rf "$DIR"
mkdir -p "$DIR"
J="$DIR/run.jsonl"

MEMNET_SIM_US=20 "$RUN" --seeds 3 --journal "$J" >/dev/null 2>"$DIR/first.err"
MEMNET_SIM_US=30 "$RUN" --seeds 3 --resume "$J" >/dev/null 2>"$DIR/other.err"
MEMNET_SIM_US=20 "$RUN" --seeds 3 --resume "$J" >/dev/null 2>"$DIR/same.err"

grep "crash-safety: 3 run(s) executed, 0 resumed" "$DIR/first.err"
grep "crash-safety: 3 run(s) executed, 0 resumed" "$DIR/other.err"
grep "crash-safety: 0 run(s) executed, 3 resumed" "$DIR/same.err"
