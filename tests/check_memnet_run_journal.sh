#!/bin/sh
# memnet_run's journal path end to end: journal one run, then resume
# from that journal. The resumed run must simulate nothing, serve the
# run from the journal, and print the same report apart from the
# wall-clock profile line.
#
#     tests/check_memnet_run_journal.sh path/to/memnet_run <work-dir>
set -eu
RUN=$1
DIR=$2
rm -rf "$DIR"
mkdir -p "$DIR"

"$RUN" --measure-us 50 --report all --journal "$DIR/run.jsonl" \
    >"$DIR/first.txt" 2>"$DIR/first.err"
"$RUN" --measure-us 50 --report all --resume "$DIR/run.jsonl" \
    >"$DIR/resumed.txt" 2>"$DIR/resumed.err"

grep "crash-safety: 1 run(s) executed, 0 resumed" "$DIR/first.err"
grep "crash-safety: 0 run(s) executed, 1 resumed" "$DIR/resumed.err"
grep -v "^  profile:" "$DIR/first.txt" >"$DIR/first.report"
grep -v "^  profile:" "$DIR/resumed.txt" >"$DIR/resumed.report"
[ -s "$DIR/first.report" ] || { echo "empty report"; exit 1; }
diff -u "$DIR/first.report" "$DIR/resumed.report"
