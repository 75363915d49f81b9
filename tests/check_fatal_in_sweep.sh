#!/bin/sh
# A memnet_fatal inside a sweep fails only its own config: three seeds
# of an unknown workload on two threads all fail, the sweep still
# writes the failure manifest naming each one, and exits 1.
#
#     tests/check_fatal_in_sweep.sh path/to/memnet_run <work-dir>
set -eu
RUN=$1
DIR=$2
rm -rf "$DIR"
mkdir -p "$DIR"
M="$DIR/manifest.json"

rc=0
"$RUN" --workload nope --seeds 3 --jobs 2 --failure-manifest "$M" \
    >/dev/null 2>"$DIR/err" || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "expected exit 1, got $rc" >&2
    exit 1
fi
if [ ! -s "$M" ]; then
    echo "no failure manifest written" >&2
    exit 1
fi
n=$(grep -o 'unknown workload: nope' "$M" | wc -l)
if [ "$n" -ne 3 ]; then
    echo "expected 3 failures naming the workload, found $n:" >&2
    cat "$M" >&2
    exit 1
fi
