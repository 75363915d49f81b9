#!/bin/sh
# --profile end to end: memnet_run (one config, --jobs 1), a bench
# sweep at --jobs 2 and bench_ext_multichannel (whose cells call
# runMultiChannel directly) all write collapsed stacks in which every
# stack starts at sim/run, so the profile has the same shape at any
# --jobs and through either entry point. Every phase must come from the
# set below: scopes mark phases entered a few times per run, and a
# scope on per-hop code (net/route and mc/fanout were two) would mostly
# time its own clock reads.
#
#     tests/check_profile_stacks.sh path/to/memnet_run path/to/bench \
#         path/to/bench_ext_multichannel <work-dir>
set -eu
RUN=$1
BENCH=$2
MC=$3
DIR=$4
rm -rf "$DIR"
mkdir -p "$DIR"

"$RUN" --measure-us 50 --profile "$DIR/run.folded" >/dev/null
MEMNET_SIM_US=20 "$BENCH" --jobs 2 --profile "$DIR/sweep.folded" >/dev/null
MEMNET_SIM_US=20 "$MC" --profile "$DIR/mc.folded" >/dev/null

for f in "$DIR/run.folded" "$DIR/sweep.folded" "$DIR/mc.folded"; do
    [ -s "$f" ] || { echo "empty profile: $f"; exit 1; }
    grep -q "eq/dispatch" "$f" || { echo "no eq/dispatch: $f"; exit 1; }
    if grep -v "^sim/run[; ]" "$f"; then
        echo "stack not rooted at sim/run in $f"
        exit 1
    fi
    unknown=$(sed 's/ [0-9]*$//' "$f" | tr ';' '\n' | sort -u |
        grep -Ev '^(sim/[a-z_]+|eq/dispatch|mgmt/epoch|mgmt/isp_round)$' ||
        true)
    if [ -n "$unknown" ]; then
        echo "phases outside the allowed set in $f:"
        echo "$unknown"
        exit 1
    fi
done
