#!/bin/sh
# Run a command line naming an unwritable output path (or under a
# malformed MEMNET_SIM_US or MEMNET_AUDIT): it must exit 1 before printing anything to
# stdout (no banner, no table), which also means nothing was simulated.
#
#     tests/expect_preflight_refusal.sh path/to/bench --json /no/such/dir/x.json
out=$("$@")
rc=$?
if [ "$rc" -ne 1 ]; then
    echo "exit status $rc, expected 1"
    exit 1
fi
if [ -n "$out" ]; then
    printf 'stdout was not empty:\n%s\n' "$out"
    exit 1
fi
