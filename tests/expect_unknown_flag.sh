#!/bin/sh
# Run a command line whose flag must be refused as unknown: exit status
# 2 with an "unknown flag" usage message.
#
#     tests/expect_unknown_flag.sh path/to/memnet_run --partitions 2
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne 2 ]; then
    echo "exit status $rc, expected 2"
    exit 1
fi
case "$out" in
    *"unknown flag"*) ;;
    *) echo "not refused as an unknown flag"; exit 1 ;;
esac
