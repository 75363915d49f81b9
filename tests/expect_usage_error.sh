#!/bin/sh
# Run a command line that must be refused as malformed: exit status 2
# with a usage message, and not for an unknown flag (which would mean
# the flag under test was never parsed).
#
#     tests/expect_usage_error.sh path/to/memnet_run --measure-us abc
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne 2 ]; then
    echo "exit status $rc, expected 2"
    exit 1
fi
case "$out" in
    *"unknown flag"*) echo "refused as an unknown flag"; exit 1 ;;
esac
