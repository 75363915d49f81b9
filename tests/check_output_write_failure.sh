#!/bin/sh
# A full disk under an output file is reported, not ignored: each output
# is written to /dev/full in turn and must warn "<output> write failed
# (disk full?): /dev/full" on stderr. A run's observability outputs
# still exit 0; a sweep's own outputs (--profile, a bench's --json)
# exit 1. Skipped (exit 77) on hosts without /dev/full.
#
#     tests/check_output_write_failure.sh path/to/memnet_run path/to/bench
RUN=$1
BENCH=$2
[ -c /dev/full ] || { echo "no /dev/full; skipping"; exit 77; }
status=0

# check <output name> <expected exit code> <command...>
check() {
    name=$1
    want=$2
    shift 2
    err=$("$@" 2>&1 >/dev/null)
    rc=$?
    case "$err" in
        *"$name write failed (disk full?): /dev/full"*) ;;
        *)
            printf '%s: no write-failure warning; stderr:\n%s\n' "$*" "$err"
            status=1
            return ;;
    esac
    if [ "$rc" -ne "$want" ]; then
        printf '%s: exit %s, expected %s\n' "$*" "$rc" "$want"
        status=1
        return
    fi
    echo "$*: warned, exit $rc"
}

for pair in "--chrome-trace:chrome trace" "--epoch-jsonl:epoch JSONL" \
            "--stats-json:stats JSON"; do
    check "${pair#*:}" 0 "$RUN" --measure-us 20 --policy aware \
        "${pair%%:*}" /dev/full
done
check profile 1 "$RUN" --measure-us 20 --policy aware --profile /dev/full
check "bench JSON" 1 env MEMNET_SIM_US=20 "$BENCH" --json /dev/full
exit $status
