#!/bin/sh
# A full disk under an observability output is reported, not ignored:
# memnet_run writes each output to /dev/full in turn and must warn
# "<output> write failed (disk full?): /dev/full" on stderr. Skipped
# (exit 77) on hosts without /dev/full.
#
#     tests/check_output_write_failure.sh path/to/memnet_run
RUN=$1
[ -c /dev/full ] || { echo "no /dev/full; skipping"; exit 77; }
status=0
for pair in "--chrome-trace:chrome trace" "--epoch-jsonl:epoch JSONL" \
            "--stats-json:stats JSON"; do
    flag=${pair%%:*}
    name=${pair#*:}
    err=$("$RUN" --measure-us 20 --policy aware "$flag" /dev/full 2>&1 \
          >/dev/null)
    case "$err" in
        *"$name write failed (disk full?): /dev/full"*)
            echo "$flag: warned" ;;
        *)
            printf '%s: no write-failure warning; stderr:\n%s\n' \
                "$flag" "$err"
            status=1 ;;
    esac
done
exit $status
