#!/usr/bin/env bash
# Kill-and-resume proof for the crash-safe sweep layer
# (docs/ROBUSTNESS.md). Run from the repo root after building:
#
#     scripts/ci_crash_resume.sh [build-dir] [out-dir]
#
# Four legs:
#   1. Start a journaled sweep, SIGKILL it once the journal holds a
#      few records, and confirm the process died mid-run.
#   2. Resume from the (possibly torn) journal into the same file and
#      a fresh --json dump; only the missing configs may re-simulate.
#   3. Run the identical sweep uninterrupted and require the two
#      bench JSON dumps to agree on every simulation-determined field
#      (scripts/diff_runs.py, which ignores wall-clock/profiler keys).
#   4. Schema-validate the journal, then force watchdog kills with a
#      microscopic --config-timeout and schema-validate the failure
#      manifest it writes.
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-crash-resume-out}"
BENCH="$BUILD/bench/bench_fig5_power_breakdown"
# Small simulated window so the whole proof stays in CI budget; the
# value is part of every run's key, so it must be identical across the
# three sweep invocations.
export MEMNET_SIM_US="${MEMNET_SIM_US:-50}"

[ -x "$BENCH" ] || { echo "missing bench binary: $BENCH" >&2; exit 2; }
mkdir -p "$OUT"
rm -f "$OUT"/*.json "$OUT"/*.jsonl "$OUT"/*.log

echo "== leg 1: journaled sweep, killed mid-run =="
"$BENCH" --jobs 2 --journal "$OUT/sweep.jsonl" \
    --json "$OUT/interrupted.json" >"$OUT/interrupted.log" 2>&1 &
pid=$!
# Wait for a handful of complete records, then kill without warning.
for _ in $(seq 1 600); do
    records=$(grep -c '"journal_version"' "$OUT/sweep.jsonl" \
        2>/dev/null || true)
    [ "${records:-0}" -ge 5 ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.05
done
if ! kill -KILL "$pid" 2>/dev/null; then
    echo "sweep finished before SIGKILL landed; the run is too fast" >&2
    echo "to interrupt on this machine — lower MEMNET_SIM_US? " >&2
    exit 2
fi
wait "$pid" 2>/dev/null || true
records=$(grep -c '"journal_version"' "$OUT/sweep.jsonl" || true)
echo "killed pid $pid with $records record(s) journaled"
[ "$records" -ge 1 ] || { echo "no records journaled" >&2; exit 1; }
[ -s "$OUT/interrupted.json" ] && {
    echo "interrupted sweep still wrote its --json dump?" >&2; exit 1; }

echo "== leg 2: resume from the journal (same file) =="
"$BENCH" --jobs 2 --resume "$OUT/sweep.jsonl" \
    --journal "$OUT/sweep.jsonl" \
    --json "$OUT/resumed.json" >"$OUT/resumed.log" 2>&1
grep "resume: loaded" "$OUT/resumed.log"
grep "crash-safety: .* appended" "$OUT/resumed.log"

echo "== leg 3: uninterrupted reference sweep =="
"$BENCH" --json "$OUT/reference.json" >"$OUT/reference.log" 2>&1
python3 scripts/diff_runs.py "$OUT/reference.json" "$OUT/resumed.json"

echo "== leg 4: schema validation =="
# The SIGKILL can leave one torn line, which RunJournal::open() sealed
# with a newline before the resume leg appended. Strip lines that are
# not complete JSON — there must be at most one — then schema-validate
# the rest and require full sweep coverage.
python3 - "$OUT/sweep.jsonl" "$OUT/sweep.clean.jsonl" <<'EOF'
import json, sys
src, dst = sys.argv[1], sys.argv[2]
kept, dropped = [], 0
for line in open(src):
    line = line.strip()
    if not line:
        continue
    try:
        json.loads(line)
        kept.append(line)
    except ValueError:
        dropped += 1
with open(dst, "w") as f:
    f.write("".join(l + "\n" for l in kept))
print(f"journal: {len(kept)} whole line(s), {dropped} torn fragment(s)")
if dropped > 1:
    sys.exit(f"more than one torn line ({dropped}) — append is not "
             "atomic per record")
EOF
python3 scripts/validate_bench_json.py --jsonl ci/journal_schema.json \
    "$OUT/sweep.clean.jsonl"
total=$(python3 - "$OUT/reference.json" <<'EOF'
import json, sys
print(len(json.load(open(sys.argv[1]))["runs"]))
EOF
)
clean=$(grep -c '"journal_version"' "$OUT/sweep.clean.jsonl")
[ "$clean" -ge "$total" ] || {
    echo "journal holds $clean record(s), sweep has $total config(s)" >&2
    exit 1
}

# Watchdog: a 1 ms budget no config can meet. The bench must exit
# non-zero yet still write a schema-valid machine-readable manifest
# naming every kill.
if "$BENCH" --jobs 2 --config-timeout 0.001 \
    --failure-manifest "$OUT/manifest.json" \
    --json "$OUT/isolated.json" >"$OUT/isolated.log" 2>&1; then
    echo "sweep with an unmeetable timeout exited 0" >&2
    exit 1
fi
grep -q "cancelled by watchdog" "$OUT/isolated.log" || {
    echo "no watchdog diagnostics in $OUT/isolated.log" >&2; exit 1; }
python3 scripts/validate_bench_json.py ci/failure_manifest_schema.json \
    "$OUT/manifest.json"

echo "crash-resume proof passed: $records journaled before SIGKILL," \
    "resume matched the uninterrupted sweep ($total configs)"
