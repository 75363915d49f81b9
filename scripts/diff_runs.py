#!/usr/bin/env python3
"""Diff two runs' JSON dumps that are expected to be equivalent.

The differential consistency harness (tests/test_differential.cc)
checks run equivalences in-process; this script does the same for the
JSON artifacts two runs wrote (memnet_run --stats-json dumps, bench
--json files), so CI can assert e.g. audit-on == audit-off or two
seeds of the same config from different builds without recompiling
anything.

Nothing beyond the python3 standard library, so CI needs no pip
installs.

Usage:
    scripts/diff_runs.py a.json b.json [--ignore REGEX] [--rtol X]

Key paths (`runs[0].result.profile.wall_s`) matching the --ignore
regex are skipped. The default skips exactly the host wall-clock
members, the only ones that differ between equivalent runs; every
simulated rate (reads_per_sec, flit error rates) is compared.
--rtol 0 (the default) demands exact equality — the runs are supposed
to be bit-identical.
Exit status: 0 when equivalent, 1 when any field differs, 2 on usage
errors.
"""

import argparse
import json
import re
import sys

# A run's wall_s, and prof_phases, the host-side profiler's wall-clock
# data, so a profiled run still diffs clean against an unprofiled one.
# The rest of a run's profile object (event counts, queue depths) is
# simulation-determined and compared. Whole path components only: a
# loose pattern like "per_sec" would also hide result.reads_per_sec.
DEFAULT_IGNORE = r"(^|\.)(result\.profile\.wall_s|host\.prof_phases)$"


def walk(a, b, path, ignore, rtol, diffs):
    if type(a) is not type(b) and not (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ):
        diffs.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
        return
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if ignore.search(sub):
                continue
            if key not in a:
                diffs.append(f"{sub}: only in second run")
            elif key not in b:
                diffs.append(f"{sub}: only in first run")
            else:
                walk(a[key], b[key], sub, ignore, rtol, diffs)
    elif isinstance(a, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            walk(x, y, f"{path}[{i}]", ignore, rtol, diffs)
    elif isinstance(a, bool) or not isinstance(a, (int, float)):
        if a != b:
            diffs.append(f"{path}: {a!r} != {b!r}")
    else:
        tol = rtol * max(abs(a), abs(b))
        if abs(a - b) > tol:
            diffs.append(f"{path}: {a!r} != {b!r}")


def main():
    ap = argparse.ArgumentParser(
        description="assert two run JSON dumps are equivalent")
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--ignore", default=DEFAULT_IGNORE,
                    help="regex of key paths to skip")
    ap.add_argument("--rtol", type=float, default=0.0,
                    help="relative tolerance for numbers (default: exact)")
    args = ap.parse_args()

    try:
        with open(args.a) as f:
            a = json.load(f)
        with open(args.b) as f:
            b = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    diffs = []
    walk(a, b, "", re.compile(args.ignore), args.rtol, diffs)
    if diffs:
        print(f"{args.a} and {args.b} differ in {len(diffs)} field(s):")
        for d in diffs:
            print(f"  {d}")
        return 1
    print(f"{args.a} == {args.b} (ignoring /{args.ignore}/)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # output piped into head etc.
        sys.exit(1)
