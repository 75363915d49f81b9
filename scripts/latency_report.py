#!/usr/bin/env python3
"""Render a latency decomposition / percentile table from memnet output.

Reads bench JSON (schema_version 5): a bench --json dump or a
memnet_run --stats-json dump, which is the same document holding one
run. One table per run from its result.latency object. --top N keeps
only the N runs with the highest end-to-end p999 (sorted descending),
bounding the output for golden-file checks.

Nothing beyond the python3 standard library, so CI needs no pip
installs. Output is deterministic for a deterministic input file —
CI diffs it against ci/latency_report_fig15.golden.

Usage:
    scripts/latency_report.py stats.json
    scripts/latency_report.py --top 4 bench_fig15.json
"""

import json
import sys

import bench_json

COMPONENTS = [
    "end_to_end",
    "queue",
    "wake_stall",
    "retrain_stall",
    "serialization",
    "dram",
]

def _ns(ps):
    return float(ps) / 1e3


def render_table(latency, out):
    """Write one decomposition table; `latency` maps component name ->
    {samples, sum_ps, p50_ps, ...} like the bench-JSON latency object."""
    e2e = latency["end_to_end"]
    samples = int(e2e["samples"])
    if samples == 0:
        out.write("  no completed reads in the measurement window\n")
        return

    header = ("  {:<14} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} "
              "{:>10}\n").format("component", "share%", "mean_ns",
                                 "p50_ns", "p90_ns", "p99_ns",
                                 "p999_ns", "max_ns")
    out.write(header)
    total_ps = int(e2e["sum_ps"])
    for comp in COMPONENTS:
        c = latency[comp]
        n = int(c["samples"])
        sum_ps = int(c["sum_ps"])
        share = 100.0 * sum_ps / total_ps if total_ps else 0.0
        mean = _ns(sum_ps) / n if n else 0.0
        out.write(("  {:<14} {:>7.1f} {:>10.1f} {:>10.1f} {:>10.1f} "
                   "{:>10.1f} {:>10.1f} {:>10.1f}\n").format(
            comp, share, mean, _ns(c["p50_ps"]), _ns(c["p90_ps"]),
            _ns(c["p99_ps"]), _ns(c["p999_ps"]), _ns(c["max_ps"])))


def report_bench_json(doc, out, top):
    """Tables from a bench --json dump, one per (kept) run."""
    err = bench_json.version_error(doc, "latency_report")
    if err:
        sys.stderr.write(err + "\n")
        return 1

    runs = []
    for run in doc.get("runs", []):
        lat = run.get("result", {}).get("latency")
        if lat is None:
            sys.stderr.write("latency_report: run %r has no latency "
                             "object\n" % run.get("key", "?"))
            return 1
        if not lat.get("enabled", True):
            sys.stderr.write(
                "latency_report: run %r has no latency data: its record "
                "was loaded from a journal written before the latency "
                "observatory existed; re-run it without --resume to "
                "collect sketches\n" % run.get("key", "?"))
            return 1
        runs.append((run.get("key", "?"), lat))

    if not runs:
        sys.stderr.write("latency_report: no runs in bench JSON\n")
        return 1

    dropped = 0
    if top is not None:
        runs.sort(key=lambda kv: (-int(kv[1]["end_to_end"]["p999_ps"]),
                                  kv[0]))
        dropped = max(0, len(runs) - top)
        runs = runs[:top]

    out.write("latency report: %s (%d run(s)%s)\n" % (
        doc.get("bench", "?"), len(runs),
        ", %d below --top cutoff not shown" % dropped if dropped
        else ""))
    for key, lat in runs:
        out.write("\n%s\n" % key)
        render_table(lat, out)
        out.write("  stall attribution: wake %.6f s, retrain %.6f s, "
                  "queue peak %d\n" % (lat["wake_stall_s"],
                                       lat["retrain_stall_s"],
                                       int(lat["queue_peak"])))
    return 0


def main(argv):
    args = list(argv[1:])
    top = None
    if "--top" in args:
        i = args.index("--top")
        try:
            top = int(args[i + 1])
        except (IndexError, ValueError):
            sys.stderr.write("latency_report: --top needs an integer\n")
            return 2
        del args[i:i + 2]
    if len(args) != 1 or args[0].startswith("-"):
        sys.stderr.write(__doc__.strip() + "\n")
        return 2

    try:
        with open(args[0]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write("latency_report: %s: %s\n" % (args[0], e))
        return 1

    if not isinstance(doc, dict):
        sys.stderr.write("latency_report: expected a JSON object\n")
        return 1

    return report_bench_json(doc, sys.stdout, top)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
