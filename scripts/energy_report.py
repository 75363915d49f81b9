#!/usr/bin/env python3
"""Render per-cause energy share tables from memnet output.

Two input modes, auto-detected from the document shape:

  * a memnet_run --stats-json dump: a flat name->value map carrying the
    net.energy.* attribution counters plus the utilization/occupancy
    sketch summaries (net.energy.util_ppm.*, net.energy.occupancy.*);

  * a bench --json dump (schema_version 5): one table per run from
    its result.energy object. --top N keeps only the N runs with the
    highest total joules (sorted descending), bounding the output for
    golden-file checks.

Each table splits the run's total energy by attribution cause — tx
traffic, the per-mode idle floor, sleep, wake transitions, retrain,
SerDes leakage, router dynamic, DRAM leak/dynamic — with each cause's
share of the total, then summarizes the congestion telemetry (per-link
utilization and queue-occupancy sketches).

Nothing beyond the python3 standard library, so CI needs no pip
installs. Output is deterministic for a deterministic input file —
CI diffs it against ci/energy_report_fig5.golden.

Usage:
    scripts/energy_report.py stats.json
    scripts/energy_report.py --top 4 bench_fig5.json
"""

import json
import sys

import bench_json

# Leaf attribution causes: disjoint, exhaustive — they sum to the
# run's total energy (idle_floor is the sum over the 8 idle modes).
CAUSES = [
    "tx",
    "retrain",
    "idle_floor",
    "sleep",
    "wake",
    "serdes_leak",
    "router",
    "dram_leak",
    "dram_dyn",
]

SKETCH_FIELDS = ["samples", "p50", "p90", "p99", "p999", "max"]


def render_table(energy, out):
    """Write one attribution table; `energy` is shaped like the
    bench-JSON result.energy object."""
    attr = bench_json.attribution(energy)
    total = float(attr["total"])
    if total <= 0.0:
        out.write("  no energy accrued in the measurement window\n")
        return

    out.write("  {:<14} {:>14} {:>7}\n".format("cause", "joules",
                                               "share%"))
    for cause in CAUSES:
        j = float(attr[cause])
        out.write("  {:<14} {:>14.6f} {:>7.2f}\n".format(
            cause, j, 100.0 * j / total))
    out.write("  {:<14} {:>14.6f} {:>7.2f}\n".format(
        "total", total, 100.0))
    out.write("  io split: idle {:.6f} J, active {:.6f} J\n".format(
        float(attr["idle_io"]), float(attr["active_io"])))

    util = energy["utilization_ppm"]
    occ = energy["occupancy"]
    out.write("  link utilization: p50 {:d} ppm  p99 {:d} ppm  "
              "max {:d} ppm  ({:d} samples)\n".format(
                  int(util["p50_ps"]), int(util["p99_ps"]),
                  int(util["max_ps"]), int(util["samples"])))
    out.write("  queue occupancy:  p50 {:d}  p99 {:d}  max {:d}  "
              "({:d} samples)\n".format(
                  int(occ["p50_ps"]), int(occ["p99_ps"]),
                  int(occ["max_ps"]), int(occ["samples"])))


def stats_json_to_energy(doc):
    """Reshape a flat --stats-json dump into the bench-JSON energy
    object; returns (energy, None) or (None, missing-key)."""
    missing = []

    def get(name):
        key = "net.energy." + name
        if key not in doc:
            missing.append(key)
        return doc.get(key)

    energy = {cause + "_j": get(cause + "_j")
              for cause in CAUSES + ["idle_io", "active_io"]
              if cause != "idle_floor"}
    energy["idle_mode_j"] = [get("idle_mode%d_j" % i) for i in range(8)]
    for name, scope in (("utilization_ppm", "util_ppm"),
                        ("occupancy", "occupancy")):
        energy[name] = {field if field == "samples" else field + "_ps":
                        get("%s.%s" % (scope, field))
                        for field in SKETCH_FIELDS}
    if missing:
        return None, missing[0]
    return energy, None


def report_stats_json(doc, out):
    """Table from a flat --stats-json dump."""
    energy, missing = stats_json_to_energy(doc)
    if energy is None:
        sys.stderr.write(
            "energy_report: %s missing — the dump predates the energy "
            "observatory\n" % missing)
        return 1
    out.write("energy attribution\n")
    render_table(energy, out)
    return 0


def report_bench_json(doc, out, top):
    """Tables from a bench --json dump, one per (kept) run."""
    err = bench_json.version_error(doc, "energy_report")
    if err:
        sys.stderr.write(err + "\n")
        return 1

    runs = []
    for run in doc.get("runs", []):
        en = run.get("result", {}).get("energy")
        if en is None:
            sys.stderr.write("energy_report: run %r has no energy "
                             "object\n" % run.get("key", "?"))
            return 1
        if not en.get("enabled", True):
            sys.stderr.write(
                "energy_report: run %r has no energy data: its record "
                "was loaded from a journal written before the energy "
                "observatory existed; re-run it without --resume to "
                "collect attribution\n" % run.get("key", "?"))
            return 1
        runs.append((run.get("key", "?"), en))

    if not runs:
        sys.stderr.write("energy_report: no runs in bench JSON\n")
        return 1

    dropped = 0
    if top is not None:
        runs.sort(key=lambda kv:
                  (-float(bench_json.attribution(kv[1])["total"]), kv[0]))
        dropped = max(0, len(runs) - top)
        runs = runs[:top]

    out.write("energy report: %s (%d run(s)%s)\n" % (
        doc.get("bench", "?"), len(runs),
        ", %d below --top cutoff not shown" % dropped if dropped
        else ""))
    for key, en in runs:
        out.write("\n%s\n" % key)
        render_table(en, out)
    return 0


def main(argv):
    args = list(argv[1:])
    top = None
    if "--top" in args:
        i = args.index("--top")
        try:
            top = int(args[i + 1])
        except (IndexError, ValueError):
            sys.stderr.write("energy_report: --top needs an integer\n")
            return 2
        del args[i:i + 2]
    if len(args) != 1 or args[0].startswith("-"):
        sys.stderr.write(__doc__.strip() + "\n")
        return 2

    try:
        with open(args[0]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write("energy_report: %s: %s\n" % (args[0], e))
        return 1

    if not isinstance(doc, dict):
        sys.stderr.write("energy_report: expected a JSON object\n")
        return 1

    if "runs" in doc:
        return report_bench_json(doc, sys.stdout, top)
    return report_stats_json(doc, sys.stdout)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
