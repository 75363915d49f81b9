#!/usr/bin/env python3
"""Continuous benchmarking: record and check bench baselines.

Replaces the old hard-coded events/s floor in CI with a checked-in
baseline (ci/bench_baseline.json) carrying per-counter tolerance
bands. Two input formats are understood:

  * memnet bench --json output (ci/bench_schema.json, schema_version
    5 only): the runs' simulation-determined counters are aggregated
    per bench. These are exact by construction — the same binary must
    reproduce them bit for bit — so they get a tight two-sided
    tolerance. The aggregate events/s is also recorded as a loose
    one-sided rate.
  * google-benchmark --benchmark_format=json output (bench_micro_kernel):
    the user counters (events_per_s, ...) are wall-clock rates, so they
    get a loose one-sided tolerance that only fails on regression.
    real_time/cpu_time are never compared. Under
    --benchmark_repetitions a case appears once per repetition: a rate
    keeps its best repetition, the one a noisy host disturbed least,
    and every other counter must agree across the repetitions within
    its own band (record refuses, check fails).

Counters are classified by name: anything matching *_per_s / *_per_sec /
*_per_second (google-benchmark's items/bytes counters) / *_rate is a rate (one-sided: fail only when current < (1 - tol) *
baseline); percentile counters (*_p50_ps / *_p99_ps_max / ... — the
latency observatory's sketch quantiles) are two-sided but get a looser
default band, because a sketch quantile is quantized to its bucket's
upper bound and a one-sample shift can move it a whole ~3% bucket;
everything else is exact (two-sided relative comparison).
Raw wall-clock fields (wall_s, real_time, cpu_time) are excluded
entirely.

Usage:
    bench_compare.py record --baseline ci/bench_baseline.json BENCH_*.json
    bench_compare.py check  --baseline ci/bench_baseline.json BENCH_*.json

record overwrites the baseline entries for the given files (keeping
other entries); check compares and exits 1 on any failure:
  * a file's label missing from the baseline,
  * a baseline counter missing from the current results,
  * an exact counter outside the band,
  * a rate counter below the one-sided band,
  * an exact or percentile counter that differs between repetitions.
Rate improvements and new counters are reported but never fail.

Per-label tolerance overrides live in the baseline's "tolerances" map
(regex over "label:counter" -> relative tolerance). Nothing beyond the
python3 standard library, so CI needs no pip installs.
"""

import argparse
import json
import re
import sys

import bench_json

BASELINE_SCHEMA_VERSION = 1
DEFAULT_EXACT_REL_TOL = 1e-6
DEFAULT_RATE_REL_TOL = 0.8  # fail below 20% of baseline rate
DEFAULT_PCTL_REL_TOL = 0.05  # sketch quantiles: ~3% bucket width

_RATE_NAME = re.compile(r"(_per_s$|_per_sec$|_per_second$|_rate$)")
_PCTL_NAME = re.compile(r"_p\d+_ps(_max|_total)?$")
_EXCLUDED = {"wall_s", "real_time", "cpu_time"}


def is_rate(counter):
    return bool(_RATE_NAME.search(counter))


def is_percentile(counter):
    return bool(_PCTL_NAME.search(counter))


def extract_memnet(doc):
    """Aggregate a memnet bench --json document into one entry."""
    err = bench_json.version_error(doc, "bench_compare")
    if err:
        raise ValueError(err)
    runs = [r["result"] for r in doc.get("runs", [])]
    counters = {
        "runs": len(runs),
        "events_fired_total": 0,
        "events_scheduled_total": 0,
        "events_descheduled_total": 0,
        "peak_queue_depth_max": 0,
        "packets_issued_total": 0,
        "completed_reads_total": 0,
        "violations_total": 0,
    }
    wall = 0.0
    for r in runs:
        prof = r.get("profile", {})
        counters["events_fired_total"] += prof.get("events_fired", 0)
        counters["events_scheduled_total"] += prof.get("events_scheduled", 0)
        counters["events_descheduled_total"] += prof.get(
            "events_descheduled", 0)
        counters["peak_queue_depth_max"] = max(
            counters["peak_queue_depth_max"],
            prof.get("peak_queue_depth", 0))
        counters["packets_issued_total"] += prof.get("packets_issued", 0)
        counters["completed_reads_total"] += r.get("completed_reads", 0)
        counters["violations_total"] += r.get("violations", 0)
        wall += prof.get("wall_s", 0.0)
        # Latency-observatory aggregates. Samples are exact; the
        # percentile maxima are sketch quantiles and get the looser
        # *_p*_ps tolerance class (see module docstring).
        lat = r.get("latency")
        if lat and lat.get("enabled"):
            e2e = lat.get("end_to_end", {})
            counters["lat_samples_total"] = counters.get(
                "lat_samples_total", 0) + e2e.get("samples", 0)
            for pct in ("p99_ps", "p999_ps"):
                key = f"lat_{pct}_max"
                counters[key] = max(counters.get(key, 0),
                                    e2e.get(pct, 0))
        # Energy-observatory aggregates. Attribution joules are exact
        # simulation-determined doubles (the same binary reproduces
        # them bit for bit), so they go in the tight two-sided exact
        # class like events_fired_total.
        en = r.get("energy")
        if en and en.get("enabled"):
            attr = bench_json.attribution(en)
            for cause in ("tx", "retrain", "idle_floor", "sleep",
                          "wake", "serdes_leak", "router", "dram_leak",
                          "dram_dyn", "total"):
                key = f"energy_{cause}_j"
                counters[key] = counters.get(key, 0.0) + attr[cause]
            counters["energy_queue_occ_max"] = max(
                counters.get("energy_queue_occ_max", 0),
                en.get("occupancy", {}).get("max_ps", 0))
    if wall > 0:
        counters["events_per_s"] = counters["events_fired_total"] / wall
    return {doc.get("bench", "?"): {"kind": "memnet", "counters": counters}}


def extract_gbench(doc):
    """One entry per google-benchmark case, user counters only.

    Each repetition of a case is one "iteration" run of the same name.
    The entry's counters take each rate's best repetition and every
    other counter's first; with more than one repetition the entry also
    lists every repetition's counters under "repetitions", for
    repetition_failures().
    """
    runs = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        counters = {}
        for k, v in b.items():
            if k in _EXCLUDED or not isinstance(v, (int, float)) \
                    or isinstance(v, bool):
                continue
            if k in ("iterations", "repetitions", "repetition_index",
                     "family_index", "per_family_instance_index",
                     "threads"):
                continue
            counters[k] = v
        if counters:
            runs.setdefault(b["name"], []).append(counters)
    entries = {}
    for name, reps in runs.items():
        counters = dict(reps[0])
        for rep in reps[1:]:
            for k, v in rep.items():
                if k not in counters or (is_rate(k) and v > counters[k]):
                    counters[k] = v
        entry = {"kind": "gbench", "counters": counters}
        if len(reps) > 1:
            entry["repetitions"] = reps
        entries[name] = entry
    return entries


def repetition_failures(baseline, label, entry):
    """Report lines for non-rate counters the repetitions disagree on.

    Exact counters are fixed by the code, not the host, so every
    repetition must reproduce the first within the counter's band.
    """
    reps = entry.get("repetitions")
    if not reps:
        return []
    failures = []
    for counter, first in sorted(reps[0].items()):
        if is_rate(counter):
            continue
        tol = tolerance_for(baseline, label, counter)
        for i, rep in enumerate(reps[1:], 1):
            cur = rep.get(counter)
            if cur is None or outside_band(first, cur, tol):
                failures.append(
                    f"FAIL {label}:{counter}: repetition {i} gives "
                    f"{cur!r}, repetition 0 gave {first!r} "
                    f"(rel tol {tol})")
    return failures


def extract(path):
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" in doc:
        return extract_gbench(doc)
    if "runs" in doc:
        return extract_memnet(doc)
    raise ValueError(f"{path}: neither memnet bench JSON nor "
                     "google-benchmark JSON")


def tolerance_for(baseline, label, counter):
    """Resolve the relative tolerance for one label:counter pair."""
    key = f"{label}:{counter}"
    for pattern, tol in baseline.get("tolerances", {}).items():
        if re.search(pattern, key):
            return float(tol)
    defaults = baseline.get("defaults", {})
    if is_rate(counter):
        return float(defaults.get("rate_rel_tol", DEFAULT_RATE_REL_TOL))
    if is_percentile(counter):
        return float(defaults.get("pctl_rel_tol", DEFAULT_PCTL_REL_TOL))
    return float(defaults.get("exact_rel_tol", DEFAULT_EXACT_REL_TOL))


def outside_band(base, cur, tol):
    """True when cur is off base by more than tol of the larger one."""
    return abs(cur - base) > tol * max(abs(base), abs(cur))


def check_entry(baseline, label, base_counters, cur_counters, report):
    """Compare one label's counters; append report lines.

    Returns the number of failures.
    """
    failures = 0
    for counter, base in sorted(base_counters.items()):
        key = f"{label}:{counter}"
        if counter not in cur_counters:
            report.append(f"FAIL {key}: missing from current results")
            failures += 1
            continue
        cur = cur_counters[counter]
        tol = tolerance_for(baseline, label, counter)
        if is_rate(counter):
            floor = (1.0 - tol) * base
            if cur < floor:
                report.append(
                    f"FAIL {key}: {cur:.4g} < {floor:.4g} "
                    f"(baseline {base:.4g}, tol {tol})")
                failures += 1
            elif base > 0 and cur > (1.0 + tol) * base:
                report.append(
                    f"note {key}: improved {base:.4g} -> {cur:.4g}; "
                    "consider re-recording the baseline")
            else:
                report.append(f"ok   {key}: {cur:.4g} "
                              f"(baseline {base:.4g}, one-sided)")
        else:
            if outside_band(base, cur, tol):
                report.append(
                    f"FAIL {key}: {cur!r} != baseline {base!r} "
                    f"(rel tol {tol})")
                failures += 1
            else:
                report.append(f"ok   {key}: {cur!r}")
    for counter in sorted(set(cur_counters) - set(base_counters)):
        report.append(f"note {label}:{counter}: not in baseline "
                      "(re-record to start tracking it)")
    return failures


def cmd_record(args):
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError):
        baseline = {}
    baseline.setdefault("schema_version", BASELINE_SCHEMA_VERSION)
    baseline.setdefault("defaults", {
        "exact_rel_tol": DEFAULT_EXACT_REL_TOL,
        "rate_rel_tol": DEFAULT_RATE_REL_TOL,
    })
    baseline.setdefault("tolerances", {})
    entries = baseline.setdefault("entries", {})
    for path in args.files:
        for label, entry in extract(path).items():
            disagree = repetition_failures(baseline, label, entry)
            if disagree:
                raise ValueError(f"{path}: repetitions disagree, not "
                                 "recorded:\n" + "\n".join(disagree))
            entries[label] = {"kind": entry["kind"],
                              "counters": entry["counters"]}
            print(f"recorded {label}: "
                  f"{len(entry['counters'])} counters")
    entries = dict(sorted(entries.items()))
    baseline["entries"] = entries
    with open(args.baseline, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"wrote {args.baseline} ({len(entries)} entries)")
    return 0


def cmd_check(args):
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot load baseline: {e}", file=sys.stderr)
        return 2

    entries = baseline.get("entries", {})
    failures = 0
    report = []
    for path in args.files:
        for label, entry in extract(path).items():
            if label not in entries:
                report.append(
                    f"FAIL {label}: no baseline entry (run "
                    f"'bench_compare.py record' and commit the result)")
                failures += 1
                continue
            disagree = repetition_failures(baseline, label, entry)
            report.extend(disagree)
            failures += len(disagree)
            failures += check_entry(baseline, label,
                                    entries[label]["counters"],
                                    entry["counters"], report)
    for line in report:
        print(line)
    if failures:
        print(f"{failures} failure(s) against {args.baseline}")
        return 1
    print(f"all checks passed against {args.baseline}")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="record/check bench baselines for CI")
    sub = ap.add_subparsers(dest="mode", required=True)
    for name, fn in (("record", cmd_record), ("check", cmd_check)):
        p = sub.add_parser(name)
        p.add_argument("--baseline", required=True,
                       help="baseline JSON path (ci/bench_baseline.json)")
        p.add_argument("files", nargs="+",
                       help="BENCH_*.json files to record/check")
        p.set_defaults(fn=fn)
    args = ap.parse_args()
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
