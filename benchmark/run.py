#!/usr/bin/env python3
"""memnet benchmark: build memnet_bench, run workloads, report, compare.

Usage (from the repository root):

  python3 benchmark/run.py                  all workloads, untraced; prints
                                            every end-to-end metric and
                                            writes build-benchmark/results.json
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                            one workload; the last stdout line
                                            is {"correct", "attempted",
                                            "failed", "metrics"}
  python3 benchmark/run.py trace            all workloads, traced; writes
                                            spans and layers.json under
                                            build-benchmark/trace/
  python3 benchmark/run.py compare A.json B.json
                                            exit 1 when any metric of two
                                            results files differs by more
                                            than its bound

Each workload runs in its own memnet_bench process (benchmark/memnet_bench.cc),
which prints raw samples; this script turns them into medians and quartiles.
End-to-end numbers always come from untraced runs. Standard library only.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-benchmark"
BENCH_BIN = BUILD_DIR / "memnet_bench"
EXPECTED_DIR = BENCH_DIR / "expected"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("sweep", "long_run", "multichannel", "journal_replay")
DEFAULT_SEED = 1
# Never used while choosing workload sizes; claims must also hold on it.
HELD_OUT_SEED = 2

# A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

# Absolute slack below which a difference never counts, per metric.
FLOORS = {"setup_s": 0.05, "peak_rss_mb": 2.0}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float  # share of the baseline median a change may move it
    floor: float = 0.0  # absolute slack; failed_frac has bound 0, floor 0
    workloads: tuple = WORKLOADS

    def allowed(self, base):
        return max(self.bound * abs(base), self.floor)

    def worse(self, base, new):
        return new > base if self.better == "lower" else new < base


# Bound of every host-time metric: on a shared 4-vCPU host the speed
# of the machine drifts by 10-20% over minutes (benchmark/README.md).
TIME_BOUND = 0.25

# Metrics of single workloads. BENCHMARK.json lists only those every
# workload reports with a nonzero value; these are gated by `compare`.
WORKLOAD_METRICS = (
    Metric("sim_us_per_wall_s", "us/s", "higher", TIME_BOUND,
           workloads=("sweep", "long_run", "multichannel")),
    Metric("configs_per_s", "1/s", "higher", TIME_BOUND,
           workloads=("sweep",)),
    Metric("run_s_p50", "s", "lower", TIME_BOUND, workloads=("sweep",)),
    Metric("run_s_p95", "s", "lower", TIME_BOUND, workloads=("sweep",)),
    Metric("records_per_s", "1/s", "higher", TIME_BOUND,
           workloads=("journal_replay",)),
    Metric("failed_frac", "ratio", "lower", 0.0),
)


def load_benchmark_json(path=BENCHMARK_JSON):
    with open(path) as f:
        return json.load(f)


def gated_metrics(bench):
    """BENCHMARK.json's end-to-end metrics, reported by every workload."""
    return tuple(
        Metric(m["name"], m["unit"], m["better"], m["bound"],
               FLOORS.get(m["name"], 0.0))
        for m in bench["end_to_end"])


def all_metrics(bench):
    return gated_metrics(bench) + WORKLOAD_METRICS


# -- statistics -------------------------------------------------------------

@dataclass(frozen=True)
class Summary:
    median: float
    q1: float  # None for a percentile, which has no quartiles
    q3: float
    n: int

    @classmethod
    def of(cls, values):
        values = list(values)
        if not values:
            raise ValueError("no samples")
        if len(values) == 1:
            return cls(values[0], values[0], values[0], 1)
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return cls(statistics.median(values), q1, q3, len(values))

    def to_json(self):
        return {"median": self.median, "q1": self.q1, "q3": self.q3,
                "n": self.n}


def samples_beyond(n, q):
    """Samples above the q-quantile of n samples."""
    return n - math.ceil(q * n)


def percentile(values, q):
    """The q-quantile; refused with fewer than MIN_SAMPLES_BEYOND beyond."""
    values = sorted(values)
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}")
    if q == 0.5:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def summarize(metric, raw):
    """Summary of one metric from memnet_bench's raw output, or None."""
    if raw["workload"] not in metric.workloads:
        return None
    walls = raw["wall_s"]
    name = metric.name
    if name == "wall_s":
        return Summary.of(walls)
    if name == "setup_s":
        return Summary.of(raw["setup_s"])
    if name == "peak_rss_mb":
        return Summary.of(raw["peak_rss_mb"])
    if name == "sim_us_per_wall_s":
        return Summary.of(raw["sim_us_per_rep"] / w for w in walls)
    if name in ("configs_per_s", "records_per_s"):
        return Summary.of(raw["results_per_rep"] / w for w in walls)
    if name in ("run_s_p50", "run_s_p95"):
        q = 0.50 if name == "run_s_p50" else 0.95
        return Summary(percentile(raw["run_s"], q), None, None,
                       len(raw["run_s"]))
    if name == "failed_frac":
        return Summary(raw["failed"] / raw["attempted"], None, None,
                       raw["attempted"])
    raise KeyError(f"no computation for metric {name}")


# -- golden digests ---------------------------------------------------------

def expected_digest(workload, seed, expected_dir=EXPECTED_DIR):
    path = Path(expected_dir) / f"{workload}.json"
    if not path.exists():
        return None
    with open(path) as f:
        return json.load(f).get(str(seed))


def check_golden(raw, expected_dir=EXPECTED_DIR):
    """Count every operation failed when the digest misses its golden."""
    want = expected_digest(raw["workload"], raw["seed"], expected_dir)
    if want is not None and raw["digest"] != want:
        raw["failures"].append(
            f"digest {raw['digest']} != expected {want} for seed "
            f"{raw['seed']}")
        raw["failed"] = raw["attempted"]
    return raw


# -- build and run ----------------------------------------------------------

def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False on failure."""
    BUILD_DIR.mkdir(exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j",
                  str(os.cpu_count() or 1), "--target", "memnet_bench"])
    with open(BUILD_DIR / "build.log", "w") as logf:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=logf,
                                    stderr=subprocess.STDOUT).returncode
            except OSError as e:
                log(f"run.py: cannot run {cmd[0]}: {e}")
                return False
            if rc != 0:
                break
    if rc != 0:
        tail = (BUILD_DIR / "build.log").read_text().splitlines(True)[-20:]
        log(f"run.py: build failed; end of {BUILD_DIR / 'build.log'}:")
        log("".join(tail))
        # A failed configure must not leave a cache that skips it next time.
        (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
        return False
    return True


def bench_command(workload, seed, seconds, trace, out_dir):
    cmd = [str(BENCH_BIN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out_dir)]
    if trace:
        cmd.append("--trace")
    return cmd


def run_bench(workload, seed, seconds, trace, out_dir):
    """Run one workload process; its raw samples, golden-checked."""
    cmd = bench_command(workload, seed, seconds, trace, out_dir)
    # memnet_bench stops itself after --seconds plus its final checks.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 150)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: memnet_bench exited with "
                           f"{proc.returncode}")
    return check_golden(json.loads(lines[-1]))


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def provenance(raws, seed, seconds):
    first = next(iter(raws.values()))
    return {
        "compiler": first["compiler"],
        "build_type": first["build_type"],
        "nproc": first["nproc"],
        "git_commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "repetitions": {w: len(r["wall_s"]) for w, r in raws.items()},
    }


# -- reports ----------------------------------------------------------------

def workload_results(raw, metrics):
    out = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
           "failed": raw["failed"], "failures": raw["failures"],
           "digest": raw["digest"], "metrics": {}}
    for m in metrics:
        s = summarize(m, raw)
        if s is not None:
            out["metrics"][m.name] = {"unit": m.unit, "better": m.better,
                                      **s.to_json()}
    return out


def fmt(v):
    return "-" if v is None else f"{v:.6g}"


def print_results(results):
    print(f"{'workload':<15} {'metric':<18} {'unit':<6} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>6}")
    for w, res in results["workloads"].items():
        for name, m in res["metrics"].items():
            print(f"{w:<15} {name:<18} {m['unit']:<6} {fmt(m['median']):>12} "
                  f"{fmt(m['q1']):>12} {fmt(m['q3']):>12} {m['n']:>6}")
        if not res["correct"]:
            print(f"{w}: {res['failed']} of {res['attempted']} operations "
                  f"failed: {res['failures'][:3]}")


def compare(a, b, metrics):
    """Rows (workload, metric, a, b, allowed, verdict); verdict is 'ok',
    'regression' or 'improvement' (worse or better beyond the bound)."""
    by_name = {m.name: m for m in metrics}
    rows = []
    for w, ra in a["workloads"].items():
        rb = b["workloads"].get(w)
        if rb is None:
            continue
        for name, ma in ra["metrics"].items():
            m = by_name.get(name)
            mb = rb["metrics"].get(name)
            if m is None or mb is None:
                continue
            base, new = ma["median"], mb["median"]
            allowed = m.allowed(base)
            if abs(new - base) <= allowed:
                verdict = "ok"
            else:
                verdict = "regression" if m.worse(base, new) else "improvement"
            rows.append((w, name, base, new, allowed, verdict))
    return rows


def cmd_compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    rows = compare(a, b, all_metrics(load_benchmark_json()))
    print(f"{'workload':<15} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'change':>8} {'allowed':>10}  verdict")
    for w, name, base, new, allowed, verdict in rows:
        change = f"{(new - base) / base * 100:+.1f}%" if base else "-"
        print(f"{w:<15} {name:<18} {fmt(base):>12} {fmt(new):>12} "
              f"{change:>8} {fmt(allowed):>10}  {verdict}")
    return 1 if any(r[5] != "ok" for r in rows) else 0


def result_line(raw, bench, trace):
    """The one-line result: end-to-end metrics, or per-layer when traced."""
    metrics = {}
    if trace:
        layers = raw["layers"]
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
    else:
        for m in gated_metrics(bench):
            metrics[m.name] = {"value": summarize(m, raw).median,
                               "unit": m.unit}
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def cmd_single(args, bench):
    raw = run_bench(args.workload, args.seed, args.seconds, args.trace == 1,
                     BUILD_DIR / "out")
    for f in raw["failures"]:
        log(f"run.py: {args.workload}: {f}")
    print(json.dumps(result_line(raw, bench, args.trace == 1)))
    return 0


def cmd_all(args, bench):
    metrics = all_metrics(bench)
    raws = {}
    for w in WORKLOADS:
        log(f"run.py: {w} (seed {args.seed}, {args.seconds} s)")
        raws[w] = run_bench(w, args.seed, args.seconds, False,
                             BUILD_DIR / "out")
    results = {"provenance": provenance(raws, args.seed, args.seconds),
               "workloads": {w: workload_results(r, metrics)
                             for w, r in raws.items()}}
    print_results(results)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results: {out}")
    return 0 if all(r["correct"] for r in results["workloads"].values()) else 1


def cmd_trace(args, bench):
    trace_dir = BUILD_DIR / "trace"
    raws = {}
    for w in WORKLOADS:
        log(f"run.py: trace {w} (seed {args.seed}, {args.seconds} s)")
        raws[w] = run_bench(w, args.seed, args.seconds, True, trace_dir)
    names = [m["name"] for m in bench["per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print(f"{'metric':<38} {'unit':<8}" +
          "".join(f" {w:>15}" for w in WORKLOADS))
    for name in names:
        print(f"{name:<38} {units[name]:<8}" +
              "".join(f" {fmt(raws[w]['layers'][name]):>15}"
                      for w in WORKLOADS))
    doc = {"provenance": provenance(raws, args.seed, args.seconds),
           "workloads": {w: r["layers"] for w, r in raws.items()}}
    (trace_dir / "layers.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"layers: {trace_dir / 'layers.json'}; spans: "
          f"{trace_dir}/<workload>.trace.json")
    return 0 if all(r["failed"] == 0 for r in raws.values()) else 1


def parse_args(argv, bench):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("command", nargs="?", choices=("run", "trace"),
                   default="run")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(BUILD_DIR / "results.json"))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare A.json B.json")
            return 2
        return cmd_compare(argv[1], argv[2])
    bench = load_benchmark_json()
    args = parse_args(argv, bench)
    if not build():
        return 1
    try:
        if args.workload:
            return cmd_single(args, bench)
        return cmd_trace(args, bench) if args.command == "trace" \
            else cmd_all(args, bench)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
