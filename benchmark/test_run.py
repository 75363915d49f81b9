"""Unit tests for benchmark/run.py: statistics, bounds, compare, seeds.

Run from the repository root:  python3 -m unittest discover -s benchmark
"""

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

import run


def raw_output(workload="sweep", **overrides):
    """memnet_bench's raw output with round numbers."""
    raw = {
        "workload": workload, "seed": 1,
        "setup_s": [0.5, 0.4, 0.6],
        "wall_s": [2.0, 2.5, 2.25],
        "sim_us_per_rep": 0.0 if workload == "journal_replay" else 1000.0,
        "results_per_rep": 224.0,
        "run_s": [float(i) for i in range(1, 225)],
        "peak_rss_mb": [12.0, 12.5, 11.5],
        "attempted": 100, "failed": 0, "failures": [], "digest": "0000abcd",
    }
    raw.update(overrides)
    return raw


def results_file(directory, name, medians):
    """A results file with one workload and the given metric medians."""
    doc = {"workloads": {"sweep": {"metrics": {
        k: {"median": v} for k, v in medians.items()}}}}
    path = Path(directory) / name
    path.write_text(json.dumps(doc))
    return str(path)


class StatisticsTest(unittest.TestCase):
    def test_median_and_quartiles_of_odd_count(self):
        s = run.Summary.of([9, 1, 8, 2, 7, 3, 6, 4, 5])
        self.assertEqual((s.median, s.q1, s.q3, s.n), (5, 2.5, 7.5, 9))

    def test_median_and_quartiles_of_even_count(self):
        s = run.Summary.of([4, 1, 3, 2])
        self.assertEqual((s.median, s.q1, s.q3, s.n), (2.5, 1.25, 3.75, 4))

    def test_single_sample_is_its_own_quartiles(self):
        s = run.Summary.of([4.0])
        self.assertEqual((s.median, s.q1, s.q3, s.n), (4.0, 4.0, 4.0, 1))

    def test_no_samples_is_refused(self):
        with self.assertRaises(ValueError):
            run.Summary.of([])

    def test_rates_are_taken_per_repetition(self):
        m = next(m for m in run.WORKLOAD_METRICS if m.name == "configs_per_s")
        s = run.summarize(m, raw_output())
        self.assertEqual(s.median, 224 / 2.25)
        self.assertEqual(s.n, 3)

    def test_metric_of_another_workload_is_not_reported(self):
        m = next(m for m in run.WORKLOAD_METRICS if m.name == "records_per_s")
        self.assertIsNone(run.summarize(m, raw_output("sweep")))


class PercentileRuleTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(run.samples_beyond(224, 0.95), 11)
        self.assertEqual(run.samples_beyond(200, 0.95), 10)
        self.assertEqual(run.samples_beyond(199, 0.95), 9)

    def test_p95_needs_ten_samples_beyond_it(self):
        self.assertAlmostEqual(run.percentile(range(200), 0.95), 189.95)
        with self.assertRaises(ValueError):
            run.percentile(range(199), 0.95)

    def test_p50_needs_twenty_samples(self):
        self.assertEqual(run.percentile(range(1, 21), 0.5), 10.5)
        with self.assertRaises(ValueError):
            run.percentile(range(19), 0.5)

    def test_run_s_p95_refused_on_a_short_sample(self):
        m = next(m for m in run.WORKLOAD_METRICS if m.name == "run_s_p95")
        self.assertEqual(run.summarize(m, raw_output()).n, 224)
        with self.assertRaises(ValueError):
            run.summarize(m, raw_output(run_s=[1.0] * 150))


class BoundsTest(unittest.TestCase):
    def test_relative_bound(self):
        m = run.Metric("wall_s", "s", "lower", 0.10)
        self.assertAlmostEqual(m.allowed(10.0), 1.0)
        self.assertAlmostEqual(m.allowed(-10.0), 1.0)

    def test_absolute_floor(self):
        m = run.Metric("setup_s", "s", "lower", 0.25, floor=0.05)
        self.assertEqual(m.allowed(0.01), 0.05)
        self.assertEqual(m.allowed(1.0), 0.25)

    def test_failed_frac_has_no_slack(self):
        m = next(m for m in run.WORKLOAD_METRICS if m.name == "failed_frac")
        self.assertEqual(m.allowed(0.0), 0.0)

    def test_direction(self):
        lower = run.Metric("wall_s", "s", "lower", 0.10)
        higher = run.Metric("configs_per_s", "1/s", "higher", 0.10)
        self.assertTrue(lower.worse(10.0, 11.0))
        self.assertFalse(lower.worse(10.0, 9.0))
        self.assertTrue(higher.worse(10.0, 9.0))
        self.assertFalse(higher.worse(10.0, 11.0))

    def test_floors_come_from_run_py(self):
        metrics = {m.name: m for m in run.gated_metrics(
            run.load_benchmark_json())}
        self.assertEqual(metrics["setup_s"].floor, 0.05)
        self.assertEqual(metrics["peak_rss_mb"].floor, 2.0)
        self.assertEqual(metrics["wall_s"].floor, 0.0)


class CompareTest(unittest.TestCase):
    BASE = {"wall_s": 10.0, "setup_s": 0.01, "configs_per_s": 20.0,
            "failed_frac": 0.0}

    def setUp(self):
        self.metrics = run.all_metrics(run.load_benchmark_json())
        self.bound = {m.name: m.bound for m in self.metrics}

    def scaled(self, name, factor):
        """BASE[name] moved by factor x its bound (sign = direction)."""
        return self.BASE[name] * (1 + factor * self.bound[name])

    def verdicts(self, **changes):
        a = {"workloads": {"sweep": {"metrics": {
            k: {"median": v} for k, v in self.BASE.items()}}}}
        b = {"workloads": {"sweep": {"metrics": {
            k: {"median": changes.get(k, v)} for k, v in self.BASE.items()}}}}
        return {r[1]: r[5] for r in run.compare(a, b, self.metrics)}

    def exit_code(self, **changes):
        with tempfile.TemporaryDirectory() as d:
            a = results_file(d, "a.json", self.BASE)
            b = results_file(d, "b.json", {**self.BASE, **changes})
            with contextlib.redirect_stdout(io.StringIO()):
                return run.cmd_compare(a, b)

    def test_identical_results_agree(self):
        self.assertEqual(self.exit_code(), 0)
        self.assertEqual(set(self.verdicts().values()), {"ok"})

    def test_change_within_bound_passes(self):
        self.assertEqual(self.exit_code(wall_s=self.scaled("wall_s", 0.9)), 0)

    def test_regression_beyond_bound_fails(self):
        slower = self.scaled("wall_s", 1.2)
        self.assertEqual(self.exit_code(wall_s=slower), 1)
        self.assertEqual(self.verdicts(wall_s=slower)["wall_s"], "regression")

    def test_improvement_beyond_bound_also_differs(self):
        faster = self.scaled("wall_s", -1.2)
        self.assertEqual(self.exit_code(wall_s=faster), 1)
        self.assertEqual(self.verdicts(wall_s=faster)["wall_s"], "improvement")

    def test_higher_is_better_direction(self):
        self.assertEqual(self.verdicts(
            configs_per_s=self.scaled("configs_per_s", -1.2))["configs_per_s"],
            "regression")
        self.assertEqual(self.verdicts(
            configs_per_s=self.scaled("configs_per_s", 1.2))["configs_per_s"],
            "improvement")

    def test_floor_absorbs_small_absolute_change(self):
        self.assertEqual(self.exit_code(setup_s=0.04), 0)
        self.assertEqual(self.exit_code(setup_s=0.07), 1)

    def test_any_failure_fails(self):
        self.assertEqual(self.exit_code(failed_frac=1e-6), 1)


class SeedPlumbingTest(unittest.TestCase):
    def test_defaults(self):
        args = run.parse_args([], {"run_seconds": 20})
        self.assertEqual(args.seed, run.DEFAULT_SEED)
        self.assertEqual(args.seconds, 20)
        self.assertNotEqual(run.HELD_OUT_SEED, run.DEFAULT_SEED)

    def test_seed_reaches_memnet_bench(self):
        args = run.parse_args(["--workload", "long_run", "--seed", "7",
                               "--seconds", "5", "--trace", "1"],
                              {"run_seconds": 20})
        cmd = run.bench_command(args.workload, args.seed, args.seconds,
                                 args.trace == 1, "out")
        self.assertEqual(cmd[cmd.index("--seed") + 1], "7")
        self.assertEqual(cmd[cmd.index("--workload") + 1], "long_run")
        self.assertIn("--trace", cmd)
        self.assertNotIn("--trace", run.bench_command(
            "long_run", 7, 5, False, "out"))

    def test_golden_is_looked_up_by_seed(self):
        with tempfile.TemporaryDirectory() as d:
            (Path(d) / "sweep.json").write_text('{"7": "0000abcd"}')
            ok = run.check_golden(raw_output(seed=7), d)
            self.assertEqual(ok["failed"], 0)
            bad = run.check_golden(raw_output(seed=7, digest="ffffffff"), d)
            self.assertEqual(bad["failed"], bad["attempted"])
            unknown = run.check_golden(raw_output(seed=8, digest="ffff"), d)
            self.assertEqual(unknown["failed"], 0)

    def test_goldens_cover_default_and_held_out_seed(self):
        for w in run.WORKLOADS:
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                self.assertRegex(run.expected_digest(w, seed) or "",
                                 r"^[0-9a-f]{8}$", f"{w} seed {seed}")


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_benchmark_json()

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]),
                         run.WORKLOADS)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_every_workload_reports_every_end_to_end_metric(self):
        for w in run.WORKLOADS:
            line = run.result_line(raw_output(w), self.bench, False)
            self.assertEqual(set(line), {"correct", "attempted", "failed",
                                         "metrics"})
            self.assertEqual(set(line["metrics"]),
                             {m["name"] for m in self.bench["end_to_end"]})
            for name, m in line["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w} {name}")

    def test_traced_line_reports_every_per_layer_metric(self):
        layers = {m["name"]: 0.0 for m in self.bench["per_layer"]}
        line = run.result_line(raw_output(layers=layers), self.bench, True)
        self.assertEqual(set(line["metrics"]), set(layers))


if __name__ == "__main__":
    unittest.main()
