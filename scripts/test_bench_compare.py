#!/usr/bin/env python3
"""Unit tests for bench_compare.py (stdlib unittest only).

Run directly or via ctest (test_bench_compare). Exercises the
record -> check round trip for both input formats, the one-sided rate
band, the two-sided exact band, tolerance overrides, and the failure
modes check is supposed to catch.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare as bc


def memnet_doc(events_fired=1000, wall=0.5, completed=40, violations=0,
               p99_ps=120000, tx_j=0.5, version=5):
    return {
        "schema_version": version,
        "bench": "bench_fig5",
        "runs": [
            {
                "key": "star/aware",
                "config": {"workload": "mixA"},
                "result": {
                    "completed_reads": completed,
                    "violations": violations,
                    "latency": {
                        "enabled": True,
                        "end_to_end": {
                            "samples": 40,
                            "p99_ps": p99_ps,
                            "p999_ps": p99_ps + 5000,
                        },
                    },
                    "energy": {
                        "enabled": True,
                        "tx_j": tx_j,
                        "retrain_j": 0.01,
                        "idle_mode_j": [1.0, 0.25, 0, 0, 0, 0, 0, 0],
                        "sleep_j": 0.05,
                        "wake_j": 0.02,
                        "serdes_leak_j": 0.3,
                        "router_j": 0.1,
                        "dram_leak_j": 0.6,
                        "dram_dyn_j": 0.4,
                        "idle_io_j": 1.32,
                        "active_io_j": tx_j + 0.01,
                        "occupancy": {"samples": 14, "max_ps": 9},
                    },
                    "profile": {
                        "events_fired": events_fired,
                        "events_scheduled": events_fired + 10,
                        "events_descheduled": 3,
                        "peak_queue_depth": 52,
                        "packets_issued": 200,
                        "wall_s": wall,
                    },
                },
                "host": {"prof_phases": [], "partition_lanes": []},
            }
        ],
    }


def gbench_doc(rate=2.0e6):
    return {
        "context": {"date": "x"},
        "benchmarks": [
            {
                "name": "BM_EventQueue",
                "run_type": "iteration",
                "iterations": 100,
                "real_time": 12.5,
                "cpu_time": 12.4,
                "events_per_s": rate,
                "events_total": 4096,
            },
            {
                "name": "BM_EventQueue_mean",
                "run_type": "aggregate",
                "events_per_s": rate,
            },
        ],
    }


def gbench_reps_doc(rates=(1.0e6, 3.0e6, 2.0e6), totals=(4096,) * 3):
    """--benchmark_repetitions output: one run per repetition, then
    the aggregates google-benchmark appends."""
    runs = [
        {
            "name": "BM_EventQueue",
            "run_type": "iteration",
            "repetitions": len(rates),
            "repetition_index": i,
            "iterations": 100 + i,
            "real_time": 12.5,
            "cpu_time": 12.4,
            "events_per_s": rate,
            "events_total": total,
        }
        for i, (rate, total) in enumerate(zip(rates, totals))
    ]
    for agg in ("mean", "median", "stddev", "cv"):
        runs.append({"name": f"BM_EventQueue_{agg}",
                     "run_type": "aggregate", "events_per_s": 1.0})
    return {"context": {"date": "x"}, "benchmarks": runs}


class ExtractTest(unittest.TestCase):
    def test_memnet_aggregation(self):
        entries = bc.extract_memnet(memnet_doc())
        counters = entries["bench_fig5"]["counters"]
        self.assertEqual(counters["events_fired_total"], 1000)
        self.assertEqual(counters["events_scheduled_total"], 1010)
        self.assertEqual(counters["peak_queue_depth_max"], 52)
        self.assertEqual(counters["completed_reads_total"], 40)
        self.assertAlmostEqual(counters["events_per_s"], 2000.0)
        self.assertNotIn("wall_s", counters)

    def test_gbench_skips_aggregates_and_time_fields(self):
        entries = bc.extract_gbench(gbench_doc())
        self.assertEqual(list(entries), ["BM_EventQueue"])
        counters = entries["BM_EventQueue"]["counters"]
        self.assertNotIn("real_time", counters)
        self.assertNotIn("cpu_time", counters)
        self.assertNotIn("iterations", counters)
        self.assertEqual(counters["events_per_s"], 2.0e6)
        self.assertEqual(counters["events_total"], 4096)

    def test_gbench_repetitions_keep_best_rate(self):
        entries = bc.extract_gbench(gbench_reps_doc())
        self.assertEqual(list(entries), ["BM_EventQueue"])
        counters = entries["BM_EventQueue"]["counters"]
        # The best repetition, not the last one (2e6) or the first.
        self.assertEqual(counters["events_per_s"], 3.0e6)
        self.assertEqual(counters["events_total"], 4096)
        self.assertNotIn("repetition_index", counters)
        self.assertEqual(len(entries["BM_EventQueue"]["repetitions"]), 3)

    def test_gbench_single_run_lists_no_repetitions(self):
        entry = bc.extract_gbench(gbench_doc())["BM_EventQueue"]
        self.assertNotIn("repetitions", entry)

    def test_rate_classification(self):
        self.assertTrue(bc.is_rate("events_per_s"))
        self.assertTrue(bc.is_rate("reads_per_sec"))
        self.assertTrue(bc.is_rate("miss_rate"))
        self.assertTrue(bc.is_rate("items_per_second"))
        self.assertTrue(bc.is_rate("bytes_per_second"))
        self.assertFalse(bc.is_rate("events_fired_total"))

    def test_percentile_classification(self):
        self.assertTrue(bc.is_percentile("lat_p99_ps_max"))
        self.assertTrue(bc.is_percentile("lat_p999_ps_max"))
        self.assertTrue(bc.is_percentile("queue_p50_ps"))
        self.assertFalse(bc.is_percentile("lat_samples_total"))
        self.assertFalse(bc.is_percentile("events_per_s"))

    def test_memnet_latency_aggregation(self):
        entries = bc.extract_memnet(memnet_doc(p99_ps=150000))
        counters = entries["bench_fig5"]["counters"]
        self.assertEqual(counters["lat_samples_total"], 40)
        self.assertEqual(counters["lat_p99_ps_max"], 150000)
        self.assertEqual(counters["lat_p999_ps_max"], 155000)

    def test_memnet_energy_aggregation(self):
        entries = bc.extract_memnet(memnet_doc(tx_j=0.75))
        counters = entries["bench_fig5"]["counters"]
        self.assertAlmostEqual(counters["energy_tx_j"], 0.75)
        self.assertAlmostEqual(counters["energy_idle_floor_j"], 1.25)
        self.assertAlmostEqual(counters["energy_total_j"], 3.48)
        self.assertEqual(counters["energy_queue_occ_max"], 9)
        # Exact class: no rate/percentile suffix.
        self.assertFalse(bc.is_rate("energy_tx_j"))
        self.assertFalse(bc.is_percentile("energy_tx_j"))

    def test_memnet_without_energy_object_still_extracts(self):
        doc = memnet_doc()
        del doc["runs"][0]["result"]["energy"]
        counters = bc.extract_memnet(doc)["bench_fig5"]["counters"]
        self.assertNotIn("energy_tx_j", counters)
        self.assertEqual(counters["events_fired_total"], 1000)

    def test_memnet_v4_document_is_rejected_with_clear_message(self):
        with self.assertRaisesRegex(ValueError,
                                    "schema_version 4 is not 5"):
            bc.extract_memnet(memnet_doc(version=4))

    def test_memnet_without_latency_object_still_extracts(self):
        doc = memnet_doc()
        del doc["runs"][0]["result"]["latency"]
        counters = bc.extract_memnet(doc)["bench_fig5"]["counters"]
        self.assertNotIn("lat_samples_total", counters)
        self.assertEqual(counters["events_fired_total"], 1000)


class CliTest(unittest.TestCase):
    """Temporary files and the real CLI entry points."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(self.dir.name, "baseline.json")

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_cli(self, *argv):
        old = sys.argv
        sys.argv = ["bench_compare.py"] + list(argv)
        try:
            return bc.main()
        finally:
            sys.argv = old

    def record(self, *files):
        self.assertEqual(
            self.run_cli("record", "--baseline", self.baseline, *files), 0)


class RoundTripTest(CliTest):
    """record then check through the real CLI entry points."""

    def test_identical_results_pass(self):
        f1 = self.write("m.json", memnet_doc())
        f2 = self.write("g.json", gbench_doc())
        self.record(f1, f2)
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, f1, f2), 0)

    def test_exact_counter_regression_fails(self):
        f1 = self.write("m.json", memnet_doc())
        self.record(f1)
        f2 = self.write("m2.json", memnet_doc(completed=39))
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, f2), 1)

    def test_rate_regression_fails_only_below_band(self):
        f1 = self.write("g.json", gbench_doc(rate=1.0e6))
        self.record(f1)
        # 30% slower: inside the default 0.8 one-sided band.
        ok = self.write("ok.json", gbench_doc(rate=0.7e6))
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, ok), 0)
        # 90% slower: below the band.
        bad = self.write("bad.json", gbench_doc(rate=0.1e6))
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, bad), 1)

    def test_rate_improvement_passes(self):
        f1 = self.write("g.json", gbench_doc(rate=1.0e6))
        self.record(f1)
        fast = self.write("fast.json", gbench_doc(rate=5.0e6))
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, fast), 0)

    def test_missing_label_fails(self):
        f1 = self.write("m.json", memnet_doc())
        self.record(f1)
        other = memnet_doc()
        other["bench"] = "bench_fig15"
        f2 = self.write("other.json", other)
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, f2), 1)

    def test_missing_counter_fails_extra_counter_does_not(self):
        f1 = self.write("g.json", gbench_doc())
        self.record(f1)
        doc = gbench_doc()
        del doc["benchmarks"][0]["events_total"]
        doc["benchmarks"][0]["new_metric"] = 7
        f2 = self.write("g2.json", doc)
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, f2), 1)

    def test_tolerance_override_applies(self):
        f1 = self.write("m.json", memnet_doc())
        self.record(f1)
        with open(self.baseline) as f:
            baseline = json.load(f)
        # Loosen completed_reads_total to a 10% band via the regex map.
        baseline["tolerances"][r"bench_fig5:completed_reads_total"] = 0.1
        with open(self.baseline, "w") as f:
            json.dump(baseline, f)
        f2 = self.write("m2.json", memnet_doc(completed=38))  # -5%
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, f2), 0)

    def test_record_merges_and_keeps_other_entries(self):
        f1 = self.write("m.json", memnet_doc())
        self.record(f1)
        other = memnet_doc(events_fired=777)
        other["bench"] = "bench_fig15"
        f2 = self.write("other.json", other)
        self.record(f2)
        with open(self.baseline) as f:
            baseline = json.load(f)
        self.assertEqual(sorted(baseline["entries"]),
                         ["bench_fig15", "bench_fig5"])
        # Re-recording one bench must not clobber the other.
        self.assertEqual(
            baseline["entries"]["bench_fig15"]["counters"]
            ["events_fired_total"], 777)

    def test_unknown_format_raises(self):
        path = self.write("odd.json", {"neither": True})
        with self.assertRaises(ValueError):
            bc.extract(path)

    def test_missing_baseline_is_error_not_crash(self):
        f1 = self.write("m.json", memnet_doc())
        self.assertEqual(
            self.run_cli("check", "--baseline",
                         os.path.join(self.dir.name, "absent.json"), f1),
            2)

    def test_v4_input_is_error_not_crash(self):
        f1 = self.write("m.json", memnet_doc())
        self.record(f1)
        old = self.write("old.json", memnet_doc(version=4))
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, old), 2)


class RepetitionTest(CliTest):
    """--benchmark_repetitions output through record and check."""

    def test_best_repetition_is_recorded_without_the_list(self):
        f1 = self.write("g.json", gbench_reps_doc())
        self.record(f1)
        with open(self.baseline) as f:
            entry = json.load(f)["entries"]["BM_EventQueue"]
        self.assertEqual(entry, {"kind": "gbench", "counters": {
            "events_per_s": 3.0e6, "events_total": 4096}})
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, f1), 0)

    def test_one_good_repetition_passes_the_rate_floor(self):
        f1 = self.write("g.json", gbench_reps_doc(rates=(1.0e6,) * 3))
        self.record(f1)
        # Two of three repetitions below the floor, the best above it.
        noisy = self.write("noisy.json",
                           gbench_reps_doc(rates=(0.1e6, 0.9e6, 0.1e6)))
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, noisy), 0)
        slow = self.write("slow.json",
                          gbench_reps_doc(rates=(0.1e6, 0.15e6, 0.1e6)))
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, slow), 1)

    def test_exact_counters_must_agree_across_repetitions(self):
        f1 = self.write("g.json", gbench_reps_doc())
        self.record(f1)
        # Repetition 0 still matches the baseline; repetition 2 drifts.
        drift = self.write("drift.json",
                           gbench_reps_doc(totals=(4096, 4096, 4097)))
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, drift), 1)
        # A counter missing from one repetition is a disagreement too.
        doc = gbench_reps_doc()
        del doc["benchmarks"][1]["events_total"]
        gap = self.write("gap.json", doc)
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, gap), 1)

    def test_record_refuses_disagreeing_repetitions(self):
        drift = self.write("drift.json",
                           gbench_reps_doc(totals=(4096, 4097, 4096)))
        self.assertEqual(
            self.run_cli("record", "--baseline", self.baseline, drift), 2)
        self.assertFalse(os.path.exists(self.baseline))

    def test_tolerance_override_covers_repetitions(self):
        f1 = self.write("g.json", gbench_reps_doc())
        self.record(f1)
        with open(self.baseline) as f:
            baseline = json.load(f)
        # A counter that scales with the iteration count, like
        # BM_PacketPoolChurn:allocs_avoided, is exempted by its band.
        baseline["tolerances"][r"^BM_EventQueue:events_total$"] = 1.0
        with open(self.baseline, "w") as f:
            json.dump(baseline, f)
        drift = self.write("drift.json",
                           gbench_reps_doc(totals=(4096, 8000, 100)))
        self.assertEqual(
            self.run_cli("check", "--baseline", self.baseline, drift), 0)


class CheckEntryTest(unittest.TestCase):
    def test_exact_band_is_two_sided(self):
        baseline = {"defaults": {"exact_rel_tol": 1e-6}}
        report = []
        # Exactly equal: ok in both directions.
        self.assertEqual(
            bc.check_entry(baseline, "b", {"x": 100}, {"x": 100}, report),
            0)
        self.assertEqual(
            bc.check_entry(baseline, "b", {"x": 100}, {"x": 101}, report),
            1)
        self.assertEqual(
            bc.check_entry(baseline, "b", {"x": 100}, {"x": 99}, report),
            1)

    def test_zero_baseline_rate_never_divides(self):
        baseline = {"defaults": {"rate_rel_tol": 0.8}}
        report = []
        self.assertEqual(
            bc.check_entry(baseline, "b", {"x_per_s": 0.0},
                           {"x_per_s": 0.0}, report), 0)

    def test_percentile_band_is_two_sided_but_loose(self):
        baseline = {"defaults": {"pctl_rel_tol": 0.05}}
        report = []
        # Within one sketch bucket (~3%): passes in both directions.
        self.assertEqual(
            bc.check_entry(baseline, "b", {"lat_p99_ps_max": 100000},
                           {"lat_p99_ps_max": 103000}, report), 0)
        self.assertEqual(
            bc.check_entry(baseline, "b", {"lat_p99_ps_max": 100000},
                           {"lat_p99_ps_max": 97000}, report), 0)
        # A 20% tail-latency swing fails either way.
        self.assertEqual(
            bc.check_entry(baseline, "b", {"lat_p99_ps_max": 100000},
                           {"lat_p99_ps_max": 120000}, report), 1)
        self.assertEqual(
            bc.check_entry(baseline, "b", {"lat_p99_ps_max": 100000},
                           {"lat_p99_ps_max": 80000}, report), 1)


if __name__ == "__main__":
    unittest.main()
