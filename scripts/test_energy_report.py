#!/usr/bin/env python3
"""Unit tests for energy_report.py (stdlib unittest only).

Run directly or via ctest (test_energy_report). Covers bench --json
and --stats-json dumps (both bench JSON), the --top cutoff, and the
clear-diagnostic paths for runs without energy data (records resumed
from journals older than the observatory) and old schemas.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_json
import energy_report as er


def sketch(samples=14, base=1000):
    return {"samples": samples, "sum_ps": base * samples, "p50_ps": base,
            "p90_ps": 2 * base, "p99_ps": 3 * base, "p999_ps": 4 * base,
            "max_ps": 5 * base}


def energy_obj(enabled=True, scale=1.0):
    """A bench-JSON result.energy object."""
    energy = {
        "enabled": enabled,
        "tx_j": 0.5 * scale,
        "retrain_j": 0.01 * scale,
        "idle_mode_j": [1.0 * scale, 0.25 * scale, 0, 0, 0, 0, 0, 0],
        "sleep_j": 0.05 * scale,
        "wake_j": 0.02 * scale,
        "serdes_leak_j": 0.3 * scale,
        "router_j": 0.1 * scale,
        "dram_leak_j": 0.6 * scale,
        "dram_dyn_j": 0.4 * scale,
    }
    energy["idle_io_j"] = (1.25 * scale + energy["sleep_j"]
                           + energy["wake_j"])
    energy["active_io_j"] = energy["tx_j"] + energy["retrain_j"]
    energy["utilization_ppm"] = sketch()
    energy["occupancy"] = sketch(base=3)
    return energy


def bench_doc(enabled=True, version=5, keys=("star/aware",)):
    runs = []
    for i, key in enumerate(keys):
        runs.append({"key": key,
                     "result": {"energy": energy_obj(
                         enabled=enabled, scale=float(i + 1))}})
    return {"schema_version": version, "bench": "bench_fig5",
            "runs": runs}


def stats_doc():
    """A memnet_run --stats-json dump: bench JSON holding one run, plus
    the components object the report does not read."""
    doc = bench_doc()
    doc["bench"] = "stats"
    doc["components"] = {"links": [], "modules": [],
                         "event_queue": {"pending": 0},
                         "net": {"injected_packets": 0}}
    return doc


class ReportTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, doc):
        path = os.path.join(self.dir.name, "in.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_main(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = er.main(["energy_report.py"] + list(argv))
        return rc, out.getvalue(), err.getvalue()

    def test_bench_json_renders_share_table(self):
        rc, out, err = self.run_main(self.write(bench_doc()))
        self.assertEqual(rc, 0, err)
        self.assertIn("star/aware", out)
        for cause in er.CAUSES:
            self.assertIn(cause, out)
        self.assertIn("io split", out)
        self.assertIn("link utilization", out)
        self.assertIn("queue occupancy", out)
        # The leaf causes are disjoint and exhaustive, so their shares
        # must sum to ~100%.
        attr = bench_json.attribution(energy_obj())
        shares = sum(100.0 * attr[c] / attr["total"]
                     for c in er.CAUSES)
        self.assertAlmostEqual(shares, 100.0, places=6)

    def test_pre_observatory_record_is_clear_error_not_traceback(self):
        doc = bench_doc(enabled=False)
        rc, out, err = self.run_main(self.write(doc))
        self.assertEqual(rc, 1)
        self.assertIn("written before the energy observatory", err)
        self.assertNotIn("Traceback", err)

    def test_missing_energy_object_is_clear_error(self):
        doc = bench_doc()
        del doc["runs"][0]["result"]["energy"]
        rc, out, err = self.run_main(self.write(doc))
        self.assertEqual(rc, 1)
        self.assertIn("no energy object", err)

    def test_old_schema_version_is_rejected(self):
        rc, out, err = self.run_main(self.write(bench_doc(version=4)))
        self.assertEqual(rc, 1)
        self.assertIn("schema_version 4 is not 5", err)

    def test_top_keeps_highest_total_runs(self):
        doc = bench_doc(keys=("low", "high"))  # scale 1.0 vs 2.0
        rc, out, err = self.run_main("--top", "1", self.write(doc))
        self.assertEqual(rc, 0, err)
        self.assertIn("high", out)
        self.assertNotIn("\nlow\n", out)
        self.assertIn("1 below --top cutoff not shown", out)

    def test_zero_total_renders_placeholder(self):
        doc = bench_doc()
        energy = doc["runs"][0]["result"]["energy"]
        for key in energy:
            if key.endswith("_j"):
                energy[key] = [0.0] * 8 if key == "idle_mode_j" else 0.0
        rc, out, err = self.run_main(self.write(doc))
        self.assertEqual(rc, 0, err)
        self.assertIn("no energy accrued", out)

    def test_stats_json_renders_table(self):
        rc, out, err = self.run_main(self.write(stats_doc()))
        self.assertEqual(rc, 0, err)
        self.assertIn("energy report: stats (1 run(s))", out)
        self.assertIn("dram_dyn", out)

    def test_stats_json_without_observatory_is_clear_error(self):
        doc = stats_doc()
        del doc["runs"][0]["result"]["energy"]
        rc, out, err = self.run_main(self.write(doc))
        self.assertEqual(rc, 1)
        self.assertIn("no energy object", err)
        self.assertNotIn("Traceback", err)

    def test_flat_stats_dump_is_clear_error(self):
        # The named-stat dumps older builds wrote: no schema_version.
        rc, out, err = self.run_main(self.write({"net.energy.tx_j": 1.0}))
        self.assertEqual(rc, 1)
        self.assertIn("schema_version None is not 5", err)


if __name__ == "__main__":
    unittest.main()
