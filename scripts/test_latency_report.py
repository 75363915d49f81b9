#!/usr/bin/env python3
"""Unit tests for latency_report.py (stdlib unittest only).

Run directly or via ctest (test_latency_report). The key regression
guarded here: feeding the report a run without latency data (a record
resumed from a journal older than the observatory, or a stats dump
predating it) must produce a clear one-line diagnostic and exit code
1, never a KeyError traceback.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import latency_report as lr


def component(samples=40, base_ps=100000):
    return {
        "samples": samples,
        "sum_ps": base_ps * samples,
        "p50_ps": base_ps,
        "p90_ps": 2 * base_ps,
        "p99_ps": 3 * base_ps,
        "p999_ps": 4 * base_ps,
        "max_ps": 5 * base_ps,
    }


def bench_doc(enabled=True, version=5, keys=("star/aware",)):
    runs = []
    for i, key in enumerate(keys):
        lat = {
            "enabled": enabled,
            "wake_stall_s": 0.5,
            "retrain_stall_s": 0.25,
            "queue_peak": 9,
        }
        for comp in lr.COMPONENTS:
            lat[comp] = component(base_ps=100000 * (i + 1))
        runs.append({"key": key, "result": {"latency": lat}})
    return {"schema_version": version, "bench": "bench_fig15",
            "runs": runs}


def stats_doc():
    doc = {}
    for comp in lr.COMPONENTS:
        for field, value in component().items():
            doc["net.lat.%s.%s" % (comp, field)] = value
    doc["link0.wake_stall_s"] = 0.125
    doc["link1.retrain_stall_s"] = 0.5
    doc["link1.queue_peak"] = 17
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
        """Returns (exit code, stdout, stderr). A traceback escaping
        main() fails the test by propagating out of the call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = lr.main(["latency_report.py"] + list(argv))
        return rc, out.getvalue(), err.getvalue()

    def test_bench_json_renders_one_table_per_run(self):
        rc, out, err = self.run_main(self.write(bench_doc()))
        self.assertEqual(rc, 0, err)
        self.assertIn("star/aware", out)
        self.assertIn("end_to_end", out)
        self.assertIn("stall attribution", out)

    def test_pre_observatory_record_is_clear_error_not_traceback(self):
        doc = bench_doc(enabled=False)
        # Such runs still carry zeroed sketches; blank them too so a
        # regression back to KeyError is caught either way.
        for run in doc["runs"]:
            for comp in lr.COMPONENTS:
                del run["result"]["latency"][comp]
        rc, out, err = self.run_main(self.write(doc))
        self.assertEqual(rc, 1)
        self.assertIn("written before the latency observatory", err)
        self.assertNotIn("Traceback", err)

    def test_missing_latency_object_is_clear_error(self):
        doc = bench_doc()
        del doc["runs"][0]["result"]["latency"]
        rc, out, err = self.run_main(self.write(doc))
        self.assertEqual(rc, 1)
        self.assertIn("no latency object", err)

    def test_old_schema_version_is_rejected(self):
        rc, out, err = self.run_main(self.write(bench_doc(version=4)))
        self.assertEqual(rc, 1)
        self.assertIn("schema_version 4 is not 5", err)

    def test_top_keeps_highest_p999_runs(self):
        doc = bench_doc(keys=("low", "high"))
        rc, out, err = self.run_main("--top", "1", self.write(doc))
        self.assertEqual(rc, 0, err)
        self.assertIn("high", out)
        self.assertNotIn("\nlow\n", out)
        self.assertIn("1 below --top cutoff not shown", out)

    def test_stats_json_renders_table(self):
        rc, out, err = self.run_main(self.write(stats_doc()))
        self.assertEqual(rc, 0, err)
        self.assertIn("latency decomposition", out)
        self.assertIn("queue peak 17", out)

    def test_stats_json_without_observatory_is_clear_error(self):
        doc = stats_doc()
        # A dump predating the observatory simply lacks the net.lat.*
        # scope; everything else is still present.
        for key in [k for k in doc if k.startswith("net.lat.")]:
            del doc[key]
        rc, out, err = self.run_main(self.write(doc))
        self.assertEqual(rc, 1)
        self.assertIn("predates the latency observatory", err)

    def test_bad_json_is_clear_error(self):
        path = os.path.join(self.dir.name, "broken.json")
        with open(path, "w") as f:
            f.write("{not json")
        rc, out, err = self.run_main(path)
        self.assertEqual(rc, 1)
        self.assertIn("broken.json", err)


if __name__ == "__main__":
    unittest.main()
