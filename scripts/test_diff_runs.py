#!/usr/bin/env python3
"""Unit tests for diff_runs.py (stdlib unittest only).

Run directly or via ctest (test_diff_runs). The default ignore list
must skip only the host wall-clock members: a change in any simulated
rate (reads_per_sec, a flit error rate) is a difference.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "diff_runs.py")


def dump():
    """A bench JSON dump holding one run, trimmed to the members the
    tests touch."""
    return {
        "schema_version": 5,
        "bench": "diff_runs_test",
        "runs": [
            {
                "key": "mixA/star/small/aware",
                "config": {
                    "workload": "mixA",
                    "link_flit_error_rate": 0.0,
                    "faults": {"events": [{"kind": "burst",
                                           "flit_error_rate": 0.01}]},
                },
                "result": {
                    "reads_per_sec": 1.5e9,
                    "completed_reads": 600,
                    "profile": {"events_fired": 1000, "wall_s": 0.25,
                                "audit_checks_run": 0},
                },
                "host": {
                    "prof_phases": [{"path": "sim/run", "ns": 900,
                                     "count": 1}],
                    "partition_lanes": [],
                },
            }
        ],
    }


class DiffRunsTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def diff(self, a, b, *extra):
        paths = []
        for name, doc in (("a.json", a), ("b.json", b)):
            path = os.path.join(self.dir.name, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        proc = subprocess.run([sys.executable, SCRIPT, *paths, *extra],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def changed(self, edit):
        b = dump()
        edit(b["runs"][0])
        return b

    def test_identical_dumps_are_equal(self):
        self.assertEqual(self.diff(dump(), dump())[0], 0)

    def test_wall_clock_members_are_skipped(self):
        def edit(run):
            run["result"]["profile"]["wall_s"] = 9.0
            run["host"]["prof_phases"] = []
        self.assertEqual(self.diff(dump(), self.changed(edit))[0], 0)

    def test_reads_per_sec_is_compared(self):
        def edit(run):
            run["result"]["reads_per_sec"] *= 2
        rc, out = self.diff(dump(), self.changed(edit))
        self.assertEqual(rc, 1)
        self.assertIn("runs[0].result.reads_per_sec", out)

    def test_flit_error_rates_are_compared(self):
        def edit(run):
            run["config"]["link_flit_error_rate"] = 0.5
            run["config"]["faults"]["events"][0]["flit_error_rate"] = 0.5
        rc, out = self.diff(dump(), self.changed(edit))
        self.assertEqual(rc, 1)
        self.assertIn("differ in 2 field(s)", out)

    def test_simulated_profile_counters_are_compared(self):
        def edit(run):
            run["result"]["profile"]["events_fired"] += 1
        self.assertEqual(self.diff(dump(), self.changed(edit))[0], 1)

    def test_ignore_replaces_the_default(self):
        def edit(run):
            run["result"]["profile"]["audit_checks_run"] = 42
        b = self.changed(edit)
        self.assertEqual(self.diff(dump(), b)[0], 1)
        audit = (r"(^|\.)(result\.profile\.(wall_s|audit_checks_run)"
                 r"|host\.prof_phases)$")
        self.assertEqual(self.diff(dump(), b, "--ignore", audit)[0], 0)

    def test_length_and_membership_changes_are_differences(self):
        b = copy.deepcopy(dump())
        b["runs"].append(copy.deepcopy(b["runs"][0]))
        self.assertEqual(self.diff(dump(), b)[0], 1)
        c = self.changed(lambda run: run["result"].pop("completed_reads"))
        rc, out = self.diff(dump(), c)
        self.assertEqual(rc, 1)
        self.assertIn("only in first run", out)

    def test_unreadable_input_is_a_usage_error(self):
        missing = os.path.join(self.dir.name, "missing.json")
        proc = subprocess.run([sys.executable, SCRIPT, missing, missing],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
