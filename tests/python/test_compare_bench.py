#!/usr/bin/env python3
"""Unit tests for scripts/compare_bench.py (run as a ctest entry).

Builds synthetic nav-bench-trajectory-v1 documents and checks the exit code
and report for the cases the CI gate depends on: no change, improvement,
strict regression, loose (wall-clock) deltas, added series, removed series,
throughput direction, schedule counts, and merged-document handling.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent.parent / "scripts"))
import compare_bench  # noqa: E402


def make_doc(cells, bench="e1_test", loose=("seconds",), quick=True):
    return {
        "schema": "nav-bench-trajectory-v1",
        "bench": bench,
        "id": bench,
        "quick": quick,
        "group_by": ["scheme", "family"],
        "key_fields": ["section", "family", "scheme", "n"],
        "metrics": ["greedy_diameter", "mean_steps"],
        "loose_metrics": list(loose),
        "cells": cells,
    }


def cell(family="path", scheme="uniform", n=1024, diam=40.0, steps=28.0,
         seconds=0.5, **extra):
    out = {"section": "S", "family": family, "scheme": scheme, "n": n,
           "greedy_diameter": diam, "mean_steps": steps, "seconds": seconds}
    out.update(extra)
    return out


class CompareBenchTest(unittest.TestCase):
    def run_compare(self, base_doc, cur_doc, *extra_args):
        with tempfile.TemporaryDirectory() as scratch:
            base = pathlib.Path(scratch) / "base.json"
            cur = pathlib.Path(scratch) / "cur.json"
            base.write_text(json.dumps(base_doc))
            cur.write_text(json.dumps(cur_doc))
            argv = sys.argv
            sys.argv = ["compare_bench.py", str(base), str(cur), *extra_args]
            stdout = io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = compare_bench.main()
            finally:
                sys.argv = argv
            return code, stdout.getvalue()

    def test_no_change_passes(self):
        doc = make_doc([cell(), cell(scheme="ball", diam=20.0)])
        code, out = self.run_compare(doc, doc)
        self.assertEqual(code, 0)
        self.assertIn("no regression", out)

    def test_wallclock_noise_is_informational(self):
        base = make_doc([cell(seconds=0.5)])
        cur = make_doc([cell(seconds=5.0)])  # 10x slower, loose metric
        code, out = self.run_compare(base, cur)
        self.assertEqual(code, 0)
        self.assertNotIn("REGRESSIONS", out)

    def test_wallclock_gated_when_loose_rel_set(self):
        base = make_doc([cell(seconds=0.5)])
        cur = make_doc([cell(seconds=5.0)])
        code, out = self.run_compare(base, cur, "--loose-rel", "0.5")
        self.assertEqual(code, 1)
        self.assertIn("seconds", out)

    def test_hop_count_regression_fails(self):
        base = make_doc([cell(diam=40.0)])
        cur = make_doc([cell(diam=44.0)])  # +10% hops
        code, out = self.run_compare(base, cur)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSIONS", out)
        self.assertIn("greedy_diameter", out)

    def test_hop_count_improvement_passes_and_is_reported(self):
        base = make_doc([cell(diam=40.0)])
        cur = make_doc([cell(diam=30.0)])
        code, out = self.run_compare(base, cur)
        self.assertEqual(code, 0)
        self.assertIn("improvements", out)

    def test_ulp_noise_within_strict_threshold_passes(self):
        base = make_doc([cell(diam=40.0)])
        cur = make_doc([cell(diam=40.0 * (1 + 1e-9))])
        code, _ = self.run_compare(base, cur)
        self.assertEqual(code, 0)

    def test_throughput_direction_higher_is_better(self):
        base = make_doc([cell(routes_per_sec=1000.0)],
                        loose=("seconds", "routes_per_sec"))
        cur = make_doc([cell(routes_per_sec=100.0)],
                       loose=("seconds", "routes_per_sec"))
        code, out = self.run_compare(base, cur, "--loose-rel", "0.5")
        self.assertEqual(code, 1)
        self.assertIn("routes_per_sec", out)
        # And the reverse (faster) direction passes the same gate.
        code, _ = self.run_compare(cur, base, "--loose-rel", "0.5")
        self.assertEqual(code, 0)

    def test_schedule_count_change_fails_in_both_directions(self):
        base = make_doc([cell(bottom_up_levels=448.0)])
        for changed in (447.0, 449.0):
            cur = make_doc([cell(bottom_up_levels=changed)])
            code, out = self.run_compare(base, cur)
            self.assertEqual(code, 1, changed)
            self.assertIn("REGRESSIONS", out)
            self.assertIn("bottom_up_levels", out)
        code, _ = self.run_compare(base, base)
        self.assertEqual(code, 0)

    def test_added_series_is_informational(self):
        base = make_doc([cell()])
        cur = make_doc([cell(), cell(scheme="ball", diam=20.0)])
        code, out = self.run_compare(base, cur)
        self.assertEqual(code, 0)
        self.assertIn("series added in current (1)", out)

    def test_removed_series_fails_unless_allowed(self):
        base = make_doc([cell(), cell(scheme="ball", diam=20.0)])
        cur = make_doc([cell()])
        code, out = self.run_compare(base, cur)
        self.assertEqual(code, 1)
        self.assertIn("series missing from current (1)", out)
        code, _ = self.run_compare(base, cur, "--allow-missing")
        self.assertEqual(code, 0)

    def test_added_metric_in_shared_series_is_informational(self):
        base = make_doc([cell()])
        cur = make_doc([cell(extra_metric=5.0)])
        code, out = self.run_compare(base, cur)
        self.assertEqual(code, 0)
        self.assertNotIn("REGRESSIONS", out)

    def test_removed_metric_in_shared_series_fails(self):
        base = make_doc([cell(extra_metric=3.0)])
        cur = make_doc([cell()])
        code, out = self.run_compare(base, cur)
        self.assertEqual(code, 1)
        self.assertIn("extra_metric", out)

    def test_merged_documents_align_by_bench(self):
        merged_base = {"schema": "nav-bench-trajectory-v1", "merged": True,
                       "benches": [make_doc([cell()], bench="e1_test"),
                                   make_doc([cell(diam=9.0)],
                                            bench="e8_test")]}
        merged_cur = {"schema": "nav-bench-trajectory-v1", "merged": True,
                      "benches": [make_doc([cell()], bench="e1_test"),
                                  make_doc([cell(diam=9.9)],
                                           bench="e8_test")]}
        code, out = self.run_compare(merged_base, merged_cur)
        self.assertEqual(code, 1)
        self.assertIn("e8_test", out)
        self.assertNotIn("e1_test[", out.split("REGRESSIONS")[1])

    def test_schema_mismatch_is_a_hard_error(self):
        with self.assertRaises(SystemExit):
            self.run_compare({"schema": "something-else"}, make_doc([cell()]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
