#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/tests/test_perfbench.py

Runs perfbench/run.py (which builds the benchmark on first use) on every
workload with short runs and checks that:
  * the tracing decorators do not change results (same digest and
    hops_mean traced and untraced);
  * the same seed gives the same result digest across runs;
  * the exact count identities hold (scheme.draws == routing.hops,
    routing.routes == completed routes, one prefetch call per batch);
  * the per-layer split matches each workload's rationale;
  * the traced run writes its per-batch spans, consistent with its counts;
  * the printed metric names are exactly those of BENCHMARK.json;
  * bad arguments fail without printing a result.
"""

import csv
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("ball-zipf", "uniform-spread", "ball-interactive")
SEED = 7
SUMMARY = re.compile(r"routes=(\d+) digest=([0-9a-f]+) hops_mean=([0-9.]+)")


def run(workload, trace, seed=SEED, seconds=1):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    untraced = traced = None
    for line in lines:
        match = SUMMARY.search(line)
        if match is None:
            continue
        summary = (int(match.group(1)), match.group(2), match.group(3))
        if line.startswith("traced "):
            traced = summary
        elif line.startswith("routes="):
            untraced = summary
    return result, untraced, traced


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for workload in WORKLOADS:
            cls.runs[workload] = {
                "plain": run(workload, 0),
                "again": run(workload, 0),
                "traced": run(workload, 1),
            }
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def metrics(self, workload):
        result = self.runs[workload]["traced"][0]
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_results_correct(self):
        for workload, runs in self.runs.items():
            for mode, (result, _, _) in runs.items():
                with self.subTest(workload=workload, mode=mode):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_same_seed_same_digest(self):
        for workload, runs in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(runs["plain"][1], runs["again"][1])

    def test_decorators_do_not_change_results(self):
        for workload, runs in self.runs.items():
            with self.subTest(workload=workload):
                plain = runs["plain"][1]
                self.assertEqual(runs["traced"][1], plain)
                self.assertEqual(runs["traced"][2], plain)

    def test_count_identities(self):
        for workload, runs in self.runs.items():
            with self.subTest(workload=workload):
                m = self.metrics(workload)
                completed = runs["traced"][2][0]
                self.assertEqual(m["scheme.draws"], m["routing.hops"])
                self.assertEqual(m["routing.routes"], completed)
                self.assertEqual(m["oracle.prefetch_calls"], m["api.batches"])

    def test_spans_written_per_batch(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                m = self.metrics(workload)
                path = os.path.join(ROOT, ".bench_build", "perfbench",
                                    f"spans-{workload}-seed{SEED}.csv")
                with open(path) as f:
                    rows = list(csv.DictReader(f))
                self.assertEqual(len(rows), m["api.batches"])
                self.assertEqual(sum(int(r["routes"]) for r in rows),
                                 m["routing.routes"])
                self.assertEqual(sum(int(r["draws"]) for r in rows),
                                 m["scheme.draws"])
                self.assertEqual(sum(int(r["targets"]) for r in rows),
                                 m["oracle.prefetch_targets"])

    def test_layer_split_matches_rationale(self):
        spread = self.metrics("uniform-spread")
        self.assertGreater(spread["oracle.prefetch_s"],
                           0.5 * spread["driver.wall_s"])
        zipf = self.metrics("ball-zipf")
        self.assertGreater(zipf["scheme.busy_s"], 0.5 * zipf["routing.busy_s"])
        interactive = self.metrics("ball-interactive")
        self.assertEqual(interactive["parallel_bfs.sweeps"],
                         interactive["oracle.cache_misses"])

    def test_metric_names_match_benchmark_json(self):
        end_to_end = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload, runs in self.runs.items():
            with self.subTest(workload=workload):
                plain = runs["plain"][0]["metrics"]
                traced = runs["traced"][0]["metrics"]
                self.assertEqual({k: v["unit"] for k, v in plain.items()},
                                 end_to_end)
                self.assertEqual({k: v["unit"] for k, v in traced.items()},
                                 per_layer)

    def test_bad_arguments_fail_without_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "ball-zipf", "--seed", "1"]):
            with self.subTest(args=args):
                proc = subprocess.run([sys.executable, RUN, *args],
                                      capture_output=True, text=True,
                                      cwd=ROOT, timeout=60)
                self.assertNotEqual(proc.returncode, 0)
                self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
