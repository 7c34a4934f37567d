#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

* the estimator and span-recorder unit tests (perfbench_tests);
* a smoke run of every workload at minimal length, untraced and traced:
  every metric BENCHMARK.json names is present with its unit, and no
  operation failed;
* run.py's table of the per-layer metrics each workload measures covers
  BENCHMARK.json, and a traced result that leaves one out is refused;
* fig3_sweep's accuracy figures repeat exactly and match what
  fig3_utilization and headline_geomeans print;
* serve_mixed, which BENCHMARK.json does not list, still runs clean;
* traced self times are non-negative and sum to their root span;
* without the simulator sources next to it, the benchmark exits nonzero
  and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = os.path.join(ROOT, ".bench_build", "test")


def bench(*args, timeout=300):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT, check=False, timeout=timeout)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build("all"):
            raise RuntimeError("perfbench does not build")
        os.makedirs(SCRATCH, exist_ok=True)

    def test_estimators(self):
        proc = subprocess.run([os.path.join(run.BUILD, "perfbench_tests")],
                              stdout=subprocess.PIPE, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def smoke(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--min-units", "4")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            if not trace:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
        if trace:
            self.assertEqual(result["metrics"]["verify.error_findings"]["value"], 0)
        return result

    def test_smoke_every_workload(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.smoke(workload, trace)

    def test_deterministic_figures_match_the_paper_benches(self):
        # What fig3_utilization and headline_geomeans print: 299 543 cycles
        # per pass (the sum of the table's cycle column), a largest Fig. 3
        # delta of 0.064 (box3d1r Base) and a largest claim delta of -1.9
        # (energy efficiency of Chaining+ vs Base-), at printed precision.
        runs = [self.smoke("fig3_sweep", 1)["metrics"] for _ in range(2)]
        for name in ("sim_kcycles", "paper_err_pp", "claim_err_pp"):
            self.assertEqual(runs[0][name]["value"], runs[1][name]["value"], name)
        metrics = runs[0]
        self.assertEqual(metrics["sim_kcycles"]["value"], 299.543)
        self.assertEqual(round(metrics["paper_err_pp"]["value"], 1), 6.4)
        self.assertEqual(round(metrics["claim_err_pp"]["value"], 1), 1.9)

    def test_layer_table_covers_the_declared_metrics(self):
        declared = {m["name"] for m in SPEC["per_layer"]}
        listed = set(run.COMMON_LAYER_METRICS)
        for workload in WORKLOADS:
            names = run.LAYER_METRICS[workload]
            self.assertEqual(len(names), len(set(names)), workload)
            self.assertLessEqual(set(names), declared, workload)
            listed |= set(names)
        self.assertEqual(listed, declared)

    def test_missing_layer_metric_is_refused(self):
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            measured = run.COMMON_LAYER_METRICS + run.LAYER_METRICS[workload]
            raw = {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": {n: {"value": 1.0, "unit": units[n]} for n in measured}}
            with self.subTest(workload=workload):
                self.assertIsNotNone(run.check_result(SPEC, raw, workload, True))
                for name in (measured[0], run.LAYER_METRICS[workload][-1]):
                    partial = dict(raw, metrics={k: v for k, v in raw["metrics"].items()
                                                 if k != name})
                    self.assertIsNone(run.check_result(SPEC, partial, workload, True), name)
                other = next(n for n in units if n not in measured)
                extra = dict(raw, metrics=dict(raw["metrics"],
                                               **{other: {"value": 1.0, "unit": units[other]}}))
                self.assertIsNone(run.check_result(SPEC, extra, workload, True), other)

    def test_serve_mixed_still_runs(self):
        # serve_mixed is not a BENCHMARK.json workload (README.md), so run.py
        # does not run it; the binary still must, with every check passing.
        for trace, metric in (("0", "units_per_s"), ("1", "serve.hit_ms.p50")):
            with self.subTest(trace=trace):
                proc = subprocess.run([run.BINARY, "--workload", "serve_mixed", "--seed", "5",
                                       "--seconds", "1", "--trace", trace, "--min-units", "4"],
                                      stdout=subprocess.PIPE, text=True, check=False,
                                      timeout=180)
                self.assertEqual(proc.returncode, 0)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["metrics"][metric]["value"], 0)

    def test_traced_self_times_sum_to_root(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                path = os.path.join(SCRATCH, f"spans_{workload}.ndjson")
                proc = bench("--workload", workload, "--seed", "2", "--seconds", "1",
                             "--trace", "1", "--min-units", "4", "--spans", path)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                with open(path, encoding="utf-8") as f:
                    spans = {s["id"]: s for s in map(json.loads, f)}
                self.assertTrue(spans)
                subtree = {}
                for s in spans.values():
                    self.assertGreaterEqual(s["self_ns"], 0, s)
                    self.assertLessEqual(s["self_ns"], s["end_ns"] - s["start_ns"], s)
                    root = s
                    while root["parent"] != 0:
                        root = spans[root["parent"]]
                    self.assertEqual(s["request"], root["id"])
                    subtree[root["id"]] = subtree.get(root["id"], 0) + s["self_ns"]
                for rid, total in subtree.items():
                    r = spans[rid]
                    self.assertEqual(total, r["end_ns"] - r["start_ns"], r)

    def test_fails_without_the_simulator_sources(self):
        lone = os.path.join(SCRATCH, "lone")
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              cwd=lone, check=False, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)
        shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
