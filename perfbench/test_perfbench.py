#!/usr/bin/env python3
"""Self-tests of the benchmark: python3 perfbench/test_perfbench.py

Builds agbench through run.py and runs every workload briefly. Checks:
  - every op is correct and the result carries exactly the metrics
    BENCHMARK.json names, plus the machine/build record;
  - the timing metrics come from the eighth of the run's windows with
    the highest median latency;
  - the exact counters repeat bit for bit across two traced runs;
  - cold_start_agc compiles no plan and allocates nothing while loading,
    cold_start_pym compiles plans;
  - the traced breakdown: `unattributed` is the op's wall time minus its
    layer rows, so rows plus `unattributed` equal the wall by
    construction. What can fail, and is checked: every row is >= 0 (some
    rows are differences of separately timed calls), the rows overshoot
    the wall by at most OVERSHOOT_TOLERANCE of it, `unattributed` stays
    below UNATTRIBUTED_MAX of it, and on rnn_serve one in-process
    ServerCore::Call takes at least its mean queue wait.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"
# The rows may overshoot the op's wall by at most this share of it
# (rows taken from separately timed calls).
OVERSHOOT_TOLERANCE = 0.02
UNATTRIBUTED_MAX = 0.5
# Share of a run's windows the timing metrics come from (harness.h).
KEPT_SHARE = 0.125

# Counters that must repeat exactly, per workload.
EXACT = {
    "beam_decode": ["exec.kernels_per_run", "exec.while_iters_per_run",
                    "tensor.allocs_per_run"],
    "rnn_serve": ["serve.failed", "serve.rejected_full"],
    "cold_start_pym": ["graph.nodes_out", "exec.plans_compiled",
                       "exec.kernels_per_run"],
    "cold_start_agc": ["exec.plans_compiled", "artifact.load_allocs",
                       "exec.kernels_per_run"],
}
MACHINE_INFO = ["nproc", "cpu", "build_type", "kernel_backend",
                "buffer_pool_cap_mb", "seed", "pinned_cpu"]


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    lines = proc.stdout.strip().splitlines()
    info = json.loads(next(l for l in lines if l.startswith("info "))[5:])
    return json.loads(lines[-1]), info


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.end_to_end = {m["name"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def check_result(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), names)

    def test_end_to_end(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result, info = run(workload, 0)
                self.check_result(result, self.end_to_end)
                for key in MACHINE_INFO + ["tail_percentile", "tail_samples"]:
                    self.assertIn(key, info)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

                w = info["windows"]
                self.assertEqual(w["kept"], math.ceil(KEPT_SHARE * w["run"]))
                medians = w["median_us_kept_first"]
                self.assertEqual(len(medians), w["run"])
                kept, rest = medians[:w["kept"]], medians[w["kept"]:]
                if rest:
                    self.assertGreaterEqual(min(kept), max(rest))

    def test_traced(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                first, info = run(workload, 1)
                second, _ = run(workload, 1)
                self.check_result(first, self.per_layer)
                self.check_result(second, self.per_layer)
                for name in EXACT[workload]:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

                b = info["breakdown"]
                wall = b["wall_us"]
                for name, us in b["rows"].items():
                    self.assertGreaterEqual(us, 0, name)
                self.assertGreaterEqual(b["unattributed_us"], -OVERSHOOT_TOLERANCE * wall)
                self.assertLessEqual(b["unattributed_us"], UNATTRIBUTED_MAX * wall)

                m = {k: v["value"] for k, v in first["metrics"].items()}
                if workload == "rnn_serve":
                    self.assertGreaterEqual(m["serve.core_call_us"],
                                            m["serve.queue_wait_us"])
                if workload == "cold_start_agc":
                    self.assertEqual(m["exec.plans_compiled"], 0)
                    self.assertEqual(m["artifact.load_allocs"], 0)
                if workload == "cold_start_pym":
                    self.assertGreater(m["exec.plans_compiled"], 0)


if __name__ == "__main__":
    unittest.main()
