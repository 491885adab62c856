#!/usr/bin/env python3
"""The benchmark's own tests: a short smoke run of every workload through
every check, determinism of the simulated digest, and the checks' ability to
fail.

    python3 perfbench/tests/test_perfbench.py

Builds perfbench first (as perfbench/run.py does). Takes about a minute.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

SEED = 1


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.golden = run.load_golden()
        cls.runs = {}

    def smoke(self, workload, trace=0, seed=SEED):
        """One smoke-size run (cached): two rounds, plus fleet_step's check round."""
        key = (workload, trace, seed)
        if key not in self.runs:
            self.runs[key] = run.run_binary(self.binary, workload, seed, 0, trace, smoke=True)
        return self.runs[key]

    def test_smoke_runs_pass_every_check(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    records = self.smoke(workload, trace)
                    result, lines = run.summarize(records, workload, SEED, trace, True,
                                                  self.golden)
                    self.assertTrue(result["correct"], "\n".join(lines))
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertNotIn("no recorded digest", "\n".join(lines))
                    specs = run.PER_LAYER if trace else run.END_TO_END
                    self.assertEqual(list(result["metrics"]), list(specs))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], specs[name][0])
                    if not trace:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)
                    self.assertEqual(json.loads(json.dumps(result)), result)
                    # Every round checkpointed: saved, restored, verified.
                    for r in records["round"]:
                        self.assertGreaterEqual(r["checkpoints"], 1)
                        self.assertGreater(r["snapshot_bytes"], 0)

    def test_digest_is_deterministic(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = run.run_binary(self.binary, workload, SEED, 0, 0, smoke=True)
                second = self.smoke(workload, 0)
                self.assertEqual(first["round"][0]["digest"], second["round"][0]["digest"])

    def test_traced_rounds_match_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                rounds = self.smoke(workload, 1)["round"]
                self.assertEqual({r["traced"] for r in rounds}, {False, True})
                self.assertEqual(len({r["digest"] for r in rounds}), 1)

    def test_fleet_digest_same_at_one_and_two_threads(self):
        records = self.smoke("fleet_step")
        self.assertEqual(records["round"][0]["fleet_threads"], 1)
        self.assertEqual(records["check"][0]["fleet_threads"], 2)
        self.assertEqual(records["check"][0]["digest"], records["round"][0]["digest"])

    def test_seeds_change_the_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                other = self.smoke(workload, seed=SEED + 1)
                self.assertNotEqual(other["round"][0]["digest"],
                                    self.smoke(workload)["round"][0]["digest"])

    def test_checks_can_fail(self):
        records = self.smoke("merge_churn")
        wrong_golden = copy.deepcopy(self.golden)
        wrong_golden["smoke"]["merge_churn"][str(SEED)] = "0" * 16
        result, _ = run.summarize(records, "merge_churn", SEED, 0, True, wrong_golden)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

        drifted = copy.deepcopy(records)
        drifted["round"][1]["digest"] = "0" * 16
        result, _ = run.summarize(drifted, "merge_churn", SEED, 0, True, self.golden)
        self.assertEqual(result["failed"], 1)

        fleet = copy.deepcopy(self.smoke("fleet_step"))
        fleet["check"][0]["digest"] = "0" * 16
        result, _ = run.summarize(fleet, "fleet_step", SEED, 0, True, self.golden)
        self.assertEqual(result["failed"], 1)

        in_round = copy.deepcopy(records)
        in_round["round"][0]["failed"] = 3
        result, _ = run.summarize(in_round, "merge_churn", SEED, 0, True, self.golden)
        self.assertEqual(result["failed"], 3)

    def test_traced_run_accounts_for_the_round(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            records = run.run_binary(self.binary, "merge_churn", SEED, 0, 1, smoke=True,
                                     trace_out=path)
            with open(path) as f:
                dump = json.load(f)
        self.assertEqual(dump["fields"], ["layer", "parent", "run", "weight", "start_ns",
                                          "end_ns"])
        self.assertIn("kernel.fault_access", dump["layers"])
        self.assertTrue(dump["spans"])
        metrics = run.per_layer(records)
        self.assertGreaterEqual(metrics["trace.coverage_pct"], 90.0)
        self.assertGreater(metrics["kernel.fault_access_samples"], 0)

    def test_refuses_vusion_overrides(self):
        env = dict(os.environ, VUSION_SCAN_STREAMING="0")
        proc = subprocess.run([self.binary, "--workload", "idle_scan", "--seed", "1",
                               "--seconds", "0", "--trace", "0", "--smoke"],
                              env=env, capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("VUSION_SCAN_STREAMING", proc.stderr)
        self.assertEqual(proc.stdout.strip().splitlines()[-1:], [])

    def test_benchmark_json_matches_run_py(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            spec = json.load(f)
        listed = [w["name"] for w in spec["workloads"]]
        self.assertEqual(listed, [w for w in run.WORKLOADS if w in listed])
        self.assertEqual(set(run.WORKLOADS) - set(listed), {"idle_scan"})
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
