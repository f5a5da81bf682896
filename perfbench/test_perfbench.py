"""The benchmark's own tests: smoke scale, the output contract, and the refusal
to run without simulator sources.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=cwd, timeout=900)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_smoke_runs_every_workload_cleanly(self):
        proc = run("--smoke")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = last_json(proc)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for w in self.spec["workloads"]:
            self.assertIn(f"smoke {w['name']}: virt_digest", proc.stdout)

    def check_contract(self, trace, section):
        proc = run("--workload", "basic_exchange", "--seed", "7", "--seconds", "0",
                   "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = last_json(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in self.spec[section]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)
        return proc.stdout

    def test_untraced_run_prints_end_to_end_metrics_and_host_stamp(self):
        out = self.check_contract(0, "end_to_end")
        self.assertIn("nproc=", out)
        self.assertIn("failed_op_ratio", out)

    def test_traced_run_prints_per_layer_metrics(self):
        self.check_contract(1, "per_layer")

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run("--workload", "group_alltoall", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
