"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Every workload runs untraced and traced; every metric named in
BENCHMARK.json must be emitted with its unit, every command must pass its
output checks, and the traced round must reproduce the untraced round's
bytes (the worker compares them and counts a mismatch as a failure).  A
directory holding only the benchmark must make it fail without a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(root: Path, workload: str, trace: int, small: bool = True):
    argv = [sys.executable, "perfbench/run.py", f"--workload={workload}", "--seed=7",
            "--seconds=1", f"--trace={trace}"]
    if small:
        argv.append("--small")
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def check_run(self, workload: str, trace: int):
        proc = run_benchmark(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], report["failures"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = self.spec["per_layer"] if trace else self.spec["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            emitted = result["metrics"][metric["name"]]
            self.assertEqual(emitted["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(emitted["value"], (int, float), metric["name"])
        self.assertEqual(report["metrics"]["error_rate"]["value"], 0)
        if trace:
            # one untraced and one traced round of the same list
            self.assertEqual(result["attempted"], 2 * report["commands_per_round"])

    def test_workloads(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_fails_without_sources(self):
        bare = ROOT / ".perfbench_tmp" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in self.spec["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_benchmark(bare, self.spec["workloads"][0]["name"], 0, small=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
