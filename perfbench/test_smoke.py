"""The benchmark's own test, at toy sizes.

    python3 perfbench/test_smoke.py        (or: python3 -m pytest perfbench)

For every workload it checks that a run emits exactly the metrics that
BENCHMARK.json names, each with its unit, and no failure; that a corrupted
pinned value is counted as a failure; and that the benchmark refuses to
run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Pin  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=180)


def smoke(workload: str, trace: int, *extra: str) -> dict:
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke", *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result: dict, declared: list) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         list(WORKLOADS))

    def test_end_to_end_metrics(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = smoke(name, 0)
                self.check_metrics(result, BENCH["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 2)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0.0)

    def test_per_layer_metrics(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = smoke(name, 1)
                self.check_metrics(result, BENCH["per_layer"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_corrupted_pin_fails(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = smoke(name, 0, "--corrupt-pin")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])

    def test_pin_ranges(self):
        self.assertIsNone(Pin("a.b", 1.0, 2.0).check({"a": {"b": 1.5}}))
        self.assertIsNotNone(Pin("a", 1.0, 2.0).check({"a": 2.5}))
        self.assertIsNotNone(Pin("a", 1.0, 2.0).check({"a": None}))
        self.assertIsNotNone(Pin("a", 1.0, 2.0).check({}))

    def test_refuses_without_sources(self):
        (ROOT / ".perfbench_out").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-",
                                     dir=ROOT / ".perfbench_out"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "trace", "--seed", "0",
                         "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
