"""Smoke test of the benchmark itself, on reduced size ranges.

Usage, from the root of a checkout: python3 perfbench/smoke.py

Checks that every workload runs, passes its correctness gates and emits
exactly the metrics that BENCHMARK.json declares, with their units; that a
second seed reproduces the verdict digest; that a wrong expected digest is
counted as a failed op; that the predicted zero-call layers are zero; that
the quantile estimator matches known values; and that the benchmark refuses
to run without the superalg sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from run import (CLI_WORKLOAD, OUT, ROOT, VERIFY_WORKLOADS, WORKLOADS, quantile,
                 result_object, run_workload)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class SmokeTest(unittest.TestCase):
    def check_schema(self, result: dict, trace: bool) -> dict:
        final = result_object(result, trace)
        self.assertEqual(set(final), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(final["correct"], result["problems"])
        self.assertGreaterEqual(final["attempted"], 1)
        want = declared("per_layer" if trace else "end_to_end")
        self.assertEqual({k: m["unit"] for k, m in final["metrics"].items()}, want)
        for metric in final["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))
        return final["metrics"]

    def test_quantile(self):
        self.assertAlmostEqual(quantile([0.25] * 7, 0.9), 0.25)
        values = [float(i) for i in range(101)]
        self.assertAlmostEqual(quantile(values, 0.5), 50.0)
        self.assertAlmostEqual(quantile(values, 0.9), 90.0, delta=0.5)

    def test_declared_workloads_match(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))

    def test_every_workload_reduced(self):
        for name in WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    metrics = self.check_schema(
                        run_workload(name, 0, 1, trace, reduced=True), trace)
                    if not trace:
                        for key in ("setup_s", "run_s", "op_p50_s", "op_tail_s",
                                    "peak_rss_mb"):
                            self.assertGreater(metrics[key]["value"], 0, key)
                    elif name == "derivation-sweep":
                        self.assertEqual(
                            metrics["exactmath.nilpotent_jordan_type.calls"]["value"], 0)
                    elif name == "nilpotent-charseq":
                        self.assertEqual(metrics["exactmath.sparse_kernel.calls"]["value"], 0)
                        self.assertGreater(
                            metrics["exactmath.nilpotent_jordan_type.calls"]["value"], 0)
                    elif name == CLI_WORKLOAD:
                        self.assertGreater(metrics["cli.import_s"]["value"], 0)
                        self.assertGreater(metrics["core.sdf_loads.calls"]["value"], 0)

    def test_digest_gate(self):
        name = "nilpotent-charseq"
        first = run_workload(name, 0, 1, False, reduced=True)
        expected = {"ops": first["digests"]}
        again = run_workload(name, 12345, 1, False, reduced=True, expected=expected)
        self.assertEqual(again["digest"], first["digest"])
        self.assertEqual(again["failed"], 0, again["problems"])

        wrong = {"ops": ["0" * 16] + first["digests"][1:]}
        tampered = run_workload(name, 0, 1, False, reduced=True, expected=wrong)
        self.assertGreaterEqual(tampered["failed"], 1)
        self.assertFalse(result_object(tampered, False)["correct"])

    def test_expected_digests_cover_full_run(self):
        expected = json.loads((Path(__file__).parent / "expected.json").read_text())
        self.assertEqual(set(expected), set(VERIFY_WORKLOADS))
        self.assertEqual([expected[w]["reports"] for w in VERIFY_WORKLOADS],
                         [43, 24, 339])
        for entry in expected.values():
            self.assertEqual(len(entry["ops"]), entry["reports"])

    def test_refuses_without_sources(self):
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(Path(__file__).parent, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
