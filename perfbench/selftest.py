#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Quick runs of every workload, untraced and traced, must print every metric
that BENCHMARK.json declares, with its unit; a deliberately wrong reference
value must be counted as a failed op; and without the funcobs sources the
benchmark must exit non-zero without printing a result.  No timing value is
asserted.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_lines(lines: list[str]) -> dict[str, str]:
    """name -> unit, from the report's `  <name> <value> <unit> ...` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and line.startswith("  ") and not parts[0].isupper():
            out[parts[0]] = parts[2]
    return out


class Benchmark(unittest.TestCase):
    def _run(self, *args, cwd=ROOT, script=HERE / "run.py"):
        return subprocess.run(
            [sys.executable, str(script), *args],
            capture_output=True, text=True, cwd=cwd, timeout=600,
        )

    def test_every_metric_printed_with_its_unit(self):
        bench = _bench()
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[kind]}
            for wl in bench["workloads"]:
                with self.subTest(workload=wl["name"], trace=trace):
                    res = self._run("--workload", wl["name"], "--quick", "--trace", str(trace))
                    self.assertEqual(res.returncode, 0, res.stderr)
                    lines = res.stdout.splitlines()
                    final = json.loads(lines[-1])
                    self.assertEqual(set(final), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(final["correct"])
                    self.assertEqual(final["failed"], 0)
                    self.assertGreaterEqual(final["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in final["metrics"].items()}, want)
                    printed = _metric_lines(lines)
                    for name, unit in want.items():
                        self.assertEqual(printed.get(name), unit, name)
                    self.assertEqual(printed.get("failed_ratio"), "1")

    def test_wrong_reference_counts_as_failure(self):
        wrong = dict(workloads.REFERENCE["batch-reactor"], candidate=2)
        out = io.StringIO()
        with mock.patch.dict(workloads.REFERENCE, {"batch-reactor": wrong}):
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "small-builtins", "--quick"])
        self.assertEqual(code, 0)
        lines = out.getvalue().splitlines()
        final = json.loads(lines[-1])
        self.assertFalse(final["correct"])
        # analyze-batch and demo-batch both check the batch-reactor verdicts.
        self.assertEqual(final["failed"], 2)
        ratio = next(line for line in lines if line.split()[:1] == ["failed_ratio"])
        self.assertAlmostEqual(float(ratio.split()[1]), 2 / final["attempted"], places=5)

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            res = self._run(
                "--workload", "cstr-analyze", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare, script=bare / HERE.name / "run.py",
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"metrics"', res.stdout)


if __name__ == "__main__":
    unittest.main()
