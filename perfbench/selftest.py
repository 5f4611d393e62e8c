#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks and its reporting.

Run from the repository root (about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.eval import package_by_name  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
YN = package_by_name("yn")


def _pair(pattern, word):
    from repro.conformance.gen import ConformancePair

    return ConformancePair(pattern=pattern, flags="", inputs=(word,), seed=0)


def _temp_dir():
    (HERE / "out").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=HERE / "out")


def _small_matcher(tmp, perturb=False):
    """A matcher workload over the first few pinned patterns."""
    data = json.loads((HERE / "matcher_cases.json").read_text())
    data["patterns"] = data["patterns"][:3]
    if perturb:
        cell = data["patterns"][0]["cells"][0]
        for variant in cell["variants"]:
            variant["expected"] = "perturbed"
    path = Path(tmp) / "cases.json"
    path.write_text(json.dumps(data))
    return workloads.matcher(1, cases_path=path)


class CheckTests(unittest.TestCase):
    def test_planted_member_trips_fuzz_check(self):
        pairs = [_pair("q+", "qq")]
        honest = workloads.Tally()
        workloads.FuzzWorkload(pairs).run_pass(honest)
        self.assertEqual(honest.problems, [])
        planted = workloads.Tally()
        workloads.FuzzWorkload(pairs, ("native", "planted:")).run_pass(
            planted
        )
        self.assertEqual(len(planted.problems), 1)
        self.assertIn("disagreement", planted.problems[0])

    def test_perturbed_matcher_expectation_trips_check(self):
        with _temp_dir() as tmp:
            clean = workloads.Tally()
            _small_matcher(tmp).run_pass(clean)
            self.assertEqual(clean.problems, [])
            perturbed = workloads.Tally()
            _small_matcher(tmp, perturb=True).run_pass(perturbed)
        self.assertEqual(perturbed.failed, 1)
        self.assertIn("perturbed", perturbed.problems[0])

    def test_missing_dse_failure_trips_check(self):
        tally = workloads.Tally()
        workloads.DseWorkload(
            [("yn", YN.source)], must_find={"yn": "no such failure"}
        ).run_pass(tally)
        self.assertEqual(tally.problems, ["yn: 'no such failure' not found"])


class ReportTests(unittest.TestCase):
    """Every metric of BENCHMARK.json is reported, with its unit."""

    def _check(self, metrics, declared):
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for metric in declared:
            self.assertEqual(metrics[metric["name"]][1], metric["unit"])

    def _measure_both(self, workload):
        untraced = run.measure(workload, 0)
        self._check(run.end_to_end(*untraced, 1.0), SPEC["end_to_end"])
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.measure(workload, 0, tracer)
        finally:
            tracer.restore()
        metrics = run.per_layer(tracer, traced, untraced)
        self._check(metrics, SPEC["per_layer"])
        return metrics

    def test_dse_metrics(self):
        metrics = self._measure_both(
            workloads.DseWorkload([("yn", YN.source)])
        )
        self.assertGreater(metrics["cegar.solves"][0], 0)
        self.assertGreater(metrics["solver.queries"][0], 0)

    def test_fuzz_metrics(self):
        workload = workloads.FuzzWorkload(
            [_pair("a+b", "aab"), _pair("(x|y)z", "q")]
        )
        metrics = self._measure_both(workload)
        self.assertEqual(metrics["conformance.checks"][0], 2)

    def test_matcher_metrics(self):
        with _temp_dir() as tmp:
            metrics = self._measure_both(_small_matcher(tmp))
        self.assertGreater(metrics["matcher.calls"][0], 0)

    def test_command_prints_every_metric_with_unit(self):
        for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 "matcher", "--seed", "3", "--seconds", "0",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
                check=True,
            ).stdout
            result = json.loads(out.splitlines()[-1])
            self.assertTrue(result["correct"])
            for metric in SPEC[declared]:
                reported = result["metrics"][metric["name"]]
                self.assertEqual(reported["unit"], metric["unit"])
                self.assertRegex(
                    out, rf"{metric['name']}\s+\S+ {metric['unit']}\n"
                )


if __name__ == "__main__":
    unittest.main()
