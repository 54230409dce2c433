"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py     # or
    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
import unittest
from unittest import mock
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(sweep_runs_per_cell=1, long_ops=8, attack_ns=(3,))
WORK = run.ROOT / run.RESULTS_DIR / "work"


class SmokeTest(unittest.TestCase):
    def measure(self, name: str, trace: bool) -> dict:
        result = run.measure(name, seed=1, seconds=0, trace=trace, sizes=TINY,
                             setup_repeats=1)
        self.assertTrue(result["correct"], result["failures"])
        self.assertEqual(result["failed"], 0, result["failures"])
        return result

    def test_every_workload_emits_every_metric(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = self.measure(name, trace=False)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
                self.assertTrue(all(v > 0 for v in result["metrics"].values()))
                self.assertIn("failed_ratio", result["report"])
                self.assertEqual("run_ms_p99" in result["report"], name == "sweep")

                layers = self.measure(name, trace=True)["metrics"]
                self.assertEqual(set(layers), set(run.PER_LAYER))
                parts = layers["cli.scenario_self_s"] + layers["trace.unattributed_s"]
                parts += sum(layers[f"{layer}_s"] for layer in run.tracing.LAYERS[1:])
                self.assertAlmostEqual(parts, layers["trace.wall_s"], places=9)
                self.assertGreater(layers["sim.events"], 0)

    def test_benchmark_json_lists_what_run_emits(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["run_seconds"], run.RUN_SECONDS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_raising_unit_is_counted_not_fatal(self):
        _, m = run.setup(workloads.Sweep, 1)
        WORK.mkdir(parents=True, exist_ok=True)
        w = workloads.Sweep(m, 0, TINY, None, WORK)
        # Base seed 42 with 200 runs per cell reaches this run: a read stopped
        # by its per-op budget overlaps the same process's next read, and
        # extract_history raises MalformedHistory.
        w.units = [("algo1", 3, "writer-crash+one-malicious-reader", 1803),
                   w.units[0]]
        _, outputs, _ = run.run_pass(w)
        err = outputs[0][1]
        if err is None:
            self.skipTest("run 1803 no longer raises")
        self.assertIsInstance(err, m.checker.MalformedHistory)
        tally = run.Tally(w)
        tally.check_pass(outputs, first=True)
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (2, 1, 0))
        [failure] = tally.failures.values()
        self.assertIn("seed=1803", failure["unit"])
        self.assertIn("MalformedHistory", failure["reason"])
        # Unpinned, the raise must repeat the reference pass's.
        tally.reference[0] = "a verdict digest"
        tally.check_pass(outputs, first=False)
        self.assertEqual(tally.wrong, 1)
        # Pinned, it must be listed as raising.
        c, n, p, _ = w.units[1]
        w.usual = {f"{c}/{n}/{p}": w.fingerprint(outputs[1][0])}
        for raised, wrong in ((["0"], 0), ([], 1)):
            w.pins = {"raised": raised, "runs": {}}
            tally = run.Tally(w)
            tally.check_pass(outputs, first=True)
            self.assertEqual((tally.failed, tally.wrong), (1, wrong))

    def test_unexpected_raise_makes_the_run_incorrect(self):
        def raise_error(self, unit):
            raise RuntimeError("injected")

        with mock.patch.object(workloads.Attack, "run_unit", raise_error):
            result = run.measure("attack", seed=1, seconds=0, trace=False,
                                 sizes=TINY, setup_repeats=1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_step_count_deviation_fails_the_unit(self):
        _, m = run.setup(workloads.LongHistory, 1)
        WORK.mkdir(parents=True, exist_ok=True)
        w = workloads.LongHistory(m, 0, TINY, None, WORK)
        for unit in w.units:
            output = w.run_unit(unit)
            self.assertEqual(w.check(unit, output), [])
            write = next(op for op in output[0].ops if op.kind == "Write")
            write.steps += 1
            self.assertIn("closed form", " ".join(w.check(unit, output)))


if __name__ == "__main__":
    unittest.main()
