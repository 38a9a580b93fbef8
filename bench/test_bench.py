"""Tests of the benchmark itself: generator, checks, tracer and smoke mode.

    python3 -m unittest discover -s bench
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_commands(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(name, 7), workloads.generate(name, 7))

    def test_seed_changes_inputs(self):
        lists = {json.dumps(workloads.generate("dim-rank", seed)) for seed in range(8)}
        self.assertGreater(len(lists), 1)

    def test_every_possible_command_has_a_reference(self):
        reference = run.load_reference()
        for name in workloads.WORKLOADS:
            for argv in workloads.all_commands(name):
                self.assertIn(run.command_key(argv), reference["digests"])
                iso = workloads.isomorphic_key(argv)
                if iso is not None:
                    self.assertIn(iso, reference["isomorphic_totals"])
            for seed in range(20):
                for argv in workloads.generate(name, seed):
                    self.assertIn(argv, workloads.all_commands(name))

    def test_negative_rationals_are_glued_to_their_flag(self):
        for argv in workloads.all_commands("dim-rank"):
            self.assertFalse({"--q", "--r", "--s"} & set(argv), argv)
            self.assertTrue(any(arg.startswith("--r=") for arg in argv), argv)


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.reference = run.load_reference()
        self.argv = workloads.SMOKE["sweep-main"][0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run_command(self.argv)
        self.result = {"status": status, "stdout": out.getvalue(), "stderr": "", "seconds": 0.0}

    def test_reference_output_passes(self):
        failures, units = run.check_command(self.argv, self.result, self.reference)
        self.assertEqual(failures, [])
        self.assertGreater(units, 0)

    def test_changed_output_fails(self):
        changed = dict(self.result, stdout=self.result["stdout"].replace('"checks": ', '"checks": 1'))
        failures, units = run.check_command(self.argv, changed, self.reference)
        self.assertTrue(failures)
        self.assertEqual(units, 0)

    def test_nonzero_exit_fails(self):
        failures, _ = run.check_command(self.argv, dict(self.result, status=1), self.reference)
        self.assertTrue(failures)

    def test_crashed_child_fails_every_command(self):
        sample = run.Sample([self.argv, self.argv], error="child killed")
        self.assertEqual(run.check_sample(sample, self.reference)["failed"], 2)


def run_command(argv):
    from nichols.cli import run_command as entry

    return entry(list(argv))


class TracerTest(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))

        def inner():
            return 1

        inner = tracer.wrap("inner", inner)

        def outer():
            return inner() + inner()

        outer = tracer.wrap("outer", outer)
        self.assertEqual(outer(), 2)
        # outer spans 0..10; inner spans 1..3 and 4..7
        self.assertEqual(tracer.calls, [2, 1])
        self.assertEqual(tracer.self_s, [5.0, 5.0])
        names = [tracer.names[s[0]] for s in tracer.spans]
        self.assertEqual(names, ["outer", "inner", "inner"])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])

    def test_every_patched_attribute_is_restored(self):
        tracer = Tracer()
        tracer.install()
        patched = list(tracer._patched)
        try:
            self.assertTrue(patched)
            for owner, attr, original in patched:
                self.assertIsNot(getattr(owner, attr), original)
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(run_command(workloads.SMOKE["sweep-oracles"][0]), 0)
        finally:
            tracer.restore()
        for owner, attr, original in patched:
            self.assertIs(getattr(owner, attr), original, f"{owner}.{attr}")
        metrics = tracer.metrics()
        self.assertGreater(metrics["braided.skew_derive.calls"], 0)
        self.assertGreater(metrics["fields.elements_created"], 0)


class SmokeTest(unittest.TestCase):
    def test_smoke_mode_passes_the_output_checks(self):
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(run.main(["--smoke"]), 0)


class StatisticsTest(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(10))))
        self.assertEqual(run.tail_percentile(list(range(20))), (50, 9))
        self.assertEqual(run.tail_percentile(list(range(100))), (90, 89))


if __name__ == "__main__":
    unittest.main()
