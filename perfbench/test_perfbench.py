"""Tests of the benchmark's own helpers: span self time, the tail rule,
the failure classification, the generators and the tracing shim.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


class SpanTests(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        names = ["cli.main", "sheaf.check_completeness", "exactalg.rref"]
        spans = [
            (0, 0.0, 10.0, -1),  # cli.main
            (1, 1.0, 7.0, 0),    # completeness inside main
            (2, 2.0, 3.0, 1),    # rref inside completeness
            (2, 4.0, 6.0, 1),    # rref inside completeness
            (2, 8.0, 9.0, 0),    # rref directly inside main
        ]
        self_time, inclusive = measure.aggregate(names, spans)
        self.assertAlmostEqual(self_time["cli"], 10.0 - 6.0 - 1.0)
        self.assertAlmostEqual(self_time["sheaf"], 6.0 - 1.0 - 2.0)
        self.assertAlmostEqual(self_time["exactalg"], 4.0)
        self.assertAlmostEqual(sum(self_time.values()), 10.0)
        self.assertAlmostEqual(inclusive["exactalg.rref"], 4.0)

    def test_recursive_span_counted_once_inclusive(self):
        names = ["space.irredundant_covers"]
        spans = [(0, 0.0, 5.0, -1), (0, 1.0, 3.0, 0)]
        self_time, inclusive = measure.aggregate(names, spans)
        self.assertAlmostEqual(inclusive["space.irredundant_covers"], 5.0)
        self.assertAlmostEqual(self_time["space"], 5.0)


class TailTests(unittest.TestCase):
    def test_highest_grid_percentile_with_ten_beyond(self):
        self.assertEqual(measure.tail_percentile(40), 75.0)
        self.assertEqual(measure.tail_percentile(99), 75.0)
        self.assertEqual(measure.tail_percentile(100), 90.0)
        self.assertEqual(measure.tail_percentile(200), 95.0)
        self.assertEqual(measure.tail_percentile(1000), 99.0)
        self.assertEqual(measure.tail_percentile(10000), 99.9)

    def test_short_run_falls_back_to_maximum(self):
        self.assertEqual(measure.tail_percentile(39), 100.0)
        self.assertEqual(measure.percentile([3, 1, 2], 100.0), 3)

    def test_nearest_rank(self):
        values = list(range(1, 41))
        self.assertEqual(measure.percentile(values, 75.0), 30)
        self.assertEqual(len([v for v in values if v > 30]), 10)
        self.assertEqual(measure.median([4, 1, 3, 2]), 2.5)


class FailureTests(unittest.TestCase):
    def setUp(self):
        self.call = workloads.Call("m.json", ["classify", "--sub", "L"],
                                   verdict="value",
                                   fields={"lagrangian": True})
        self.good = b'{"command": "classify", "verdict": "value", ' \
                    b'"lagrangian": true}\n'

    def classify(self, code=0, out=None, err=b"", timed_out=False,
                 reference=None):
        return measure.classify_failure(
            self.call, code, self.good if out is None else out, err,
            timed_out, reference)

    def test_expected_outcome_passes(self):
        self.assertIsNone(self.classify())
        self.assertIsNone(self.classify(reference=self.good))

    def test_each_failure_kind(self):
        self.assertEqual(self.classify(timed_out=True), "timeout")
        self.assertEqual(self.classify(
            code=1, err=b"Traceback (most recent call last):\n"), "traceback")
        self.assertEqual(self.classify(reference=self.good + b" "),
                         "stdout-differs")
        self.assertEqual(self.classify(code=1), "exit-code")
        self.assertEqual(self.classify(out=b"not json\n"), "unparsable")
        self.assertEqual(self.classify(out=b""), "unparsable")
        self.assertEqual(self.classify(
            out=b'{"verdict": "fail", "lagrangian": true}\n'), "verdict")
        self.assertEqual(self.classify(
            out=b'{"verdict": "value", "lagrangian": false}\n'),
            "field:lagrangian")


class GeneratorTests(unittest.TestCase):
    def test_unimodular_inverse(self):
        rng = random.Random(5)
        for n in (1, 2, 5, 12):
            b, binv = gen.unimodular(rng, n, 3 * n)
            self.assertEqual(gen.matmul(b, binv), gen.identity(n))

    def test_median_draw_keeps_the_median_sized_draw(self):
        draws = iter([[5], [1], [9], [3], [7]])
        kept = gen.median_draw(lambda: next(draws), lambda d: d[0], 5)
        self.assertEqual(kept, [5])

    def test_lagrangian_is_isotropic_for_the_form(self):
        rng = random.Random(7)
        built = gen.symplectic_manifest(rng, ["p0"], [[], ["p0"]], "Q", 6)
        form = [[int(a) for a in row] for row in built.doc["form"]["p0"]]
        lag = [[int(a) for a in row]
               for row in built.doc["submodules"]["L"]["p0"]]
        gram = gen.matmul(gen.matmul(lag, form), gen.transpose(lag))
        self.assertTrue(all(a == 0 for row in gram for a in row))
        self.assertEqual(built.facts["subs"]["L"]["p0"], 3)

    def test_plans_are_a_function_of_the_seed(self):
        def snapshot(name, seed):
            with tempfile.TemporaryDirectory() as tmp:
                plan = workloads.WORKLOADS[name](seed, tmp)
                docs = {}
                for path in (c.manifest for c in plan.validates):
                    if path.startswith(tmp):
                        with open(path, "rb") as handle:
                            docs[os.path.basename(path)] = handle.read()
                labels = [c.label for c in plan.calls + plan.known_defects]
                return labels, docs

        for name in workloads.WORKLOADS:
            self.assertEqual(snapshot(name, 3), snapshot(name, 3))
            self.assertNotEqual(snapshot(name, 3), snapshot(name, 4))


class ShimTests(unittest.TestCase):
    def test_traced_stdout_is_byte_identical(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        args = ["-m", "manifests/sierpinski_rank4.json", "reduce", "--sub", "F"]
        plain = subprocess.run([sys.executable, "-m", "sheafplectic"] + args,
                               cwd=ROOT, env=env, capture_output=True)
        with tempfile.TemporaryDirectory() as tmp:
            spans_path = os.path.join(tmp, "spans.json")
            traced = subprocess.run(
                [sys.executable, os.path.join(HERE, "shim.py"), spans_path]
                + args, cwd=ROOT, env=env, capture_output=True)
            with open(spans_path, encoding="utf-8") as handle:
                doc = json.load(handle)
        self.assertEqual(plain.returncode, 0)
        self.assertEqual(traced.returncode, plain.returncode)
        self.assertEqual(traced.stdout, plain.stdout)
        self.assertIn("cli.main", doc["names"])
        self.assertIn("symplectic.reduce", doc["names"])
        self.assertGreater(doc["counters"]["exactalg.rref.calls"], 0)
        self.assertGreater(doc["counters"]["exactalg.matmul.mults"], 0)
        self_time, _ = measure.aggregate(doc["names"], doc["spans"])
        self.assertTrue({"cli", "exactalg", "symplectic"} <= set(self_time))


if __name__ == "__main__":
    unittest.main()
