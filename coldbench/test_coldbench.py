"""Tests of the benchmark's own helpers.

    python3 -m pytest coldbench        (or: python3 -m unittest discover coldbench)
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    return all(math.isqrt(x) ** 2 == x for x in (q.numerator, q.denominator))


def _sqrt(q: Fraction) -> Fraction:
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


def _is_fourth_power(q: Fraction) -> bool:
    return _is_square(q) and _is_square(_sqrt(q))


def witness_class(c: Fraction) -> str:
    """The class of X^8 + c from explicit square and fourth-power roots."""
    if _is_square(-c) or _is_fourth_power(c / 4):
        return "Reducible"
    if _is_fourth_power(c):
        return "K8"
    if _is_square(c / 2):
        return "D16"
    if _is_square(-c / 2):
        return "QD16"
    if _is_square(c):
        return "Pauli"
    return "B32"


class PercentileTests(unittest.TestCase):
    def test_failures_sort_last_as_infinity(self):
        values = [3.0, 1.0, measure.INF, 2.0]
        self.assertEqual(measure.percentile(values, 50), 2.0)
        self.assertEqual(measure.percentile(values, 75), 3.0)
        self.assertEqual(measure.percentile(values, 90), measure.INF)

    def test_median_is_infinite_when_most_fail(self):
        self.assertEqual(measure.percentile([1.0, measure.INF, measure.INF], 50),
                         measure.INF)

    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(measure.percentile(values, 90), 90.0)
        self.assertEqual(measure.percentile(values, 99), 99.0)
        self.assertEqual(measure.percentile([5.0], 90), 5.0)

    def test_tail_percentile_keeps_ten_beyond(self):
        self.assertEqual(measure.tail_percentile(12), 90.0)
        self.assertEqual(measure.tail_percentile(100), 90.0)
        self.assertEqual(measure.tail_percentile(200), 95.0)
        self.assertEqual(measure.tail_percentile(1000), 99.0)
        self.assertEqual(measure.tail_percentile(10000), 99.9)
        for n in (200, 1000, 10000):
            self.assertGreaterEqual(measure.beyond(n, measure.tail_percentile(n)), 10)
        self.assertEqual(measure.beyond(12, 90.0), 1)


class SelfTimeTests(unittest.TestCase):
    def test_nested_spans(self):
        names = ["outer", "inner", "leaf"]
        spans = [
            [0, 0, 100, -1, None],   # outer: 100 long
            [1, 10, 40, 0, None],    # inner: 30, holds a leaf of 10
            [2, 20, 30, 1, None],
            [1, 50, 70, 0, None],    # inner: 20
        ]
        st = measure.aggregate(names, spans)
        self.assertEqual(st["outer"].self_ns, 100 - 30 - 20)
        self.assertEqual(st["inner"].calls, 2)
        self.assertEqual(st["inner"].self_ns, (30 - 10) + 20)
        self.assertEqual(st["inner"].total_ns, 50)
        self.assertEqual(st["leaf"].self_ns, 10)

    def test_recursive_span_counted_once_in_total(self):
        names = ["f"]
        spans = [[0, 0, 100, -1, None], [0, 10, 60, 0, None]]
        st = measure.aggregate(names, spans)
        self.assertEqual(st["f"].calls, 2)
        self.assertEqual(st["f"].total_ns, 100)
        self.assertEqual(st["f"].self_ns, 100)


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for wl in workloads.ROUNDS:
            for r in (0, 3):
                self.assertEqual(workloads.requests(wl, 7, r),
                                 workloads.requests(wl, 7, r))
            self.assertNotEqual(workloads.requests(wl, 7, 0),
                                workloads.requests(wl, 8, 0))

    def test_programs_get_only_argv_strings(self):
        for wl in workloads.ROUNDS:
            for req in workloads.requests(wl, 1, 0):
                self.assertTrue(all(isinstance(a, str) for a in req.argv))

    def test_oracle_classes_hold_by_construction(self):
        for seed in range(20):
            reqs = workloads.requests("oracle", seed, 0)
            self.assertEqual(sorted(r.expect[0] for r in reqs),
                             sorted(workloads.OCTIC_CLASSES))
            for req in reqs:
                cls, c, bound = req.expect
                self.assertEqual(witness_class(c), cls)
                self.assertEqual(Fraction(req.argv[1]), c)
                self.assertTrue(workloads.ORACLE_MIN_BOUND <= bound
                                <= workloads.ORACLE_MAX_BOUND)

    def test_oracle_bounds_cover_every_fifth_of_the_log_range(self):
        reqs = workloads.requests("oracle", 3, 0)
        lo, hi = workloads.ORACLE_MIN_BOUND, workloads.ORACLE_MAX_BOUND
        fifths = sorted(int(5 * math.log(r.expect[2] / lo) / math.log(hi / lo))
                        for r in reqs)
        self.assertEqual(fifths, [0, 1, 2, 3, 4])

    def test_lattice_k_meets_the_pauli_condition(self):
        for seed in range(20):
            reqs = workloads.requests("lattice", seed, 0)
            self.assertEqual(sum(r.kind == "witt" for r in reqs), 1)
            slow = 0
            for req in reqs:
                (k,) = req.expect
                self.assertGreater(k, 0)
                self.assertFalse(_is_square(k))
                self.assertFalse(_is_square(k / 2))
                self.assertEqual(witness_class(k * k), "Pauli")
                if max(_prime_factors(k.numerator * k.denominator)) \
                        >= workloads.SLOW_PRIME_MIN:
                    slow += 1
            self.assertEqual(slow, 1)

    def test_embed_triples_are_independent(self):
        for seed in range(20):
            for req in workloads.requests("embed", seed, 0):
                t = req.expect
                for size in (1, 2, 3):
                    for subset in itertools.combinations(t, size):
                        prod = math.prod(subset, start=Fraction(1))
                        self.assertFalse(_is_square(prod), (t, subset))
                primes = set().union(*(_prime_factors(abs(v.numerator * v.denominator))
                                       for v in t))
                self.assertLessEqual(max(primes), workloads.EMBED_PRIME_MAX)

    def test_embed_round_holds_each_size_as_stated(self):
        bands = {size: top for size, (top, _) in workloads.EMBED_SIZES.items()}
        for seed in range(20):
            sizes = []
            for req in workloads.requests("embed", seed, 0):
                if req.kind != "embed":
                    continue
                top = max(set().union(*(_prime_factors(abs(v.numerator * v.denominator))
                                        for v in req.expect)))
                sizes += [size for size, (lo, hi) in bands.items() if lo <= top < hi]
            self.assertEqual(sorted(sizes), sorted(workloads.EMBED_ROUND))

    def test_sieve_counts_primes(self):
        self.assertEqual(len(workloads.sieve(100)), 25)
        self.assertEqual(len(workloads.sieve(50000)), 5133)
        # odd primes below 100 not dividing 15/7
        self.assertEqual(workloads.good_prime_count(Fraction(15, 7), 100), 21)


def _prime_factors(n: int) -> set[int]:
    out, f = set(), 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    if n > 1:
        out.add(n)
    return out


class CheckTests(unittest.TestCase):
    def test_oracle_check(self):
        c = Fraction(3)
        req = Request(("oracle",), "oracle", ("B32", c, 1000))
        good = {"tag": "B32", "passed": True,
                "good_primes": workloads.good_prime_count(c, 1000)}
        self.assertIsNone(workloads.check(req, json.dumps(good).encode(), {}))
        for key, bad in (("tag", "Pauli"), ("passed", False),
                         ("good_primes", good["good_primes"] + 1)):
            out = dict(good, **{key: bad})
            self.assertIsNotNone(workloads.check(req, json.dumps(out).encode(), {}))

    def test_lattice_check(self):
        rows = ([{"order": 16, "fixed_field_degree": 1},
                 {"order": 1, "fixed_field_degree": 16}]
                + [{"order": 16 // d, "fixed_field_degree": d}
                   for d in (2, 4, 8) for _ in range(7)])
        req = Request(("lattice",), "lattice", (Fraction(3),))
        self.assertIsNone(workloads.check(req, json.dumps({"rows": rows}).encode(), {}))
        rows[3] = {"order": 4, "fixed_field_degree": 8}
        self.assertIsNotNone(workloads.check(req, json.dumps({"rows": rows}).encode(), {}))

    def test_embed_and_sl_search_must_agree(self):
        t = (Fraction(2), Fraction(3), Fraction(-5))
        ctx: dict = {}
        embed = Request(("embed",), "embed", t)
        sl = Request(("sl-search",), "sl", t)
        out = {"compare_agreements": 168, "compare_total": 168,
               "sl_triplets": [[2, 3, -5]]}
        self.assertIsNone(workloads.check(embed, json.dumps(out).encode(), ctx))
        self.assertIsNone(workloads.check(
            sl, json.dumps({"triplets": [[2, 3, -5]]}).encode(), ctx))
        self.assertIsNotNone(workloads.check(
            sl, json.dumps({"triplets": []}).encode(), ctx))
        out["compare_agreements"] = 167
        self.assertIsNotNone(workloads.check(embed, json.dumps(out).encode(), ctx))
        self.assertIsNotNone(workloads.check(embed, b"not json", ctx))


class RescaleTests(unittest.TestCase):
    def test_request_is_rescaled_by_the_mean_of_its_two_probes(self):
        import run

        walls = iter([0.1, 1.0, 0.3, 2.0, 0.3])   # probe, request, probe, ...

        class FakeRunner(run.Runner):
            def run(self, argv):
                return measure.ProcResult(0, b"", b"", next(walls))

        runner = FakeRunner(deadline=float("inf"))
        _, first = runner.cli_rescaled(["x"])
        _, second = runner.cli_rescaled(["y"])
        self.assertAlmostEqual(first, 1.0 * run.PROBE_REF_S / 0.2)
        self.assertAlmostEqual(second, 2.0 * run.PROBE_REF_S / 0.3)
        self.assertEqual(runner.probes, [0.1, 0.3, 0.3])


class ProcessTests(unittest.TestCase):
    def test_run_process_output_and_memory(self):
        res = measure.run_process([sys.executable, "-c", "print('hi')"],
                                  dict(os.environ), str(HERE), 30)
        self.assertEqual(res.returncode, 0)
        self.assertEqual(res.stdout, b"hi\n")
        self.assertGreater(measure.children_peak_rss_mb(), 1)
        self.assertGreater(res.wall_s, 0)

    def test_run_process_timeout_kills(self):
        res = measure.run_process([sys.executable, "-c", "import time; time.sleep(30)"],
                                  dict(os.environ), str(HERE), 0.5)
        self.assertIsNone(res.returncode)
        self.assertLess(res.wall_s, 10)

    @unittest.skipUnless((SRC / "pureoctic").is_dir(), "needs the program sources")
    def test_traced_request_prints_the_same_bytes(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = ["embed", "2", "3", "-5", "--compare", "--format", "json"]
        plain = subprocess.run([sys.executable, "-m", "pureoctic", *argv],
                               capture_output=True, env=env, timeout=60)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "trace.json")
            traced = subprocess.run([sys.executable, str(HERE / "traced_cli.py"),
                                     out, "--", *argv],
                                    capture_output=True, env=env, timeout=60)
            with open(out) as fh:
                trace = json.load(fh)
        self.assertEqual(traced.returncode, plain.returncode)
        self.assertEqual(traced.stdout, plain.stdout)
        stats = measure.aggregate(trace["names"], trace["spans"])
        # qforms and cli call their own `from .arith import` copies
        self.assertGreater(stats["arith.squarefree_part"].calls, 0)
        self.assertGreater(stats["qforms.equivalent"].calls, 0)
        self.assertEqual(stats["cli.main"].calls, 1)
        self.assertNotIn("groups.closure", stats)


if __name__ == "__main__":
    unittest.main()
