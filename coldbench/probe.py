"""Host-speed probe: a fixed cold-process job that does not use pureoctic.

    python3 coldbench/probe.py

run.py runs it before and after every timed request.  Its wall time tracks
how fast the host runs a cold Python process at that moment, and the
request's wall time is rescaled by it (see run.py).  The job mirrors what a
pureoctic request does, with the same interpreter: it starts, imports the
standard modules the program imports, and does Fraction arithmetic, trial
division and permutation products.  It prints one checksum line.
"""

import argparse  # noqa: F401  (imported for its start-up cost)
import itertools
import json
import math
import re  # noqa: F401
from collections import Counter
from dataclasses import dataclass  # noqa: F401
from fractions import Fraction
from functools import lru_cache  # noqa: F401


def fractions() -> Fraction:
    s = Fraction(0)
    for i in range(1, 1000):
        s += Fraction(i, i * i + 1)
    return s


def trial_division() -> int:
    total = 0
    for n in range(10**9 + 1, 10**9 + 1 + 2 * 12, 2):
        f = 3
        while f * f <= n:
            if n % f == 0:
                total += f
            f += 2
    return total


def permutations() -> int:
    gens = [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)]
    seen = {tuple(range(7))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    cycles = Counter(len(set(itertools.accumulate(range(7), lambda x, _: p[x])))
                     for p in seen)
    return len(seen) * 1000 + sum(cycles.values())


def main() -> None:
    value = fractions()
    print(json.dumps([value.numerator % 1_000_003, math.gcd(value.denominator, 6),
                      trial_division(), permutations()]))


if __name__ == "__main__":
    main()
