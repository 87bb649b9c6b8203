"""Seeded request generators and output checks for the three workloads.

Every request is a list of argv strings for one cold `pureoctic` process.
The class of each octic, the Pauli condition of each k and the independence
of each embedding triple hold by construction; nothing here asks the
program's classifier, and no input is ever redrawn because it is slow.

A workload is generated in rounds.  A round is a fixed, stratified mix
(one request of every class, one prime bound from every fifth of the log
range, ...) whose exact values come from the seed, so that every run sees
the same distribution of request costs and its medians stay steady.  Round
r of a seed is the same whatever rounds were generated before it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

OCTIC_CLASSES = ("K8", "D16", "QD16", "Pauli", "B32")

# oracle: prime bounds log-uniform between the CLI default and 4x it
ORACLE_MIN_BOUND = 50_000
ORACLE_MAX_BOUND = 200_000

# lattice: a slow k carries one prime from [1e5, 3e6], which the program's
# trial division reaches on every label of every subgroup, at a cost that
# grows with the prime.  The slow slot of every round sits at one quantile
# of the log range (narrow jitter), so that the tail percentile falls among
# requests of one size rather than between sizes.
SLOW_PRIME_MIN = 100_000
SLOW_PRIME_MAX = 3_000_000
SLOW_QUANTILE = 0.35
SLOW_JITTER = 0.005

# embed: a request's cost grows with the two largest private primes of its
# triple, so a triple is drawn from one of three sizes, each a log-uniform
# band for the largest prime and one for the second; the third private prime
# and the shared primes are small.  A round holds 1 small, 5 typical and 2
# large `embed --compare` calls and 2 `sl-search` calls (cheaper than the
# typical ones): the median then falls among typical requests and the 90th
# percentile in the middle of the large ones.
EMBED_SIZES = {
    "small": ((30, 100), (10, 30)),
    "typical": ((800, 1200), (150, 300)),
    "large": ((7_000, 8_500), (1_300, 1_600)),
}
EMBED_ROUND = ("small",) + ("typical",) * 5 + ("large",) * 2
EMBED_SMALL_PRIME_MAX = 30
EMBED_PRIME_MAX = 10_000


@dataclass(frozen=True)
class Request:
    """One cold CLI call and what its output must show."""

    argv: tuple[str, ...]
    kind: str            # oracle | lattice | witt | embed | sl
    expect: tuple = ()   # kind-specific expectation (see check)


# --- small exact number theory, independent of pureoctic -------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def is_squarefree(n: int) -> bool:
    n = abs(n)
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


@lru_cache(maxsize=None)
def sieve(bound: int) -> tuple[int, ...]:
    """All primes below bound (Eratosthenes)."""
    flags = bytearray([1]) * max(bound, 2)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(bound - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, bound, i)))
    return tuple(i for i in range(bound) if flags[i])


def good_prime_count(c: Fraction, bound: int) -> int:
    """Odd primes below bound that divide neither numerator nor denominator."""
    return sum(1 for p in sieve(bound)
               if p != 2 and c.numerator % p and c.denominator % p)


def _rational(rng: random.Random, num_max: int, den_max: int) -> Fraction:
    return Fraction(rng.randint(1, num_max), rng.randint(1, den_max))


def _squarefree(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        m = rng.randint(lo, hi)
        if is_squarefree(m):
            return m


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _prime_near(rng: random.Random, lo: float, hi: float) -> int:
    """The first prime from a log-uniform point of [lo, hi)."""
    return next_prime(math.floor(_log_uniform(lo, hi, rng.random())))


# --- oracle ------------------------------------------------------------------


def octic_constant(cls: str, rng: random.Random) -> Fraction:
    """A c with X^8 + c in the given class: (class base) * u^8.

    K8: d^4.  D16: 2d^2.  QD16: -2d^2.  Pauli: k^2 with k = m s^2, m
    square-free and not 1 or 2.  B32: +-m q^2 with m square-free, |m| > 2,
    so the square class of c is none of 1, -1, 2, -2.
    """
    d = _rational(rng, 999, 99)
    u = _rational(rng, 9999, 999)
    if cls == "K8":
        base = d ** 4
    elif cls == "D16":
        base = 2 * d ** 2
    elif cls == "QD16":
        base = -2 * d ** 2
    elif cls == "Pauli":
        k = _squarefree(rng, 3, 9999) * _rational(rng, 99, 99) ** 2
        base = k ** 2
    elif cls == "B32":
        base = rng.choice((1, -1)) * _squarefree(rng, 3, 9999) * d ** 2
    else:
        raise ValueError(f"unknown class {cls!r}")
    return base * u ** 8


def oracle_round(seed: int, r: int) -> list[Request]:
    """One request per class, one prime bound per fifth of the log range."""
    rng = random.Random(f"oracle/{seed}/{r}")
    classes = list(OCTIC_CLASSES)
    rng.shuffle(classes)
    bounds = [round(_log_uniform(ORACLE_MIN_BOUND, ORACLE_MAX_BOUND,
                                 (i + rng.uniform(0.25, 0.75)) / 5))
              for i in range(5)]
    rng.shuffle(bounds)
    out = []
    for cls, bound in zip(classes, bounds):
        c = octic_constant(cls, rng)
        out.append(Request(("oracle", str(c), "--primes", str(bound),
                            "--format", "json"), "oracle", (cls, c, bound)))
    return out


# --- lattice -----------------------------------------------------------------


def pauli_k(rng: random.Random, m: int) -> Fraction:
    """k = m s^2 with m square-free and not 1 or 2: the Pauli condition."""
    return m * _rational(rng, 30, 30) ** 2


def normal_m(rng: random.Random, stratum: int, strata: int) -> int:
    """A square-free m below 10^4 whose largest prime p, which sets the cost
    of the lattice labels, lies in one stratum of the log range [3, 10^4]:
    m = p * m0 with m0 square-free and below p."""
    lo = _log_uniform(3, 10_000, stratum / strata)
    hi = _log_uniform(3, 10_000, (stratum + 1) / strata)
    while True:
        p = _prime_near(rng, lo, hi)
        if p < 10_000:
            return p * _squarefree(rng, 1, min(p - 1, 9_999 // p))


def slow_prime(rng: random.Random) -> int:
    u = SLOW_QUANTILE + rng.uniform(-SLOW_JITTER, SLOW_JITTER)
    return next_prime(round(_log_uniform(SLOW_PRIME_MIN, SLOW_PRIME_MAX, u)))


def lattice_round(seed: int, r: int) -> list[Request]:
    """4 lattice calls on k with square-free part below 10^4 (one per
    quarter of the prime-size range), 1 on k with a prime factor in
    [1e5, 3e6] and 1 witt-verify call, shuffled."""
    rng = random.Random(f"lattice/{seed}/{r}")
    ks = [pauli_k(rng, normal_m(rng, j, 4)) for j in range(4)]
    ks.append(pauli_k(rng, slow_prime(rng) * _squarefree(rng, 1, 30)))
    out = [Request(("lattice", str(k), "--format", "json"), "lattice", (k,))
           for k in ks]
    k = pauli_k(rng, normal_m(rng, rng.randrange(4), 4))
    out.append(Request(("witt-verify", str(k), "--format", "json"), "witt", (k,)))
    rng.shuffle(out)
    return out


# --- embed -------------------------------------------------------------------


def _prime_in(rng: random.Random, band: tuple[int, int], taken) -> int:
    while True:
        p = _prime_near(rng, *band)
        if p < band[1] and p not in taken:
            return p


def independent_triple(rng: random.Random, size: str) -> tuple:
    """Three rationals with independent square classes.

    Each carries a private prime that divides neither of the others, so
    every nonempty product has that prime to an odd power and is not a
    square.  The two largest private primes come from the bands of `size`
    (see EMBED_SIZES); signs, small shared primes and square (integer or
    rational) cofactors vary the rest.
    """
    top_band, second_band = EMBED_SIZES[size]
    privates = [_prime_in(rng, top_band, ())]
    privates.append(_prime_in(rng, second_band, privates))
    privates.append(_prime_in(rng, (2, EMBED_SMALL_PRIME_MAX), privates))
    shared = []
    for _ in range(rng.randint(0, 2)):
        shared.append(_prime_in(rng, (2, EMBED_SMALL_PRIME_MAX), privates + shared))
    rng.shuffle(privates)
    values = []
    for p in privates:
        v = Fraction(rng.choice((1, -1)) * p)
        for q in shared:
            if rng.random() < 0.5:
                v *= q
        cofactor = rng.choice(("one", "square", "rational"))
        if cofactor == "square":
            v *= rng.randint(2, 12) ** 2
        elif cofactor == "rational":
            v *= Fraction(rng.randint(1, 12), rng.randint(2, 12)) ** 2
        values.append(v)
    return tuple(values)


def embed_round(seed: int, r: int) -> list[Request]:
    """The 8 `embed --compare` calls of EMBED_ROUND in shuffled order, then
    `sl-search` on two of the typical triples."""
    rng = random.Random(f"embed/{seed}/{r}")
    triples = [independent_triple(rng, size) for size in EMBED_ROUND]
    searched = [triples[1], triples[2]]
    rng.shuffle(triples)
    out = [Request(("embed", *map(str, t), "--compare", "--format", "json"),
                   "embed", t) for t in triples]
    for t in searched:
        out.append(Request(("sl-search", *map(str, t), "--format", "json"),
                           "sl", t))
    return out


ROUNDS = {"oracle": oracle_round, "lattice": lattice_round, "embed": embed_round}


def requests(workload: str, seed: int, r: int) -> list[Request]:
    """Round r of a workload for a seed."""
    return ROUNDS[workload](seed, r)


# --- output checks -----------------------------------------------------------


def check(req: Request, stdout: bytes, context: dict) -> str | None:
    """None when the output is right, else the reason it is not.

    `context` carries state between requests of one run: the triplets that
    `embed` printed, which the later `sl-search` on the same triple must
    reproduce.
    """
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if req.kind == "oracle":
        cls, c, bound = req.expect
        if out.get("tag") != cls:
            return f"tag {out.get('tag')!r}, constructed as {cls}"
        if out.get("passed") is not True:
            return "census verdict did not pass"
        want = good_prime_count(c, bound)
        if out.get("good_primes") != want:
            return f"good_primes {out.get('good_primes')}, sieve says {want}"
        return None
    if req.kind == "lattice":
        rows = out.get("rows", [])
        if len(rows) != 23:
            return f"{len(rows)} lattice rows, expected 23"
        if any(row["fixed_field_degree"] * row["order"] != 16 for row in rows):
            return "a row breaks [E^H : Q] * |H| = 16"
        degrees = [row["fixed_field_degree"] for row in rows]
        if any(degrees.count(d) != 7 for d in (2, 4, 8)):
            return "expected 7 fixed fields each of degree 2, 4 and 8"
        return None
    if req.kind == "witt":
        checks = out.get("checks", {})
        if not checks or not all(v is True for v in checks.values()):
            return f"witt checks not all true: {checks}"
        return None
    if req.kind == "embed":
        if out.get("compare_agreements") != out.get("compare_total"):
            return ("(14) and (15) disagree: "
                    f"{out.get('compare_agreements')}/{out.get('compare_total')}")
        context[req.expect] = out.get("sl_triplets")
        return None
    if req.kind == "sl":
        if req.expect not in context:
            return "no embed output for this triple to compare against"
        if out.get("triplets") != context[req.expect]:
            return "sl-search triplets differ from embed's sl_triplets"
        return None
    raise ValueError(f"unknown request kind {req.kind!r}")
