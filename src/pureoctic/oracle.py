"""Independent verification of classifier verdicts by factoring X^8 + c
modulo many primes and comparing the factor-degree statistics against the
cycle types of the predicted permutation group (a desk-scale equidistribution
check).

For a good prime p (odd, not dividing c), the multiset of degrees of the
irreducible factors of X^8 + c over F_p equals the cycle type of a Frobenius
element acting on the roots.  Sampling many primes therefore sees every
cycle type of the Galois group with frequency close to its proportion of
group elements, which separates all five classifier outcomes at tolerance
0.05 after a few hundred primes.

No polynomial is factored.  Since X^8 + c is a binomial, its roots in F_q,
q = p^d, are the solutions of x^8 = a with a = -c mod p, and F_q^* is cyclic
of order q - 1: there are g = gcd(8, q - 1) of them when a^((q-1)/g) = 1 and
none otherwise.  For a good prime the polynomial is square-free, so the root
counts over F_p, ..., F_(p^8) determine the factor degrees by Mobius
inversion.  The count rests only on F_q^* being cyclic, never on the
classifier.

The inversion runs at most 11 times per process.  The degrees depend only
on p mod 8 and on the order of b = a^((p-1)/g), g = gcd(8, p - 1), so each
prime costs one modular power and at most three squarings, and the degrees
are read from a table that the Mobius inversion fills on first use of each
key (see `_degrees`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import arith, binomial, groups
from .arith import Rational
from .groups import FinGroup

CycleType = tuple[int, ...]

# the Mobius function on 1..8 (index 0 unused)
_MOBIUS = (0, 1, -1, -1, 0, -1, 1, -1, 0)
# the largest census bound: the sieve allocates one byte per integer below it
MAX_CENSUS_BOUND = 10 ** 7


def factor_mod_p(c: Rational, p: int) -> CycleType:
    """Degrees of the irreducible factors of X^8 + c over F_p, decreasing.

    p must be an odd prime coprime to c.
    """
    c = Fraction(c)
    if p == 2 or not arith.is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if c.numerator % p == 0 or c.denominator % p == 0:
        raise ValueError(f"{p} divides c = {c}: bad prime")
    return _degrees(-c.numerator * pow(c.denominator, -1, p) % p, p)


def _frobenius_degrees(a: int, p: int) -> CycleType:
    """Factor degrees of X^8 - a over F_p for an odd prime p and a nonzero
    residue a, unchecked.  N_d, the number of roots in F_(p^d), is the sum
    of e * (number of degree-e factors) over e | d, which Mobius inversion
    undoes.
    """
    roots = [0]
    for d in range(1, 9):
        q = p ** d
        g = math.gcd(8, q - 1)
        # a lies in F_p^*, so its exponent only matters mod p - 1
        roots.append(g if pow(a, (q - 1) // g % (p - 1), p) == 1 else 0)
    degrees = []
    for e in range(8, 0, -1):
        count = sum(_MOBIUS[e // d] * roots[d] for d in range(1, e + 1) if e % d == 0)
        degrees += [e] * (count // e)
    return tuple(degrees)


# factor degrees by (p mod 8, order of b); `_degrees` fills it on first use
_DEGREES: dict[tuple[int, int], CycleType] = {}


def _degrees(a: int, p: int) -> CycleType:
    """`_frobenius_degrees(a, p)` from one modular power and a table lookup,
    for an odd prime p and a nonzero residue a, unchecked.

    Why (p mod 8, ord b) with b = a^((p-1)/g), g = gcd(8, p - 1), is a key:
    write a = z^m for a generator z of F_p^*.  Then x^8 = a has roots in
    F_(p^d) iff v2(g_d) <= v2(m) + v2((p^d - 1)/(p - 1)), where
    g_d = gcd(8, p^d - 1).  Both g_d and that 2-adic valuation, capped at 3,
    depend only on p mod 8, and v2(m) >= v2(g) already makes every condition
    hold.  The conditions therefore see m only through
    min(v2(m), v2(g)) = log2(g / ord b).  b^g = 1, so ord b is 1, 2, 4 or 8
    and at most three squarings find it; 11 keys occur in all.
    """
    b = pow(a, (p - 1) // math.gcd(8, p - 1), p)
    order = 1
    while b != 1:
        b = b * b % p
        order *= 2
    key = (p & 7, order)
    degrees = _DEGREES.get(key)
    if degrees is None:
        degrees = _DEGREES[key] = _frobenius_degrees(a, p)
    return degrees


# --- census ----------------------------------------------------------------


@dataclass(frozen=True)
class Census:
    """Cycle-type counts over all good primes below a bound."""

    c: Fraction
    bound: int
    counts: tuple[tuple[CycleType, int], ...]
    total: int
    skipped: tuple[int, ...]

    def frequencies(self) -> dict[CycleType, Fraction]:
        return {t: Fraction(n, self.total) for t, n in self.counts}

    def as_text(self) -> str:
        lines = [f"census of X^8 + {self.c} over primes < {self.bound}:"
                 f" {self.total} good, skipped {list(self.skipped)}"]
        for t, n in self.counts:
            shape = "+".join(map(str, t))
            lines.append(f"  {shape:15s} {n:6d}  ({Fraction(n, self.total)})")
        return "\n".join(lines)


def census(c: Rational, bound: int) -> Census:
    """factor_mod_p over every good prime below the bound (deterministic);
    the sieve's primes skip factor_mod_p's primality check and go straight
    to the keyed degree table."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    if bound < 100:
        raise ValueError("bound must be at least 100")
    if bound > MAX_CENSUS_BOUND:
        raise ValueError(f"bound must be at most {MAX_CENSUS_BOUND}")
    # Fraction's numerator and denominator are properties: read them once
    num, den = c.numerator, c.denominator
    counts: Counter = Counter()
    skipped = []
    for p in arith.primes_below(bound):
        if p == 2 or num % p == 0 or den % p == 0:
            skipped.append(p)
            continue
        counts[_degrees(-num * pow(den, -1, p) % p, p)] += 1
    total = sum(counts.values())
    ordered = tuple(sorted(counts.items(), key=lambda kv: kv[0], reverse=True))
    return Census(c, bound, ordered, total, tuple(skipped))


def group_cycle_types(G: FinGroup) -> dict[CycleType, Fraction]:
    """Cycle-type proportions of a permutation group on 8 points."""
    if G.degree != 8:
        raise ValueError("need a permutation group on exactly 8 points")
    counts = Counter(g.cycle_type() for g in G)
    return {t: Fraction(n, G.order) for t, n in sorted(counts.items(), reverse=True)}


@dataclass(frozen=True)
class Verdict:
    passed: bool
    worst_deviation: Fraction
    worst_type: CycleType | None
    foreign_types: tuple[CycleType, ...]

    def __str__(self):
        state = "PASS" if self.passed else "FAIL"
        bits = [state]
        if self.foreign_types:
            shapes = ", ".join("+".join(map(str, t)) for t in self.foreign_types)
            bits.append(f"observed types outside the model: {shapes}")
        if self.worst_type is not None:
            shape = "+".join(map(str, self.worst_type))
            bits.append(f"worst deviation {_decimal(self.worst_deviation)}"
                        f" (= {self.worst_deviation}) at {shape}")
        return "; ".join(bits)


def _decimal(q: Fraction, places: int = 4) -> str:
    scaled = round(q * 10 ** places)
    text = f"{scaled:0{places + 1}d}"
    return f"{text[:-places]}.{text[-places:]}"


def consistent(cns: Census, G: FinGroup, tolerance: Rational) -> Verdict:
    """PASS iff every observed cycle type occurs in the group's model and
    every observed frequency is within the absolute tolerance of the model
    proportion."""
    if cns.total < 500:
        raise ValueError(f"census of {cns.total} primes is too small (need 500)")
    tolerance = Fraction(tolerance)
    if tolerance < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    model = group_cycle_types(G)
    freqs = cns.frequencies()
    foreign = tuple(t for t in freqs if t not in model)
    worst: Fraction = Fraction(0)
    worst_type = None
    for t, freq in freqs.items():
        dev = abs(freq - model.get(t, Fraction(0)))
        if dev > worst:
            worst, worst_type = dev, t
    return Verdict(
        passed=not foreign and worst <= tolerance,
        worst_deviation=worst,
        worst_type=worst_type,
        foreign_types=foreign,
    )


# --- stock comparison models -------------------------------------------------


# the classifier outcomes, then candidate groups with no transitive 8-point model
_CANDIDATES = (binomial.TAG_K8, binomial.TAG_D16, binomial.TAG_QD16,
               binomial.TAG_PAULI, binomial.TAG_B32, "C16", "C8xC2", "Q8xC2")


@lru_cache(maxsize=None)
def stock_models() -> dict[str, FinGroup | None]:
    """Transitive 8-point models of the classifier outcomes, plus candidate
    groups that admit no such model (mapped to None).

    The transitive models are full affine subgroups of Hol(C8).
    """
    table = groups.group_models()
    return {name: table[name].model8 for name in _CANDIDATES}


def model_for_tag(tag: binomial.GaloisTag | str) -> FinGroup:
    """The 8-point permutation model matching a classifier verdict."""
    name = tag.name if isinstance(tag, binomial.GaloisTag) else tag
    if name == binomial.TAG_REDUCIBLE:
        raise ValueError("reducible polynomials have no transitive model")
    model = stock_models()[name]
    assert model is not None
    return model
