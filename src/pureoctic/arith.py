"""Exact integer and rational arithmetic: factorization, square classes,
integer roots and Legendre symbols.

Everything downstream (the octic classifier, Hilbert symbols, the splitting
field) works over Q with exact arithmetic; this module is the substrate.
Rationals are `fractions.Fraction` throughout (always reduced, positive
denominator).

`factor` trial-divides to 10^6 and then runs Brent's rho under a fixed
budget of modular multiplications, weighted by size; an integer it cannot split within the budget raises
`FactoringError`, a `ValueError`, so a caller reports it as bad input
rather than running without bound.  `squarefree_part` factors a rational
once into its `SquareClass`, which keeps the primes it found; `PrimeBasis`
treats some classes as vectors over F2, a sign bit plus one bit per prime,
so that a product of classes is an XOR and no product is factored again.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

# the 12-prime base set is proven deterministic below 3.317e24 (~2^81);
# past that, a wider fixed set keeps the test deterministic and is far
# beyond any input this package factors
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES_WIDE = _MR_BASES + (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
_TRIAL_BOUND = 10 ** 6
# what one `factor` call may spend in rho past trial division, in units of
# 10-20 ns: a multiplication mod a w-word n (64-bit words) costs
# 16 + 4w + w^2, the interpreter's fixed cost per operation plus the
# multiplication and division of w-word integers.  The budget is 2-4 s at
# any size, enough for two 13-digit prime factors
_RHO_BUDGET = 200_000_000
_RHO_BATCH = 128
_RATIONAL_LITERAL = re.compile(r"[+-]?\d+(_\d+)*(/\d+(_\d+)*)?")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = _MR_BASES if n < _MR_PROVEN_BOUND else _MR_BASES_WIDE
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FactoringError(ValueError):
    """An integer that `factor` could not split within its budget."""


def _brent_rho(n: int, budget: int) -> tuple[int, int]:
    """One nontrivial factor of the odd composite n by Brent's variant of
    Pollard rho (BIT 20, 1980): the differences are multiplied together in
    batches of _RHO_BATCH per gcd.  Returns (factor, budget spent), and
    raises FactoringError rather than spend more than `budget`."""
    words = -(-n.bit_length() // 64)
    step = 16 + 4 * words + words * words
    spent = 0

    def charge(multiplications: int) -> None:
        nonlocal spent
        spent += multiplications * step
        if spent > budget:
            raise FactoringError(f"cannot factor a {len(str(n))}-digit integer"
                                 " within the factoring budget")

    for c in range(1, 100):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            charge(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                charge(2 * batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: replay its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, spent
    raise FactoringError(f"cannot factor a {len(str(n))}-digit integer:"
                         " rho failed for every c < 100")


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p^e) with primes in increasing order and all e != 0."""

    sign: int
    exponents: tuple[tuple[int, int], ...]


def factor(n: int) -> Factorization:
    """Factor a nonzero integer: trial division to 10^6, then Brent's rho
    with Miller-Rabin certification of every reported prime.  Raises
    FactoringError when rho would spend more than _RHO_BUDGET."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    exps: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            exps[p] = exps.get(p, 0) + 1
            n //= p
    # wheel over numbers coprime to 30
    q = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while q * q <= n and q <= _TRIAL_BOUND:
        while n % q == 0:
            exps[q] = exps.get(q, 0) + 1
            n //= q
        q += increments[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    budget = _RHO_BUDGET
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            exps[m] = exps.get(m, 0) + 1
            continue
        d, spent = _brent_rho(m, budget)
        budget -= spent
        stack.append(d)
        stack.append(m // d)
    return Factorization(sign, tuple(sorted(exps.items())))


@dataclass(frozen=True)
class SquareClass:
    """A coset of Q*/(Q*)^2, represented by its signed square-free integer
    and the primes dividing it, ascending.

    Two rationals land in the same class iff their quotient is a rational
    square.  Products of classes are taken as F2 vectors over a
    `PrimeBasis`.
    """

    representative: int
    primes: tuple[int, ...]

    def __post_init__(self):
        if self.representative == 0:
            raise ValueError("square class of 0 is undefined")
        if math.prod(self.primes) != abs(self.representative):
            raise ValueError("primes do not match the representative")


def squarefree_part(q: Rational | int) -> SquareClass:
    """The class of q: the signed square-free t with q/t a rational square.
    The numerator and the denominator are factored once each."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no square-free part")
    primes = sorted(p for n in (q.numerator, q.denominator) if abs(n) != 1
                    for p, e in factor(n).exponents if e % 2)
    return SquareClass(math.prod(primes, start=-1 if q < 0 else 1), tuple(primes))


class PrimeBasis:
    """Some square classes as vectors over F2.

    The basis is 2 and the primes of the classes, ascending.  A class is an
    int: bit 0 is the sign and bit i + 1 is `primes[i]`, so the class of a
    product is the XOR of the classes and 0 is the class of the squares.
    `vectors` holds the given `SquareClass`es, in order.
    """

    def __init__(self, classes: Iterable[SquareClass]):
        classes = tuple(classes)
        self.primes = tuple(sorted({2}.union(*(c.primes for c in classes))))
        bit = {p: 2 << i for i, p in enumerate(self.primes)}
        self.vectors = tuple(int(c.representative < 0) | sum(bit[p] for p in c.primes)
                             for c in classes)

    def vector(self, q: Rational | int) -> int:
        """The class of q, found by dividing out the basis primes alone;
        ValueError if an odd power of another prime divides q."""
        q = Fraction(q)
        if q == 0:
            raise ValueError("0 has no square-free part")
        v = int(q < 0)
        n = abs(q.numerator) * q.denominator
        for i, p in enumerate(self.primes):
            while n % p == 0:
                n //= p
                v ^= 2 << i
        if math.isqrt(n) ** 2 != n:
            raise ValueError(f"the square class of {q} is outside the basis")
        return v

    def representative(self, v: int) -> int:
        """The signed square-free integer of class v, as `squarefree_part`
        gives it."""
        t = -1 if v & 1 else 1
        for p in self.primes:
            v >>= 1
            if v & 1:
                t *= p
        return t


def f2_rank(vectors) -> int:
    """The rank over F2 of the span of some class vectors."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def _iroot(n: int, k: int) -> tuple[int, bool]:
    """Integer k-th root of n >= 0: returns (floor(n^(1/k)), exact?)."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n, True
    if k == 2:
        r = math.isqrt(n)
        return r, r * r == n
    # integer Newton from 2^ceil(bits/k) > n^(1/k): the iterates decrease
    # strictly until they reach the floor of the root
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r, r ** k == n
        r = s


def nth_root(q: Rational, k: int) -> Rational | None:
    """The rational k-th root of q, or None if there is none.

    For even k the nonnegative root is returned; q = 0 gives 0.
    """
    q = Fraction(q)
    if q == 0:
        return Fraction(0)
    if q < 0:
        if k % 2 == 0:
            return None
        r = nth_root(-q, k)
        return None if r is None else -r
    rn, okn = _iroot(q.numerator, k)
    if not okn:
        return None
    rd, okd = _iroot(q.denominator, k)
    if not okd:
        return None
    return Fraction(rn, rd)


def is_nth_power(q: Rational, k: int) -> bool:
    return nth_root(q, k) is not None


def is_square(q: Rational) -> bool:
    """True iff q = x^2 for some rational x (q = 0 included)."""
    return is_nth_power(Fraction(q), 2)


def legendre(a: int, p: int) -> int:
    """Quadratic-residue symbol (a/p) for an odd prime p: +1, -1, or 0."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def primes_below(bound: int) -> list[int]:
    """All primes < bound by a plain sieve."""
    if bound <= 2:
        return []
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return list(itertools.compress(range(bound), sieve))


def parse_rational(text: str) -> Rational:
    """Parse 'p/q' or an integer literal into an exact Fraction; decimal and
    exponent literals such as '0.5' or '1e3' are rejected."""
    literal = text.strip()
    if not _RATIONAL_LITERAL.fullmatch(literal):
        raise ValueError(f"not a rational number: {text!r}")
    # int() takes the underscores on every supported Python; Fraction(str)
    # only from 3.11
    num, _, den = literal.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
