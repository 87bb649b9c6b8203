"""Exact integer and rational arithmetic: factorization, square classes,
valuations and Legendre symbols.

Everything downstream (the octic classifier, Hilbert symbols, the splitting
field) works over Q with exact arithmetic; this module is the substrate.
Rationals are `fractions.Fraction` throughout (always reduced, positive
denominator).
"""

from __future__ import annotations

import math
import re
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


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of odd composite n (Floyd's cycle finding)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # not reachable at desk scale


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p^e) with primes in increasing order and all e != 0."""

    sign: int
    exponents: tuple[tuple[int, int], ...]

    def value(self) -> int:
        v = self.sign
        for p, e in self.exponents:
            v *= p ** e
        return v

    def as_dict(self) -> dict[int, int]:
        return dict(self.exponents)


def factor(n: int) -> Factorization:
    """Factor a nonzero integer: trial division to 10^6, then Pollard rho
    with Miller-Rabin certification of every reported prime."""
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
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            exps[m] = exps.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(sign, tuple(sorted(exps.items())))


@dataclass(frozen=True)
class SquareClass:
    """A coset of Q*/(Q*)^2, represented by its signed square-free integer.

    Two rationals land in the same class iff their quotient is a rational
    square; multiplication is the group law of Q*/(Q*)^2.
    """

    representative: int

    def __post_init__(self):
        if self.representative == 0:
            raise ValueError("square class of 0 is undefined")

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return squarefree_part(Fraction(self.representative * other.representative))

    def is_trivial(self) -> bool:
        return self.representative == 1

    def __str__(self) -> str:
        return str(self.representative)


def squarefree_part(q: Rational | int) -> SquareClass:
    """The signed square-free t with q/t a rational square."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no square-free part")
    # numerator*denominator differs from q by the square denominator^2
    n = q.numerator * q.denominator
    f = factor(n)
    t = f.sign
    for p, e in f.exponents:
        if e % 2:
            t *= p
    return SquareClass(t)


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


def is_fourth_power(q: Rational) -> bool:
    """True iff q = x^4 for some rational x."""
    return is_nth_power(Fraction(q), 4)


def valuation(q: Rational, p: int) -> int:
    """The exponent v with q = p^v * (p-adic unit); q must be nonzero."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


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
    return [i for i in range(bound) if sieve[i]]


def parse_rational(text: str) -> Rational:
    """Parse 'p/q' or an integer literal into an exact Fraction; decimal and
    exponent literals such as '0.5' or '1e3' are rejected."""
    literal = text.strip()
    if not _RATIONAL_LITERAL.fullmatch(literal):
        raise ValueError(f"not a rational number: {text!r}")
    try:
        return Fraction(literal)
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
