"""Exact integer and rational arithmetic: primality, factorization, square
classes and integer roots.

Everything downstream (the octic classifier, Hilbert symbols, the splitting
field) works over Q with exact arithmetic; this module is the substrate.
A rational, annotated "Rational", is the self-reducing pair `RationalParts`
that every literal reads as, an int, or a `fractions.Fraction` from a
library caller, so none is ever unreduced; the functions here read only
its `numerator` and `denominator`, so no request path loads `fractions`.

`factor` trial-divides to 10^6 and then runs Brent's rho under a fixed
budget of modular multiplications, weighted by size; an integer it cannot split within the budget raises
`FactoringError`, a `ValueError`, so a caller reports it as bad input
rather than running without bound.  `squarefree_part` factors a rational
once into its `SquareClass`, which keeps the primes it found; `PrimeBasis`
treats some classes as vectors over F2, a sign bit plus one bit per prime,
so that a product of classes is an XOR and no product is factored again.
"""

import itertools
import math
from collections import namedtuple

# the 12-prime base set is proven deterministic below _MR_PROVEN_BOUND
# (3.317e24, ~2^81).  Past it the wider fixed set is a heuristic, not a
# proof: inputs reach 4300 digits, and Arnault (Math. Comp. 64, 1995)
# built a 337-digit composite that is a strong pseudoprime to every prime
# base below 200.  ROADMAP direction 3 plans BPSW for that range
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


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases, a proof only below _MR_PROVEN_BOUND."""
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


class Factorization(namedtuple("Factorization", "sign exponents")):
    """sign * prod(p^e): exponents holds the pairs (p, e), primes in
    increasing order and all e != 0."""

    __slots__ = ()


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
        if is_prime(m):
            exps[m] = exps.get(m, 0) + 1
            continue
        d, spent = _brent_rho(m, budget)
        budget -= spent
        stack.append(d)
        stack.append(m // d)
    return Factorization(sign, tuple(sorted(exps.items())))


class RationalParts(namedtuple("RationalParts", "numerator denominator")):
    """n/d in lowest terms with d > 0, as `Fraction(n, d)` keeps it from any
    pair it is built from, and printed as a Fraction prints it."""

    __slots__ = ()

    def __new__(cls, numerator: int, denominator: int):
        # times the sign of d, which is 0 for d = 0: then `//` raises
        # ZeroDivisionError, as Fraction(n, 0) does
        g = math.gcd(numerator, denominator) * ((denominator > 0) - (denominator < 0))
        return super().__new__(cls, numerator // g, denominator // g)

    # namedtuple's `_make`, which `_replace` calls too, skips `__new__`
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __str__(self) -> str:
        num, den = self
        return f"{num}" if den == 1 else f"{num}/{den}"


def squared_text(r: "Rational") -> str:
    """r^2 for display, with a fraction in parentheses: 3^2, (3/2)^2."""
    return f"{r}^2" if r.denominator == 1 else f"({r})^2"


class SquareClass(namedtuple("SquareClass", "representative primes")):
    """A coset of Q*/(Q*)^2, represented by its signed square-free integer
    and the tuple of the primes dividing it, ascending.

    Two rationals land in the same class iff their quotient is a rational
    square.  Products of classes are taken as F2 vectors over a
    `PrimeBasis`.
    """

    __slots__ = ()

    def __new__(cls, representative: int, primes: tuple[int, ...]):
        if representative == 0:
            raise ValueError("square class of 0 is undefined")
        if math.prod(primes) != abs(representative):
            raise ValueError("primes do not match the representative")
        return super().__new__(cls, representative, primes)


def squarefree_part(q: "Rational") -> SquareClass:
    """The class of q: the signed square-free t with q/t a rational square.
    The numerator and the denominator are factored apart, a budget each."""
    if q.numerator == 0:
        raise ValueError("0 has no square-free part")
    primes = sorted(p for n in (q.numerator, q.denominator) if abs(n) != 1
                    for p, e in factor(n).exponents if e % 2)
    return SquareClass(math.prod(primes, start=-1 if q.numerator < 0 else 1),
                       tuple(primes))


class PrimeBasis:
    """Some square classes as vectors over F2.

    The basis is 2 and the primes of the classes, ascending.  A class is an
    int: bit 0 is the sign and bit i + 1 is `primes[i]`, so the class of a
    product is the XOR of the classes and 0 is the class of the squares.
    `vectors` holds the given `SquareClass`es, in order.
    """

    def __init__(self, classes: "Iterable[SquareClass]"):
        classes = tuple(classes)
        self.primes = tuple(sorted({2}.union(*(c.primes for c in classes))))
        bit = {p: 2 << i for i, p in enumerate(self.primes)}
        self.vectors = tuple(int(c.representative < 0) | sum(bit[p] for p in c.primes)
                             for c in classes)

    def vector(self, q: "Rational") -> int:
        """The class of q, found by dividing out the basis primes alone;
        ValueError if an odd power of another prime divides q."""
        if q.numerator == 0:
            raise ValueError("0 has no square-free part")
        v = int(q.numerator < 0)
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


def nth_root(q: "Rational", k: int) -> RationalParts | None:
    """The rational k-th root of q, or None if there is none.

    For even k the nonnegative root is returned; q = 0 gives 0.
    """
    num, den = q.numerator, q.denominator
    if num < 0 and k % 2 == 0:
        return None
    rn, okn = _iroot(abs(num), k)
    rd, okd = _iroot(den, k)
    if not (okn and okd):
        return None
    return RationalParts(-rn if num < 0 else rn, rd)


def primes_below(bound: int) -> list[int]:
    """All primes < bound, by a sieve over the odd numbers."""
    if bound <= 2:
        return []
    # sieve[i] stands for 2i + 1; an odd prime p strikes p^2, p^2 + 2p, ...
    sieve = bytearray([1]) * (bound // 2)
    sieve[0] = 0
    for p in range(3, math.isqrt(bound - 1) + 1, 2):
        if sieve[p >> 1]:
            sieve[p * p >> 1 :: p] = bytes(len(range(p * p >> 1, len(sieve), p)))
    return [2, *itertools.compress(range(1, bound, 2), sieve)]
