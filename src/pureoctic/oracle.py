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

Distinct-degree factorization is cheap here because the modulus is a
binomial: x^N mod (x^8 + c) is the monomial (-c)^(N div 8) * x^(N mod 8),
so each x^(p^d) costs one modular exponentiation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import arith, binomial, groups
from .arith import Rational
from .groups import FinGroup

CycleType = tuple[int, ...]


# --- dense polynomial helpers over F_p (ascending coefficient lists) -------


def _trim(poly):
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_mod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        factor = f[-1] * inv_lead % p
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - factor * gc) % p
        _trim(f)
    return f


def _poly_divmod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    quotient = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        factor = f[-1] * inv_lead % p
        quotient[shift] = factor
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - factor * gc) % p
        _trim(f)
    return _trim(quotient), f


def _poly_gcd(f, g, p):
    f, g = list(f), list(g)
    while g:
        f, g = g, _poly_mod(f, g, p)
    if f:
        inv = pow(f[-1], p - 2, p)
        f = [c * inv % p for c in f]
    return f


def factor_mod_p(c: Rational, p: int) -> CycleType:
    """Degrees of the irreducible factors of X^8 + c over F_p, decreasing.

    Distinct-degree factorization; p must be odd and coprime to c.  The
    polynomial is automatically square-free for such p.
    """
    c = Fraction(c)
    if p == 2 or not arith.is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if c.numerator % p == 0 or c.denominator % p == 0:
        raise ValueError(f"{p} divides c = {c}: bad prime")
    cbar = c.numerator * pow(c.denominator, p - 2, p) % p
    g = [cbar] + [0] * 7 + [1]
    degrees = []
    d = 1
    while 2 * d <= len(g) - 1:
        # x^(p^d) mod (x^8 + c) is a monomial
        N = p ** d
        coef = pow(-cbar % p, N // 8, p)
        exp = N % 8
        h = [0] * exp + [coef]
        h = _poly_mod(h, g, p)
        h = list(h) + [0] * max(0, 2 - len(h))
        h[1] = (h[1] - 1) % p  # h := x^(p^d) - x  (mod g)
        common = _poly_gcd(g, _trim(h), p)
        if len(common) - 1 > 0:
            degrees.extend([d] * ((len(common) - 1) // d))
            g, rem = _poly_divmod(g, common, p)
            assert not rem
        d += 1
    if len(g) - 1 > 0:
        degrees.append(len(g) - 1)
    return tuple(sorted(degrees, reverse=True))


def brute_force_factor_degrees(c: Rational, p: int) -> CycleType:
    """Factor degrees by exhaustive trial division over F_p (p small): the
    independent cross-check for factor_mod_p."""
    c = Fraction(c)
    cbar = c.numerator * pow(c.denominator, p - 2, p) % p
    f = [cbar] + [0] * 7 + [1]
    degrees = []
    d = 1
    while len(f) - 1 > 1:
        if d > (len(f) - 1) // 2:
            break
        found = False
        # monic candidates of degree d, low coefficients counting in base p
        for code in range(p ** d):
            cand = []
            x = code
            for _ in range(d):
                cand.append(x % p)
                x //= p
            cand.append(1)
            q, rem = _poly_divmod(f, cand, p)
            if not rem and _is_irreducible_small(cand, p):
                f = q
                degrees.append(d)
                found = True
                break
        if not found:
            d += 1
    if len(f) - 1 > 0:
        degrees.append(len(f) - 1)
    return tuple(sorted(degrees, reverse=True))


def _is_irreducible_small(f, p):
    deg = len(f) - 1
    if deg == 1:
        return True
    for code in range(p, p ** ((deg // 2) + 1)):
        cand = []
        x = code
        while x:
            cand.append(x % p)
            x //= p
        if len(cand) - 1 < 1 or cand[-1] == 0:
            continue
        if len(cand) - 1 > deg // 2:
            break
        inv = pow(cand[-1], p - 2, p)
        cand = [ci * inv % p for ci in cand]
        if not _poly_mod(f, cand, p):
            return False
    return True


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
    """factor_mod_p over every good prime below the bound (deterministic)."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    if bound < 100:
        raise ValueError("bound must be at least 100")
    counts: Counter = Counter()
    skipped = []
    for p in arith.primes_below(bound):
        if p == 2 or c.numerator % p == 0 or c.denominator % p == 0:
            skipped.append(p)
            continue
        counts[factor_mod_p(c, p)] += 1
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

    The transitive models are full affine subgroups of Hol(C8); each is
    fingerprint-checked against the name its registry entry expects.
    """
    table = groups.group_models()
    models = {name: table[name].model8 for name in _CANDIDATES}
    for name, model in models.items():
        if model is None:
            continue
        if not model.is_transitive():
            raise AssertionError(f"{name} model is not transitive")
        if groups.identify(model) != table[name].identity:
            raise AssertionError(f"{name} model has the wrong fingerprint")
    return models


def transitive_8pt_obstruction(name: str) -> str | None:
    """Why a candidate group has no faithful transitive action on 8 points:
    a point stabilizer would be an order-2 subgroup with trivial core, and
    these groups have none (every order-2 subgroup is normal)."""
    if name not in _CANDIDATES or groups.group_models()[name].pairs is not None:
        return None
    G = groups.group_models()[name].group
    order2 = [(H, nrm) for H, nrm in G.subgroups() if H.order == 2]
    if all(nrm for _, nrm in order2):
        return (f"every order-2 subgroup of {name} is normal, so no point"
                " stabilizer has trivial core")
    return None


def model_for_tag(tag: binomial.GaloisTag | str) -> FinGroup:
    """The 8-point permutation model matching a classifier verdict."""
    name = tag.name if isinstance(tag, binomial.GaloisTag) else tag
    if name == binomial.TAG_REDUCIBLE:
        raise ValueError("reducible polynomials have no transitive model")
    model = stock_models()[name]
    assert model is not None
    return model
