"""Reference checks that the tests compare the package against.

No subcommand runs any of these.  Each is either a second, independent
route to something the package decides another way (irreducibility by the
classical criteria, Hilbert symbols by brute-force local solubility, form
invariants from rationals, transitivity by orbit search) or a convenience
that only a test reads.  pytest collects only `test_*.py` files, so this
module is imported by the tests and never collected.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from pureoctic import arith, groups, oracle
from pureoctic.arith import Rational, SquareClass, squarefree_part
from pureoctic.groups import FinGroup, Perm
from pureoctic.qforms import Place, TernaryForm, hilbert, relevant_places
from pureoctic.splitting import (
    FieldElt,
    LatticeReport,
    SplittingField,
    WittCertificate,
    _MONOMIALS,
    _reduce,
)

# --- arith --------------------------------------------------------------------


def is_fourth_power(q: Rational) -> bool:
    """True iff q = x^4 for some rational x."""
    return arith.is_nth_power(Fraction(q), 4)


def valuation(q: Rational, p: int) -> int:
    """The exponent v with q = p^v * (p-adic unit); q must be nonzero."""
    if not arith.is_prime(p):
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


# --- binomial -----------------------------------------------------------------


def _prime_divisors(n: int) -> list[int]:
    return [p for p, _ in arith.factor(n).exponents]


def is_irreducible_binomial(n: int, c: Rational) -> bool:
    """Irreducibility of X^n + c over Q (Capelli): -c must not be a q-th
    power for any prime q | n, and when 4 | n, c must not be of the form
    4*lambda^4."""
    c = Fraction(c)
    if n < 1:
        raise ValueError("degree must be positive")
    if c == 0:
        raise ValueError("X^n alone is not a binomial: c must be nonzero")
    for q in _prime_divisors(n):
        if arith.is_nth_power(-c, q):
            return False
    if n % 4 == 0 and is_fourth_power(c / 4):
        return False
    return True


def schinzel_abelian(n: int, c: Rational) -> bool:
    """Abelianity test for the Galois group of X^n + c: true iff c^2 is an
    n-th power in Q.  For irreducible X^n + c this forces a cyclic group when
    4 does not divide n, and C2 x C(n/2) otherwise."""
    c = Fraction(c)
    if n < 1:
        raise ValueError("degree must be positive")
    if c == 0:
        raise ValueError("c must be nonzero")
    return arith.is_nth_power(c * c, n)


# --- groups -------------------------------------------------------------------


def is_transitive(G: FinGroup) -> bool:
    """Does G move point 0 to every point?  An orbit search over the
    generators."""
    orbit = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in G.generators:
            y = g(x)
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return len(orbit) == G.degree


def regular_representation(G: FinGroup) -> FinGroup:
    """The same abstract group acting on itself by left multiplication."""
    return groups.from_multiplication(range(G.order), lambda a, b: G._table[a][b])


def relabel(G: FinGroup, pi: Perm) -> FinGroup:
    """Conjugate every element by a relabeling of the point set."""
    inv = Perm(sorted(range(pi.degree), key=pi))
    return FinGroup([pi * g * inv for g in G.elements],
                    generators=[pi * g * inv for g in G.generators])


def quotient_type(G: FinGroup, N: FinGroup) -> str:
    """Isomorphism type of G/N (N must be normal in G)."""
    return groups.identify(groups.quotient_group(G, N))


def subgroup_count_conventions(G: FinGroup) -> dict[str, int]:
    """Subgroup tallies under both readings of 'proper subgroups'."""
    subs = G.subgroups()
    total = len(subs)
    return {
        "total": total,
        "proper": total - 1,
        "proper_nontrivial": total - 2,
        "normal_total": sum(1 for _, nrm in subs if nrm),
        "normal_proper_nontrivial": sum(
            1 for H, nrm in subs if nrm and 1 < H.order < G.order),
    }


# --- oracle -------------------------------------------------------------------


def transitive_8pt_obstruction(name: str) -> str | None:
    """Why a candidate group of `oracle.stock_models` has no faithful
    transitive action on 8 points: a point stabilizer would be an order-2
    subgroup with trivial core, and these groups have none (every order-2
    subgroup is normal)."""
    models = groups.group_models()
    if name not in oracle.stock_models() or models[name].pairs is not None:
        return None
    order2 = [nrm for H, nrm in models[name].group.subgroups() if H.order == 2]
    if all(order2):
        return (f"every order-2 subgroup of {name} is normal, so no point"
                " stabilizer has trivial core")
    return None


# --- splitting ----------------------------------------------------------------


@lru_cache(maxsize=None)
def reference_mul_table(k: Fraction) -> tuple:
    """Products of basis monomials by the two rules applied one step at a
    time, as (index, Fraction scale): a single monomial times a scalar."""
    table = []
    for i1 in range(16):
        j1, e1 = divmod(i1, 2)
        row = []
        for i2 in range(16):
            j2, e2 = divmod(i2, 2)
            j, e = j1 + j2, e1 + e2
            scale = Fraction(1)
            if e == 2:
                j += 4
                e = 0
                scale /= k       # w^2 = a^4 / k
            while j >= 8:
                j -= 8
                scale *= -k * k  # a^8 = -k^2
            row.append((2 * j + e, scale))
        table.append(tuple(row))
    return tuple(table)


def mul(u: FieldElt, v: FieldElt) -> tuple[Fraction, ...]:
    """The coordinates of u * v, multiplied in Fractions by
    reference_mul_table, independent of the package's integer layout."""
    table = reference_mul_table(u.field.k)
    out = [Fraction(0)] * 16
    for i, x in enumerate(u.coeffs):
        for j, y in enumerate(v.coeffs):
            idx, scale = table[i][j]
            out[idx] += x * y * scale
    return tuple(out)


def roots(E: SplittingField) -> list[FieldElt]:
    """The eight roots a * w^m of X^8 + k^2."""
    return [E.monomial(*_MONOMIALS[idx], Fraction(num, den))
            for idx, num, den in (_reduce(E.k, 1, m) for m in range(8))]


def defining_polynomial_check(E: SplittingField) -> bool:
    """Expand prod(X - a*w^m) in exact field arithmetic and compare
    against X^8 + k^2 coefficient-wise."""
    poly = [E.one()]
    for root in roots(E):
        new = [E.zero()] * (len(poly) + 1)
        for i, coeff in enumerate(poly):
            new[i + 1] = new[i + 1] + coeff
            new[i] = new[i] - root * coeff
        poly = new
    want = [E.monomial(0, 0, E.k ** 2)] + [E.zero()] * 7 + [E.one()]
    return poly == want


def sqrt_of(E: SplittingField, d) -> FieldElt:
    """An exact square root of d, for d in the seven square classes
    {-1, 2, -2, k, -k, 2k, -2k} attached to the field."""
    return E._square_roots[Fraction(d)]


def degree_counts(report: LatticeReport) -> dict[int, int]:
    """How many proper nontrivial subfields the lattice has of each degree."""
    counts: dict[int, int] = {}
    for row in report.rows:
        if 1 < row.degree < 16:
            counts[row.degree] = counts.get(row.degree, 0) + 1
    return counts


def all_hold(cert: WittCertificate) -> bool:
    return (cert.factorization_holds and cert.beta_matches_matrix_diagonal
            and cert.a_minus_abar_nonzero and cert.generates_E_over_L)


# --- qforms -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _square_set(q: int) -> frozenset:
    return frozenset(z * z % q for z in range(q))


@lru_cache(maxsize=None)
def local_solubility_search(a: int, b: int, p: int) -> bool:
    """Brute-force decision of z^2 = a x^2 + b y^2 over Q_p, independent of
    the symbol formulas: search nonsingular solutions mod p (which lift by
    Hensel), then search primitive solutions mod p^(2B+1), a depth at which
    existence is equivalent to p-adic solubility."""
    a = squarefree_part(Fraction(a)).representative
    b = squarefree_part(Fraction(b)).representative
    # fast path: a zero mod p with nonzero gradient lifts
    squares = {}
    for z in range(p):
        squares.setdefault(z * z % p, z)
    for x in range(p):
        for y in range(p):
            t = (a * x * x + b * y * y) % p
            z = squares.get(t)
            if z is None:
                continue
            if (x % p, y % p, z % p) == (0, 0, 0):
                continue
            if any(g % p for g in (2 * a * x, 2 * b * y, 2 * z)):
                return True
    # primitive search at the certified depth: a primitive solution has a
    # unit coordinate, which scaling normalizes to 1
    B = (1 if p == 2 else 0) + max(valuation(a, p), valuation(b, p))
    q = p ** (2 * B + 1)
    sq = _square_set(q)
    a_sq = {a * s % q for s in sq}
    b_sq = {b * s % q for s in sq}
    if not {(1 - s) % q for s in a_sq}.isdisjoint(b_sq):
        return True  # z = 1
    if not {(a + s) % q for s in b_sq}.isdisjoint(sq):
        return True  # x = 1
    if not {(b + s) % q for s in a_sq}.isdisjoint(sq):
        return True  # y = 1
    return False


def hasse_invariant(f: TernaryForm, place: Place) -> int:
    """prod over i < j of (f_i, f_j)_v."""
    a, b, c = f.coefficients
    return hilbert(a, b, place) * hilbert(a, c, place) * hilbert(b, c, place)


def signature(f: TernaryForm) -> tuple[int, int]:
    pos = sum(1 for x in f.coefficients if x > 0)
    return (pos, 3 - pos)


def discriminant_class(f: TernaryForm) -> SquareClass:
    return squarefree_part(f.a * f.b * f.c)


def isotropic(f: TernaryForm) -> bool:
    """Does f represent 0 nontrivially over Q?  Local-global: at the real
    place this means indefinite; at p it means the Hasse invariant equals
    (-1, -disc)_p."""
    if signature(f)[0] in (0, 3):
        return False
    d = f.a * f.b * f.c
    for v in relevant_places(*f.coefficients):
        if v.is_real:
            continue
        if hasse_invariant(f, v) != hilbert(Fraction(-1), -d, v):
            return False
    return True


def isotropy_witness(f: TernaryForm, bound: int = 30):
    """A small nontrivial integer zero of f (signs are immaterial for a
    diagonal form), or None within the bound."""
    scale = math.lcm(*(q.denominator for q in f.coefficients))
    A, B, C = (int(q * scale) for q in f.coefficients)
    squares = [n * n for n in range(bound + 1)]
    for x in range(bound + 1):
        ax = A * squares[x]
        for y in range(bound + 1):
            target = -(ax + B * squares[y])
            if target % C:
                continue
            t = target // C
            if t < 0 or t > squares[-1]:
                continue
            z = math.isqrt(t)
            if z * z == t and (x, y, z) != (0, 0, 0):
                return (x, y, z)
    return None
