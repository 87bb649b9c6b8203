"""Hilbert symbols over Q, equivalence of ternary diagonal forms, and the
embedding criteria they decide.

(a, b)_v = +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the
completion of Q at the place v.  Two quaternion criteria are exposed:

  * the classical one for pushing a biquadratic V4-extension into a
    quaternion Q8-extension:  [a, b, ab] ~ [1, 1, 1];
  * the triquadratic one for pushing an E8-extension into a Pauli
    extension:  [a, b, ab] ~ [1, c, c],
    together with the symbol form (abc, -1) = (a, b) and the search for
    rewritten triplets inside S_L = {a, b, ab, c, ac, bc, abc}.

Everything is decided at the finitely many relevant places: infinity, 2,
and the odd primes dividing a square-free part of a coefficient.

`equivalent` and the criteria run on a `ClassSpace`: the inputs are
factored once into an `arith.PrimeBasis`, every class in their span is
then an F2 vector over it, and each relevant place gets one table of the
Hilbert symbols of the generators.  Each criterion takes an optional
space, so that a caller asking several questions of the same a, b, c
factors them once; the 210 ordered triplets of the S_L search are table
lookups.  The scalar `hilbert`, from rationals by the local unit formulas,
and `relevant_places` are the reference that the tables are tested
against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import arith
from .arith import Rational, squarefree_part


@dataclass(frozen=True)
class Place:
    """A place of Q: a prime number, or None for the real place."""

    p: int | None

    def __post_init__(self):
        if self.p is not None and not arith.is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_real(self) -> bool:
        return self.p is None


REAL_PLACE = Place(None)


def _square_class_int(a: Rational) -> int:
    """An integer in the square class of a (numerator times denominator)."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("square class of 0 is undefined")
    return a.numerator * a.denominator


def _eps(u: int) -> int:
    return ((u - 1) // 2) % 2


def _omega(u: int) -> int:
    return ((u * u - 1) // 8) % 2


def hilbert(a: Rational, b: Rational, place: Place) -> int:
    """The Hilbert symbol (a, b)_v by the standard local unit formulas."""
    a = _square_class_int(a)
    b = _square_class_int(b)
    if place.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = place.p
    alpha, u = 0, a
    while u % p == 0:
        u //= p
        alpha += 1
    beta, w = 0, b
    while w % p == 0:
        w //= p
        beta += 1
    if p == 2:
        exponent = _eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)
        return -1 if exponent % 2 else 1
    sign = 1
    if alpha * beta % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= arith.legendre(u, p)
    if alpha % 2:
        sign *= arith.legendre(w, p)
    return sign


def relevant_places(*values: Rational) -> list[Place]:
    """Infinity, 2, and every odd prime dividing a square-free part; the
    Hilbert symbols of the given values are +1 everywhere else."""
    primes = set()
    for v in values:
        rep = squarefree_part(v).representative
        for p, _ in arith.factor(rep).exponents:
            if p != 2:
                primes.add(p)
    return [REAL_PLACE, Place(2)] + [Place(p) for p in sorted(primes)]


@dataclass(frozen=True)
class TernaryForm:
    """A nondegenerate diagonal form <a, b, c> over Q."""

    a: Fraction
    b: Fraction
    c: Fraction

    @classmethod
    def of(cls, a, b, c) -> "TernaryForm":
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if 0 in (a, b, c):
            raise ValueError("form coefficients must be nonzero")
        return cls(a, b, c)

    @property
    def coefficients(self):
        return (self.a, self.b, self.c)


def equivalent(f: TernaryForm, g: TernaryForm, space: ClassSpace | None = None) -> bool:
    """Rational equivalence of ternary forms: same discriminant class, same
    signature, same Hasse invariant at every relevant place.  `space`, a
    `ClassSpace` whose basis holds every coefficient's class, spares
    factoring the coefficients."""
    space = space or ClassSpace(*f.coefficients, *g.coefficients)
    return space.equivalent(tuple(map(space.vector, f.coefficients)),
                            tuple(map(space.vector, g.coefficients)))


def _symbol_rows(primes: tuple[int, ...], p: int | None) -> tuple[int, ...]:
    """The Hilbert symbols at the place p (None: the real place) of the
    generators -1, primes[0] = 2, primes[1], ... of the class vectors of
    `arith.PrimeBasis`: row i is the bitmask of the j with (g_i, g_j)_p = -1.
    Read off the Legendre symbols of the generators mod an odd p, and their
    residues mod 8 at p = 2."""
    gens = (-1,) + primes
    if p is None:
        return (1,) + (0,) * len(primes)  # (-1, -1) = -1 only
    if p == 2:
        # g = 2^alpha * u with u odd, as in `hilbert`: the symbol (g, g')_2 has
        # exponent eps(u)eps(u') + alpha*omega(u') + alpha'*omega(u)
        alpha = [int(g == 2) for g in gens]
        unit = [1 if g == 2 else g % 8 for g in gens]
        eps = [_eps(u) for u in unit]
        omega = [_omega(u) for u in unit]
        return tuple(
            sum(((eps[i] * eps[j] + alpha[i] * omega[j] + alpha[j] * omega[i]) % 2) << j
                for j in range(len(gens)))
            for i in range(len(gens)))
    # at odd p only p itself pairs nontrivially: (p, g)_p = (g/p), (p, p)_p = (-1/p)
    at = gens.index(p)
    chi = [int(arith.legendre(-1 if g == p else g, p) == -1) for g in gens]
    return tuple(sum(bit << j for j, bit in enumerate(chi)) if i == at else chi[i] << at
                 for i in range(len(gens)))


def _symbol(rows: tuple[int, ...], u: int, w: int) -> int:
    """The Hilbert symbol of class vectors u, w at the place of `rows`, as
    an F2 exponent: 0 for +1 and 1 for -1."""
    acc = 0
    for row in rows:
        if not u:
            break
        if u & 1:
            acc ^= row
        u >>= 1
    return (acc & w).bit_count() & 1


def _hasse(rows: tuple[int, ...], form) -> int:
    """The Hasse invariant prod over i < j of (f_i, f_j)_p of a form of
    class vectors, as an F2 exponent."""
    a, b, c = form
    return _symbol(rows, a, b) ^ _symbol(rows, a, c) ^ _symbol(rows, b, c)


class ClassSpace:
    """The square classes of some nonzero rationals as F2 vectors over one
    `arith.PrimeBasis`, with one table of Hilbert symbols per relevant place.

    The values are factored once, when the space is built; every class in
    their span has a vector (`vector` finds it by dividing out the basis
    primes), and every class product, independence test, Hilbert symbol and
    form equivalence after that works on the vectors alone.  A diagonal
    ternary form is a triple of vectors; `vectors` holds the classes of the
    values, in order.
    """

    def __init__(self, *values: Rational):
        self.basis = arith.PrimeBasis(squarefree_part(q) for q in values)
        self.vectors = self.basis.vectors
        self.vector = self.basis.vector
        self.representative = self.basis.representative
        # the real place, 2 and the odd basis primes, each of which divides
        # a square-free part of some value
        self._tables = {p: _symbol_rows(self.basis.primes, p)
                        for p in (None,) + self.basis.primes}

    def independent(self, values, message: str) -> tuple[int, ...]:
        """The vectors of `values`; ValueError(message) unless they are
        independent."""
        vectors = tuple(map(self.vector, values))
        if arith.f2_rank(vectors) != len(vectors):
            raise ValueError(message)
        return vectors

    def equivalent(self, f, g) -> bool:
        """`equivalent` for forms given as triples of class vectors."""
        if f[0] ^ f[1] ^ f[2] != g[0] ^ g[1] ^ g[2]:
            return False
        # bit 0 is the sign, so this compares the signatures
        if sum(v & 1 for v in f) != sum(v & 1 for v in g):
            return False
        return all(_hasse(rows, f) == _hasse(rows, g)
                   for rows in self._tables.values())

    def pauli_embeddable(self, x: int, y: int, z: int) -> bool:
        """Condition (15) of `pauli_embeddable` for class vectors."""
        return self.equivalent((x, y, x ^ y), (0, z, z))

    def brauer_condition(self, x: int, y: int, z: int) -> bool:
        """`brauer_condition` for class vectors; -1 is the vector 1."""
        return all(_symbol(rows, x ^ y ^ z, 1) == _symbol(rows, x, y)
                   for rows in self._tables.values())

    @staticmethod
    def sl_classes(x: int, y: int, z: int) -> list[int]:
        """`sl_classes` as class vectors."""
        return [x, y, x ^ y, z, x ^ z, y ^ z, x ^ y ^ z]

    @staticmethod
    def triplets(classes):
        """The ordered triplets (u, v, w) of distinct classes with w != uv:
        on the seven classes of S_L, exactly the independent ones."""
        return ((u, v, w) for u, v, w in itertools.permutations(classes, 3)
                if w != u ^ v)


_INDEPENDENT = "a, b, c must be quadratically independent"


def witt_embeddable(a1: Rational, a2: Rational, space: ClassSpace | None = None) -> bool:
    """Can the biquadratic field Q(sqrt(a1), sqrt(a2)) be pushed into a
    quaternion Q8-extension of Q?  Holds iff [a1, a2, a1*a2] ~ [1, 1, 1].
    `space`, as in `equivalent`, must hold the classes of a1 and a2."""
    space = space or ClassSpace(a1, a2)
    space.independent((a1, a2), "a1, a2 must be quadratically independent"
                                " non-squares (the V4 hypothesis fails)")
    return equivalent(TernaryForm.of(a1, a2, a1 * a2), TernaryForm.of(1, 1, 1), space)


def pauli_embeddable(a: Rational, b: Rational, c: Rational,
                     space: ClassSpace | None = None) -> bool:
    """Embedding criterion for Q(sqrt(a), sqrt(b), sqrt(c)) into a Pauli
    extension with the quaternion part over Q(sqrt(c)):
    [a, b, ab] ~ [1, c, c]."""
    space = space or ClassSpace(a, b, c)
    space.independent((a, b, c), _INDEPENDENT)
    return equivalent(TernaryForm.of(a, b, a * b), TernaryForm.of(1, c, c), space)


def brauer_condition(a: Rational, b: Rational, c: Rational,
                     space: ClassSpace | None = None) -> bool:
    """The quaternion-algebra form of the criterion: (abc, -1) = (a, b) as
    Hilbert symbols at every relevant place."""
    space = space or ClassSpace(a, b, c)
    return space.brauer_condition(*space.independent((a, b, c), _INDEPENDENT))


def sl_classes(a: Rational, b: Rational, c: Rational,
               space: ClassSpace | None = None) -> list[int]:
    """The seven nontrivial square classes {a, b, ab, c, ac, bc, abc} of the
    triquadratic field generated by a, b, c."""
    space = space or ClassSpace(a, b, c)
    vectors = space.independent((a, b, c), _INDEPENDENT)
    return [space.representative(v) for v in space.sl_classes(*vectors)]


def sl_search(a: Rational, b: Rational, c: Rational,
              space: ClassSpace | None = None) -> list[tuple[int, int, int]]:
    """All ordered triplets (u, v, x) of pairwise-distinct, quadratically
    independent classes from S_L with [u, v, uv] ~ [1, x, x].  A nonempty
    result rewrites the generating triplet so the embedding criterion holds
    for the same field."""
    space = space or ClassSpace(a, b, c)
    rep = space.representative
    classes = space.sl_classes(*space.independent((a, b, c), _INDEPENDENT))
    return [(rep(u), rep(v), rep(x)) for u, v, x in space.triplets(classes)
            if space.pauli_embeddable(u, v, x)]
