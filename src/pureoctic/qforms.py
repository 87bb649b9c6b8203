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
and the odd primes dividing a square-free part of a coefficient.  A
diagonal ternary form <a, b, c> is the triple (a, b, c) of nonzero
rationals, each a "Rational" of `arith`.

`equivalent` and the criteria run on a `ClassSpace`: the inputs are
factored once into an `arith.PrimeBasis`, every class in their span is
then an F2 vector over it, and each unordered pair of classes gets one
word, an int whose bit i is its Hilbert symbol at the i-th relevant
place, computed the first time the pair is asked for.  A word is read
straight from the pair's signed square-free representatives by the local
formulas: one modular power at each odd basis prime that divides one of
them, and none anywhere else.  A Hasse invariant at every place is then
the XOR of three words, and each criterion compares two.  The symbol form (14) is asked of a space alone, and
only `equivalent` and `witt_embeddable` take an optional one, so that a
caller asking several questions of the same a, b, c factors them once.
The S_L search visits the 210 ordered triplets of its seven classes and
decides (15) on each of the 168 independent ones.  A space keeps no
decisions: `embed` makes them once and hands the same list to its
triplets and to its comparison table.  The scalar `hilbert`, from
rationals by the local unit formulas, and `relevant_places` are the
reference that the words are tested against; a word never calls them.
"""

import itertools
from collections import namedtuple

from . import arith
from .arith import squarefree_part


class Place(namedtuple("Place", "p")):
    """A place of Q: a prime number, or None for the real place."""

    __slots__ = ()

    def __new__(cls, p: int | None):
        if p is not None and not arith.is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)

    @classmethod
    def _unchecked(cls, p: int) -> "Place":
        # a prime that `arith.factor` reported needs no second proof
        return tuple.__new__(cls, (p,))

    @property
    def is_real(self) -> bool:
        return self.p is None


REAL_PLACE = Place(None)


def _square_class_int(a: "Rational") -> int:
    """An integer in the square class of a (numerator times denominator)."""
    if a.numerator == 0:
        raise ValueError("square class of 0 is undefined")
    return a.numerator * a.denominator


def _eps(u: int) -> int:
    return ((u - 1) // 2) % 2


def _omega(u: int) -> int:
    return ((u * u - 1) // 8) % 2


def hilbert(a: "Rational", b: "Rational", place: Place) -> int:
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
    # (-1)^(alpha beta eps(p)) (u/p)^beta (w/p)^alpha is the residue symbol
    # of (-1)^(alpha beta) u^beta w^alpha, read by Euler's criterion
    x = (-1) ** (alpha * beta) * u ** (beta % 2) * w ** (alpha % 2)
    return 1 if pow(x, p >> 1, p) == 1 else -1


def relevant_places(*values: "Rational") -> list[Place]:
    """Infinity, 2, and every odd prime dividing a square-free part; the
    Hilbert symbols of the given values are +1 everywhere else."""
    primes = set()
    for v in values:
        primes.update(p for p in squarefree_part(v).primes if p != 2)
    return [REAL_PLACE, *map(Place._unchecked, [2, *sorted(primes)])]


def equivalent(f, g, space: "ClassSpace | None" = None) -> bool:
    """Rational equivalence of ternary forms, each a triple of nonzero
    rationals: same discriminant class, same signature, same Hasse invariant
    at every relevant place.  `space`, a `ClassSpace` whose basis holds
    every coefficient's class, spares factoring the coefficients.  A zero
    coefficient raises ValueError."""
    space = space or ClassSpace(*f, *g)
    return space.equivalent(tuple(map(space.vector, f)), tuple(map(space.vector, g)))


_INDEPENDENT = "a, b, c must be quadratically independent"


class ClassSpace(arith.PrimeBasis):
    """The square classes of some nonzero rationals as F2 vectors over one
    `arith.PrimeBasis`, with their Hilbert symbols at every relevant place.

    The values are factored once, when the space is built; every class in
    their span has a vector (`vector` finds it by dividing out the basis
    primes), and every class product, independence test and form
    equivalence after that works on the vectors alone.  A Hilbert symbol
    reads the vectors' representatives, with no factoring.  A diagonal
    ternary form is a triple of vectors; `vectors` holds the classes of the
    values, in order.  A space keeps its pair words, and no decisions.
    """

    def __init__(self, *values: "Rational"):
        super().__init__(map(squarefree_part, values))
        self._words: dict[tuple[int, int], int] = {}

    def independent(self, vectors, message: str = _INDEPENDENT) -> tuple[int, ...]:
        """The class vectors `vectors`; ValueError(message) unless they are
        independent."""
        vectors = tuple(vectors)
        if arith.f2_rank(vectors) != len(vectors):
            raise ValueError(message)
        return vectors

    def word(self, u: int, w: int) -> int:
        """The Hilbert symbols of the class vectors u and w at every relevant
        place, as an int whose bit i is 1 iff the symbol at place i is -1;
        computed once per unordered pair.  Place i is bit i of a class
        vector: 0 is the real place, 1 is 2 and i >= 2 is primes[i - 1]."""
        if not (u and w):
            return 0  # a square pairs trivially with everything
        key = (u, w) if u <= w else (w, u)
        word = self._words.get(key)
        if word is None:
            # the local formulas (Serre, A Course in Arithmetic, ch. III,
            # Thm. 1) on the representatives: (a, b) = -1 at the real place
            # iff a, b < 0, and at 2, for a = 2^alpha a' and b = 2^beta b',
            # iff eps(a')eps(b') + alpha omega(b') + beta omega(a') is odd
            a, b = self.representative(u), self.representative(w)
            alpha, beta = u >> 1 & 1, w >> 1 & 1
            a2, b2 = (a >> alpha) % 8, (b >> beta) % 8
            word = u & w & 1 | (_eps(a2) * _eps(b2) + alpha * _omega(b2)
                                + beta * _omega(a2)) % 2 << 1
            for i, p in enumerate(self.primes[1:], 2):
                alpha, beta = u >> i & 1, w >> i & 1
                if alpha or beta:
                    # Euler's criterion, unchecked (`factor` has proved p
                    # prime), for (-1)^(alpha beta) (a/p^alpha)^beta
                    # (b/p^beta)^alpha, with a/p mod p read off a mod p^2;
                    # a p dividing neither a nor b gives +1
                    x = (-(a % (p * p) // p) * (b % (p * p) // p) if alpha and beta
                         else b if alpha else a)
                    word |= (pow(x, p >> 1, p) == p - 1) << i
            self._words[key] = word
        return word

    def equivalent(self, f, g) -> bool:
        """`equivalent` for forms given as triples of class vectors.  Equal
        discriminants leave two signatures, with n and n + 2 negative entries,
        and the real place's Hasse bit (-1)^(n(n-1)/2), bit 0, tells them apart."""
        if f[0] ^ f[1] ^ f[2] != g[0] ^ g[1] ^ g[2]:
            return False
        # the Hasse invariants prod over i < j of (f_i, f_j), at every place
        (a, b, c), (d, e, h), word = f, g, self.word
        return word(a, b) ^ word(a, c) ^ word(b, c) == word(d, e) ^ word(d, h) ^ word(e, h)

    def pauli_embeddable(self, x: int, y: int, z: int) -> bool:
        """Condition (15) of `pauli_embeddable` for class vectors."""
        return self.equivalent((x, y, x ^ y), (0, z, z))

    def brauer_condition(self, x: int, y: int, z: int) -> bool:
        """The symbol form (14), (xyz, -1) = (x, y) at every relevant place,
        for class vectors; -1 is the vector 1."""
        return self.word(x ^ y ^ z, 1) == self.word(x, y)

    @staticmethod
    def sl_classes(x: int, y: int, z: int) -> list[int]:
        """S_L = {x, y, xy, z, xz, yz, xyz} as class vectors."""
        return [x, y, x ^ y, z, x ^ z, y ^ z, x ^ y ^ z]

    def sl_decisions(self, x: int, y: int, z: int) -> list[tuple[int, int, int, bool]]:
        """(u, v, w, whether (15) holds for u, v, w) for each ordered
        triplet of distinct classes of S_L with w != uv: on the seven classes,
        exactly the independent ones.  Each call decides all of them again,
        so a caller that needs them twice keeps the list."""
        return [(u, v, w, self.pauli_embeddable(u, v, w))
                for u, v, w in itertools.permutations(self.sl_classes(x, y, z), 3)
                if w != u ^ v]

    def holding_triplets(self, decisions) -> list[tuple[int, int, int]]:
        """The representatives (u, v, w) of the `sl_decisions` that hold."""
        rep = self.representative
        return [(rep(u), rep(v), rep(w)) for u, v, w, holds in decisions if holds]


def witt_embeddable(a1: "Rational", a2: "Rational", space: ClassSpace | None = None) -> bool:
    """Can the biquadratic field Q(sqrt(a1), sqrt(a2)) be pushed into a
    quaternion Q8-extension of Q?  Holds iff [a1, a2, a1*a2] ~ [1, 1, 1].
    `space`, as in `equivalent`, must hold the classes of a1 and a2."""
    space = space or ClassSpace(a1, a2)
    x, y = space.independent(map(space.vector, (a1, a2)),
                             "a1, a2 must be quadratically independent"
                             " non-squares (the V4 hypothesis fails)")
    # a1*a2 as the representative of its class, which a pair cannot multiply
    return equivalent((a1, a2, space.representative(x ^ y)), (1, 1, 1), space)


def pauli_embeddable(a: "Rational", b: "Rational", c: "Rational") -> bool:
    """Embedding criterion for Q(sqrt(a), sqrt(b), sqrt(c)) into a Pauli
    extension with the quaternion part over Q(sqrt(c)):
    [a, b, ab] ~ [1, c, c]."""
    space = ClassSpace(a, b, c)
    return space.pauli_embeddable(*space.independent(space.vectors))


def sl_search(a: "Rational", b: "Rational", c: "Rational") -> list[tuple[int, int, int]]:
    """All ordered triplets (u, v, x) of pairwise-distinct, quadratically
    independent classes from S_L with [u, v, uv] ~ [1, x, x].  A nonempty
    result rewrites the generating triplet so the embedding criterion holds
    for the same field."""
    space = ClassSpace(a, b, c)
    return space.holding_triplets(space.sl_decisions(*space.independent(space.vectors)))
