"""Exact arithmetic in the degree-16 splitting field E = Q(w, a) of
X^8 + k^2, where a is a root and w is a primitive 8th root of unity.

An element is 16 integer numerators over one positive denominator, with no
common factor, in the basis a^j * w^e (j = 0..7, e = 0..1); k = n/d and
every scalar built here are reduced integer pairs, and only `coeffs` reads
the coordinates back as Fractions, so no request loads `fractions`.
`_reduce` writes a^j * w^m as +-k^e times one basis monomial, by a^8 = -k^2
and w^2 = a^4 / k, and keeps the scale as an integer pair; the field
reduces each a^j * w^m (j < 15, m < 8) once, into one table that both the
Galois action and the product table read.
The 16 automorphisms a -> a*w^t, w -> w^s (s = 2t+1 mod 4) are their pairs
(t, s), the maps m -> s*m + t of the roots a*w^m, and each sends
a^j * w^e to a scaled a^j * w^(tj+se).  The 23 subgroups, with a primitive
element and a label of each fixed field, are the rows of `lattice`.  The
fixed field of a subgroup H, given by its pairs, is spanned by its orbit
sums.  The inverse is the product of the other conjugates over the norm.

The module also certifies, in E, where sqrt(-2) = i * sqrt(2), the
change-of-basis matrix T over Q(sqrt(-2)) (det 1, carrying diag(2, k, 1/2k)
to the identity) and rho * beta = (a - abar)^2 * (w * (1 + sqrt(2k)))^2,
which exhibits E as a square-root extension of its triquadratic subfield.
"""

import math
from collections import namedtuple
from functools import cached_property

from . import lattice
from .arith import RationalParts

# the basis monomials a^j * w^e as (j, e), in coordinate order 2j + e
_MONOMIALS = tuple(divmod(idx, 2) for idx in range(16))


# a scalar is read only through its numerator and denominator: an int, a
# Fraction or an `arith.RationalParts`; bool is an int subclass and is not
# one, and a float has no denominator
def _is_scalar(c) -> bool:
    return type(c) is not bool and hasattr(c, "denominator")


def _reduce(k: RationalParts, j: int, m: int) -> tuple[int, int, int]:
    """a^j * w^m as (index, num, den): num/den = +-k^e times basis monomial
    number index, by w^m = w^(m mod 2) * (a^4 / k)^(m // 2), then a^8 = -k^2;
    the two rules give w^8 = 1, so m is taken mod 8."""
    half, e = divmod(m % 8, 2)
    q, j = divmod(j + 4 * half, 8)
    power = 2 * q - half
    num, den = (k.numerator, k.denominator) if power >= 0 else (k.denominator, k.numerator)
    return 2 * j + e, (-1) ** q * num ** abs(power), den ** abs(power)


def _combine(terms) -> tuple[list[int], int]:
    """Sum num/den * basis[index] over (index, num, den) over one lcm."""
    den = math.lcm(*(d for _, _, d in terms))
    nums = [0] * 16
    for idx, num, d in terms:
        nums[idx] += num * (den // d)
    return nums, den


class FieldElt:
    """An element of E: 16 integer numerators over one positive denominator,
    in lowest terms, in the a^j * w^e basis."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: "SplittingField", coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 16:
            raise ValueError("need 16 coordinates")
        if not all(map(_is_scalar, coeffs)):
            raise TypeError("coordinates must be int, Fraction or RationalParts")
        # over the lcm of lowest-terms denominators no common factor is left
        self.field = field
        self.den = math.lcm(*(c.denominator for c in coeffs))
        self.nums = tuple(c.numerator * (self.den // c.denominator) for c in coeffs)

    @classmethod
    def _reduced(cls, field: "SplittingField", nums, den: int) -> "FieldElt":
        # nums / den for a nonzero den, sign and common factor taken out
        g = math.gcd(den, *nums) * (1 if den > 0 else -1)
        u = object.__new__(cls)
        u.field = field
        u.nums = tuple(x // g for x in nums)
        u.den = den // g
        return u

    @property
    def coeffs(self) -> "tuple[Fraction, ...]":
        from fractions import Fraction
        return tuple(Fraction(x, self.den) for x in self.nums)

    def _operand(self, other):
        # other in this field, or None for a foreign operand
        if _is_scalar(other):
            return self.field.monomial(0, 0, other)
        if isinstance(other, FieldElt) and self.field.k != other.field.k:
            raise ValueError("elements live in different splitting fields")
        return other if isinstance(other, FieldElt) else None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return FieldElt._reduced(
            self.field, [x * other.den + y * self.den
                         for x, y in zip(self.nums, other.nums)],
            self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElt._reduced(self.field, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self.__add__(-other)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        table = self.field._mul_table
        nums, den = _combine([
            (idx, ci * cj * num, d)
            for ci, row in zip(self.nums, table) if ci
            for cj, (idx, num, d) in zip(other.nums, row) if cj])
        return FieldElt._reduced(self.field, nums, den * self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FieldElt):
            return self.__mul__(other.inverse())
        if not _is_scalar(other):
            return NotImplemented
        if not other.numerator:
            raise ZeroDivisionError("division by 0 in the splitting field")
        # times den/num; `_reduced` moves the sign of num to the numerators
        return FieldElt._reduced(self.field, [x * other.denominator for x in self.nums],
                                 self.den * other.numerator)

    def inverse(self) -> "FieldElt":
        """Multiplicative inverse: the product of the 15 other conjugates
        divided by the rational norm."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of 0 in the splitting field")
        field = self.field
        others = math.prod((field.apply(g, self) for g in field._actions
                            if g != (0, 1)), start=field.one())
        norm = self * others
        if not norm.is_rational():
            raise ArithmeticError("norm of a field element is not rational")
        return FieldElt._reduced(field, [x * norm.den for x in others.nums],
                                 others.den * norm.nums[0])

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __eq__(self, other):
        if isinstance(other, FieldElt) and self.field.k != other.field.k:
            return False
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __str__(self):
        return lattice.element_text({i: str(RationalParts(x, self.den))
                                     for i, x in enumerate(self.nums) if x})


class SplittingField:
    """Multiplication-ready context for E = Q(w, a) with a^8 = -k^2."""

    def __init__(self, k: "Rational"):
        k = RationalParts(k.numerator, k.denominator)
        violation = lattice.pauli_condition_violation(k)
        if violation is not None:
            raise ValueError(violation)
        self.k, self._k_inverse = k, RationalParts(k.denominator, k.numerator)
        # a^j*w^m as (index, num, den), each j < 15 and m < 8 reduced once
        reduced = [[_reduce(k, j, m) for m in range(8)] for j in range(15)]
        # the automorphism (t, s) sends a^j*w^e to a^j*w^(tj+se): one
        # (target index, num, den) per basis index, keyed by (t, s)
        self._actions = {(t, s): tuple(reduced[j][(t * j + s * e) % 8] for j, e in _MONOMIALS)
                         for t, s in lattice.SUBGROUPS[-1]}
        # row i, column j: the product of basis monomials i and j
        self._mul_table = tuple(tuple(reduced[j1 + j2][e1 + e2] for j2, e2 in _MONOMIALS)
                                for j1, e1 in _MONOMIALS)

    # --- element constructors -------------------------------------------

    def zero(self) -> FieldElt:
        return self.monomial(0, 0, 0)

    def one(self) -> FieldElt:
        return self.monomial(0, 0)

    def monomial(self, j: int, e: int, coeff=1) -> FieldElt:
        coeffs = [0] * 16
        coeffs[2 * j + e] = coeff
        return FieldElt(self, coeffs)

    @property
    def a(self) -> FieldElt:
        return self.monomial(1, 0)

    @property
    def w(self) -> FieldElt:
        return self.monomial(0, 1)

    @property
    def i(self) -> FieldElt:
        """sqrt(-1) = a^4 / k."""
        return self.monomial(4, 0, self._k_inverse)

    @property
    def r(self) -> FieldElt:
        """sqrt(2) = w + conj(w) = w * (1 - a^4/k)."""
        return self.monomial(0, 1) - self.monomial(4, 1, self._k_inverse)

    @property
    def v2(self) -> FieldElt:
        """sqrt(k) = -i * a^2 * w = -a^6 * w / k."""
        return -self.monomial(6, 1, self._k_inverse)

    @property
    def a_bar(self) -> FieldElt:
        """Complex conjugate of a: a * w^7 = -a^5 * w / k."""
        return -self.monomial(5, 1, self._k_inverse)

    # --- Galois action ---------------------------------------------------

    def apply(self, g: tuple[int, int], u: FieldElt) -> FieldElt:
        """Image of u under the automorphism g = (t, s), an exact ring map."""
        try:
            action = self._actions[g]
        except (KeyError, TypeError):  # TypeError: g is unhashable
            raise ValueError(f"{g!r} is not an automorphism (t, s) of E:"
                             " t in 0..7, s in 1..7, s = 2t+1 mod 4") from None
        nums, den = _combine([(target, c * num, d) for (target, num, d), c
                              in zip(action, u.nums) if c])
        return FieldElt._reduced(self, nums, den * u.den)

    def orbit(self, u: FieldElt) -> set:
        return {self.apply(g, u).coeffs for g in self._actions}

    # --- fixed fields -----------------------------------------------------

    def fixed_field(self, H) -> "FixedField":
        """Basis, degree, a primitive element and the label of the subfield
        fixed by H, the pairs (t, s) of one of the 23 subgroups; any other
        set raises ValueError."""
        members = frozenset(H)
        row = next((row for row, els in enumerate(lattice.SUBGROUPS) if members == set(els)), None)
        if row is None:
            raise ValueError("not the pairs (t, s) of a subgroup of the Galois group")
        # H acts on the basis by scaled permutations: each orbit carries at
        # most one fixed vector, its orbit sum, and distinct orbits have
        # disjoint supports.  Scaled to 1 at the last support index and sorted
        # by it, the nonzero sums are the canonical RREF nullspace basis.
        actions = [action for g, action in self._actions.items() if g in members]
        sums = {}
        seen = set()
        for idx in range(16):
            if idx in seen:
                continue
            images = [action[idx] for action in actions]
            seen.update(target for target, _, _ in images)
            vec, _ = _combine(images)
            last = max((i for i, c in enumerate(vec) if c), default=None)
            if last is not None:
                sums[last] = FieldElt._reduced(self, vec, vec[last])
        basis = [sums[last] for last in sorted(sums)]
        degree = 16 // len(members)
        if len(basis) != degree:
            raise AssertionError(
                f"fixed space has dimension {len(basis)}, expected {degree}")
        # the row's terms sign * k^power at k = n/d
        n, d = self.k
        primitive = FieldElt._reduced(self, *_combine([
            (idx, sign * n ** power, d ** power) for idx, sign, power in lattice._LATTICE[row][2]]))
        return FixedField(degree, basis, primitive, self._labels[row])

    @cached_property
    def _labels(self) -> tuple:
        return lattice.labels(self.k)

    # --- lattice ----------------------------------------------------------

    def lattice_report(self) -> "lattice.LatticeReport":
        """The full subgroup <-> fixed-field correspondence."""
        return lattice.report(self.k)


class FixedField(namedtuple("FixedField", "degree basis primitive label")):
    """The subfield of E fixed pointwise by a subgroup of automorphisms: its
    degree, basis, a primitive element and its label or None."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# the change-of-basis matrix over Q(sqrt(-2)) and the square-root generator


def witt_T(field: SplittingField) -> list[list[FieldElt]]:
    """The determinant-1 matrix over Q(sqrt(-2)) carrying the diagonal form
    <2, k, 1/2k> to <1, 1, 1>, with entries in E, where sqrt(-2) = i*sqrt(2);
    K = k + 1/2, kappa = k - 1/2."""
    # with k = n/d: K/2k = (2n+d)/4n, kappa/2k = (2n-d)/4n, kappa/2 =
    # (2n-d)/4d and K = (2n+d)/2d
    (n, d), m = field.k, field.monomial
    s, half = field.i * field.r, m(0, 0, RationalParts(-1, 2))
    # -1/2 times [[1, 1, 0], [-K/k, K/k, -kap/k s], [kap s, -kap s, -2K]]
    return [[half, half, field.zero()],
            [m(0, 0, RationalParts(2 * n + d, 4 * n)), m(0, 0, RationalParts(-2 * n - d, 4 * n)),
             s * RationalParts(2 * n - d, 4 * n)],
            [s * RationalParts(d - 2 * n, 4 * d), s * RationalParts(2 * n - d, 4 * d),
             m(0, 0, RationalParts(2 * n + d, 2 * d))]]


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


class WittCertificate(namedtuple("WittCertificate", (
        "beta rho sqrt_rho_beta det_is_one congruence_is_identity"
        " factorization_holds beta_matches_matrix_diagonal a_minus_abar_nonzero"
        " generates_E_over_L"))):
    """beta, rho = -4k * sqrt(-2) given by its rational coefficient, and
    sqrt(rho * beta), with the result of each check."""

    __slots__ = ()


def witt_beta_rho(field: SplittingField) -> WittCertificate:
    """Certify exactly in E that det(T) = 1 and T^t diag(2, k, 1/2k) T is the
    identity, that rho * beta = (a - abar)^2 * (w(1 + sqrt(2k)))^2, and that
    its square root generates E over the triquadratic subfield."""
    k = n, d = field.k
    r, v2, w = field.r, field.v2, field.w
    s, r_v2 = field.i * r, r * v2  # sqrt(-2) and sqrt(2k)
    K_2k = RationalParts(2 * n + d, 4 * n)  # K/2k, K = k + 1/2
    beta = field.one() - RationalParts(1, 2) * r - K_2k * v2 + K_2k * r_v2
    T = witt_T(field)
    # T^t D T is symmetric, so only i <= j is checked; with the rows of T
    # scaled by D, its entry (i, j) is the sum over l of T[l][i] * (D T)[l][j]
    DT = [[c * entry for entry in row] for c, row in zip((2, k, RationalParts(d, 2 * n)), T)]
    congruence = all(
        T[0][i] * DT[0][j] + T[1][i] * DT[1][j] + T[2][i] * DT[2][j] == int(i == j)
        for i in range(3) for j in range(i, 3))
    sqrt_a3 = r_v2 / RationalParts(2 * n, d)  # sqrt(1/2k) = sqrt(2k)/(2k)
    beta_from_T = field.one() + T[0][0] * r + T[1][1] * v2 + T[2][2] * sqrt_a3
    rho = RationalParts(-4 * n, d)
    sqrt_rho_beta = (field.a - field.a_bar) * w * (field.one() + r_v2)
    factorization = rho * s * beta == sqrt_rho_beta * sqrt_rho_beta
    # Gal(E/L) is generated by a -> -a, w -> w; the generator must flip the root
    flip = field.apply((4, 1), sqrt_rho_beta)
    return WittCertificate(
        beta=beta,
        rho=rho,
        sqrt_rho_beta=sqrt_rho_beta,
        det_is_one=_det3(T) == 1,
        congruence_is_identity=congruence,
        factorization_holds=factorization,
        beta_matches_matrix_diagonal=beta == beta_from_T,
        a_minus_abar_nonzero=not (field.a - field.a_bar).is_zero(),
        generates_E_over_L=(flip == -sqrt_rho_beta
                            and not sqrt_rho_beta.is_zero()),
    )
