"""Exact arithmetic in the degree-16 splitting field E = Q(w, a) of
X^8 + k^2, where a is a root and w is a primitive 8th root of unity.

An element is 16 integer numerators over one positive denominator, with no
common factor, in the basis a^j * w^e (j = 0..7, e = 0..1); Fractions
appear only where k is read and where coordinates are read back or printed.
`_reduce` writes a^j * w^m as +-k^e times one basis monomial, by a^8 = -k^2
and w^2 = a^4 / k, and keeps the scale as an integer pair; it gives the
Galois action and the product table, built by the first field product (a
lattice report takes none).  The 16 automorphisms a -> a*w^t,
w -> w^s (s = 2t+1 mod 4) are their pairs (t, s), the maps m -> s*m + t of
the roots a*w^m, and each sends a^j * w^e to a scaled a^j * w^(tj+se).  So
g fixes u iff u[target] * den = num * u[i] on the support of u, compared in
integers.  The 23 subgroups are the literal `_LATTICE`, proven by a test
against the group engine.  The fixed field of a subgroup H, given by its
pairs, is spanned by its orbit sums; a candidate in it generates it iff no
automorphism outside H fixes it.  A label names the subgroup fixing its
generators: for the fifteen subfields of L = Q(i, sqrt(2), sqrt(k)) it is
read off whether g negates i, sqrt(2) and sqrt(k), for the four named
octics off stabilisers.  The inverse is the product of the other
conjugates over the norm.

The module also certifies, in E, where sqrt(-2) = i * sqrt(2), the
change-of-basis matrix T over Q(sqrt(-2)) (det 1, carrying diag(2, k, 1/2k)
to the identity) and rho * beta = (a - abar)^2 * (w * (1 + sqrt(2k)))^2,
which exhibits E as a square-root extension of its triquadratic subfield.
"""

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from . import binomial
from .arith import PrimeBasis, Rational, squarefree_part

# the basis monomials a^j * w^e as (j, e), in coordinate order 2j + e
_MONOMIALS = tuple(divmod(idx, 2) for idx in range(16))
# their names in printed elements: "" for the constant term, then w, a, a*w, ...
_NAMES = tuple("*".join(filter(None, (f"a^{j}" if j > 1 else "a" * j, "w" * e)))
               for j, e in _MONOMIALS)
# the exact scalar types; bool is an int subclass and is not one of them
_EXACT = (int, Fraction)
# the 23 subgroups of the Galois group in report order, by order and then by
# sorted elements: each its normality, then the generators the report prints,
# the greedy choice over its sorted elements
_LATTICE = (
    (True, (0, 1)),
    (False, (0, 5)), (False, (1, 7)), (False, (3, 7)), (True, (4, 1)),
    (False, (4, 5)), (False, (5, 7)), (False, (7, 7)),
    (True, (0, 5), (4, 1)), (True, (1, 3)), (True, (1, 7), (4, 1)),
    (True, (2, 1)), (True, (2, 5)), (True, (3, 3)), (True, (3, 7), (4, 1)),
    (True, (0, 5), (1, 3)), (True, (0, 5), (2, 1)), (True, (0, 5), (3, 3)),
    (True, (1, 3), (2, 1)), (True, (1, 3), (2, 5)), (True, (1, 7), (2, 1)),
    (True, (1, 7), (2, 5)),
    (True, (0, 5), (1, 3), (2, 1)),
)


def _generated(gens) -> tuple:
    """The sorted pairs of the group the pairs gens generate: (t, s) is the
    map m -> s*m + t of Z/8, so (t1, s1)(t2, s2) = (t1 + s1*t2, s1*s2)."""
    els, size = {(0, 1)}, 0
    while size < len(els):  # until right multiplication adds nothing
        size = len(els)
        els |= {((t1 + s1 * t2) % 8, s1 * s2 % 8) for t1, s1 in els for t2, s2 in gens}
    return tuple(sorted(els))


# each subgroup's sorted elements, generators and normality, in report order;
# the last is the Galois group
_SUBGROUPS = tuple((_generated(gens), tuple(gens), normal) for normal, *gens in _LATTICE)
_SUBGROUP_SETS = frozenset(frozenset(elements) for elements, _, _ in _SUBGROUPS)
_AUTOMORPHISMS = _SUBGROUPS[-1][0]


def _reduce(k: Fraction, j: int, m: int) -> tuple[int, int, int]:
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


def _fixes(action: tuple, nums) -> bool:
    """True iff the action's (target, num, den) entries fix nums."""
    # on the support: an action that keeps the support permutes it
    return all(nums[target] * den == num * c
               for c, (target, num, den) in zip(nums, action) if c)


class FieldElt:
    """An element of E: 16 integer numerators over one positive denominator,
    in lowest terms, in the a^j * w^e basis."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: "SplittingField", coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 16:
            raise ValueError("need 16 coordinates")
        if any(type(c) not in _EXACT for c in coeffs):
            raise TypeError("coordinates must be int or Fraction")
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
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def _operand(self, other):
        # other in this field, or None for a foreign operand
        if type(other) in _EXACT:
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
        if isinstance(other, FieldElt) or type(other) in _EXACT:
            other = -other
        return self.__add__(other)

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
            other = other.inverse()
        elif type(other) in _EXACT:
            # the reciprocal; ZeroDivisionError at 0
            other = Fraction(other.denominator, other.numerator)
        return self.__mul__(other)

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
        terms = []
        for name, c in zip(_NAMES, self.coeffs):
            if c:
                terms.append(str(c) if not name else name if c == 1 else
                             f"-{name}" if c == -1 else f"{c}*{name}")
        return " + ".join(terms).replace(" + -", " - ") or "0"


class SplittingField:
    """Multiplication-ready context for E = Q(w, a) with a^8 = -k^2."""

    def __init__(self, k: Rational):
        k = Fraction(k)
        violation = binomial.pauli_condition_violation(k)
        if violation is not None:
            raise ValueError(violation)
        self.k = k
        # the automorphism (t, s) sends a^j*w^e to a^j*w^(tj+se): one
        # (target index, num, den) per basis index, keyed by (t, s)
        self._actions = {(t, s): tuple(_reduce(k, j, t * j + s * e) for j, e in _MONOMIALS)
                         for t, s in _AUTOMORPHISMS}

    @cached_property
    def _mul_table(self) -> tuple:
        """Row i, column j: the product of basis monomials i and j as
        (index, num, den); built by the first field product."""
        return tuple(tuple(_reduce(self.k, j1 + j2, e1 + e2) for j2, e2 in _MONOMIALS)
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
        return self.monomial(4, 0, Fraction(1, 1) / self.k)

    @property
    def r(self) -> FieldElt:
        """sqrt(2) = w + conj(w) = w * (1 - a^4/k)."""
        return self.monomial(0, 1) - self.monomial(4, 1, Fraction(1) / self.k)

    @property
    def v2(self) -> FieldElt:
        """sqrt(k) = -i * a^2 * w = -a^6 * w / k."""
        return self.monomial(6, 1, -Fraction(1) / self.k)

    @property
    def a_bar(self) -> FieldElt:
        """Complex conjugate of a: a * w^7 = -a^5 * w / k."""
        return self.monomial(5, 1, -Fraction(1) / self.k)

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

    def _stabilizer(self, u: FieldElt) -> frozenset:
        """The automorphisms fixing u."""
        return frozenset(g for g, action in self._actions.items()
                         if _fixes(action, u.nums))

    # --- fixed fields -----------------------------------------------------

    def fixed_field(self, H) -> "FixedField":
        """Basis, degree and a certified primitive element of the subfield
        fixed by H, the pairs (t, s) of one of the 23 subgroups; any other
        set raises ValueError."""
        members = frozenset(H)
        if members not in _SUBGROUP_SETS:
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
        return FixedField(degree, basis,
                          self._primitive_element(basis, members),
                          self._label_table.get(members))

    def _primitive_element(self, basis, members) -> FieldElt:
        # u in the fixed field of H is fixed by H; it generates that field
        # iff no automorphism outside H fixes it.  The basis vectors have
        # disjoint supports, and over one denominator a candidate is an
        # integer combination of their numerators
        outside = [action for g, action in self._actions.items() if g not in members]
        den = math.lcm(*(b.den for b in basis))
        vecs = [[(i, x * (den // b.den)) for i, x in enumerate(b.nums) if x]
                for b in basis]
        for idxs, coeffs in _combination_stream(len(basis)):
            nums = [0] * 16
            for b, c in zip(idxs, coeffs):
                for i, x in vecs[b]:
                    nums[i] = c * x
            if not any(_fixes(action, nums) for action in outside):
                return FieldElt._reduced(self, nums, den)
        raise RuntimeError("primitive element search exhausted")

    @cached_property
    def _label_table(self) -> dict:
        """Subfield labels keyed by the stabiliser of their generators; where
        several labels name one subgroup, the first listed wins."""
        # L = Q(i, sqrt(2), sqrt(k)) has the seven quadratic subfields
        # Q(sqrt(d_n)), d_n = (-1)^(n&1) * 2^(n>>1&1) * k^(n>>2) for n = 1..7.
        # Bit b of flips[g] says whether g negates the b-th of i, sqrt(2) and
        # sqrt(k), so g fixes sqrt(d_n) iff flips[g] & n has even weight
        gens = (self.i.nums, self.r.nums, self.v2.nums)
        flips = {g: sum(1 << b for b, u in enumerate(gens) if not _fixes(action, u))
                 for g, action in self._actions.items()}

        def fixing(*ns):
            return frozenset(g for g, f in flips.items()
                             if not any((f & n).bit_count() & 1 for n in ns))

        # k is factored once; over its prime basis -1 is the vector 1 and 2
        # is the vector 2.  The Pauli condition makes the seven classes and 1
        # a group C2^3 modulo squares, so d_n has the vector of n below
        basis = PrimeBasis((squarefree_part(self.k),))
        kv = basis.vectors[0]
        reps = [basis.representative((n & 3) ^ kv * (n >> 2)) for n in range(8)]
        labels = [(fixing(n), _field_name([reps[n]])) for n in range(1, 8)]
        # each plane {n1, n2, n1^n2} once, named by its two least classes
        labels += [(fixing(n1, n2), _field_name(sorted(
                       (reps[n1], reps[n2], reps[n1 ^ n2]), key=_class_order)[:2]))
                   for n1, n2 in itertools.combinations(range(1, 8), 2) if n1 ^ n2 > n2]
        labels.append((fixing(1, 2, 4), "Q(i, sqrt(2), sqrt(%s))" % reps[4]))
        labels += [(self._stabilizer(u), label) for label, u in (
            ("Q(a)", self.a), ("Q(w*a)", self.monomial(1, 1)),
            ("Q(a+abar)", self.a + self.a_bar), ("Q(a-abar)", self.a - self.a_bar))]
        return dict(reversed(labels))

    # --- lattice ----------------------------------------------------------

    def lattice_report(self) -> "LatticeReport":
        """The full subgroup <-> fixed-field correspondence."""
        rows = []
        for elements, generators, normal in _SUBGROUPS:
            fixed = self.fixed_field(elements)
            rows.append(LatticeRow(
                subgroup=elements,
                order=len(elements),
                normal=normal,
                degree=fixed.degree,
                primitive=fixed.primitive,
                label=fixed.label,
                generators=generators,
            ))
        return LatticeReport(self.k, tuple(rows))


def _class_order(d: int) -> tuple:
    return abs(d), d < 0


def _field_name(reps) -> str:
    """The field name Q(...) from square-free class representatives."""
    parts = ["i" if d == -1 else f"sqrt({d})" for d in sorted(reps, key=_class_order)]
    return "Q(" + ", ".join(parts) + ")"


def _combination_stream(nbasis: int):
    """Deterministic candidates for the primitive-element search: small
    supports first, integer coefficients with expanding bound."""
    for bound in (1, 2, 4, 8):
        values = [v for r in range(1, bound + 1) for v in (r, -r)]
        for support in range(1, min(nbasis, 4) + 1):
            for idxs in itertools.combinations(range(nbasis), support):
                for coeffs in itertools.product(values, repeat=support):
                    if coeffs[0] < 0:
                        continue
                    if bound > 1 and all(abs(c) < bound for c in coeffs):
                        continue  # already tried at a smaller bound
                    yield idxs, coeffs


def _pair_text(g: tuple[int, int]) -> str:
    return "(%d,%d)" % g


class FixedField(namedtuple("FixedField", "degree basis primitive label")):
    """The subfield of E fixed pointwise by a subgroup of automorphisms: its
    degree, basis, a primitive element and its label or None."""

    __slots__ = ()


class LatticeRow(namedtuple("LatticeRow", (
        "subgroup order normal degree primitive label generators"))):
    """One subgroup of the lattice (its sorted pairs (t, s), order, normality
    and generators) and the degree, primitive element and label of its fixed
    field."""

    __slots__ = ()

    def field_display(self) -> str:
        if self.label:
            return self.label
        if self.degree == 1:
            return "Q"
        if self.degree == 16:
            return "E = Q(w, a)"
        return f"Q({self.primitive})"


class LatticeReport(namedtuple("LatticeReport", "k rows")):
    """The subgroup <-> fixed-field correspondence for X^8 + k^2."""

    __slots__ = ()

    def as_text(self) -> str:
        lines = [
            f"splitting field of X^8 + {self.k ** 2} = Q(w, a), degree 16 over Q",
            "Galois group: 16 affine maps (t,s): a -> a*w^t, w -> w^s"
            " (Pauli fingerprint)",
            f"subgroups: {len(self.rows)} total,"
            f" {len(self.rows) - 2} proper nontrivial,"
            f" {sum(1 for r in self.rows if r.normal and 1 < r.order < 16)}"
            " of those normal",
        ]
        for row in self.rows:
            gens = ",".join(map(_pair_text, row.generators))
            nflag = "normal    " if row.normal else "non-normal"
            lines.append(
                f"  [order {row.order:2d}] <{gens}> {nflag}"
                f" fixes degree-{row.degree} field {row.field_display()}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "k": str(self.k),
            "polynomial": f"X^8 + {self.k ** 2}",
            "subgroup_count": len(self.rows),
            "rows": [
                {
                    "order": row.order,
                    "normal": row.normal,
                    "generators": list(map(_pair_text, row.generators)),
                    "elements": list(map(_pair_text, row.subgroup)),
                    "fixed_field_degree": row.degree,
                    "fixed_field": row.field_display(),
                    "primitive_element": str(row.primitive),
                }
                for row in self.rows
            ],
        }

    def as_dot(self) -> str:
        """The subgroup lattice as a DOT digraph, edges = covering relations."""
        ids = {row.subgroup: f"H{i}" for i, row in enumerate(self.rows)}
        lines = [
            "digraph subgroup_lattice {",
            "  rankdir=BT;",
            "  node [shape=box, fontname=monospace];",
        ]
        for row in self.rows:
            gens = ",".join(map(_pair_text, row.generators))
            shape = ", peripheries=2" if row.normal else ""
            lines.append(
                f'  {ids[row.subgroup]} [label="order {row.order}\\n<{gens}>\\n'
                f'{row.field_display()}"{shape}];')
        # in a 2-group H < K is a cover exactly when H has index 2 in K
        for lo in self.rows:
            for hi in self.rows:
                if hi.order == 2 * lo.order and set(lo.subgroup) <= set(hi.subgroup):
                    lines.append(f"  {ids[lo.subgroup]} -> {ids[hi.subgroup]};")
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the change-of-basis matrix over Q(sqrt(-2)) and the square-root generator


def witt_T(field: SplittingField) -> list[list[FieldElt]]:
    """The determinant-1 matrix over Q(sqrt(-2)) carrying the diagonal form
    <2, k, 1/2k> to <1, 1, 1>, with entries in E, where sqrt(-2) = i*sqrt(2);
    K = k + 1/2, kappa = k - 1/2."""
    k, m, half = field.k, field.monomial, Fraction(1, 2)
    K, kap = k + half, k - half
    s = field.i * field.r
    # -1/2 times [[1, 1, 0], [-K/k, K/k, -kap/k s], [kap s, -kap s, -2K]]
    return [[m(0, 0, -half), m(0, 0, -half), field.zero()],
            [m(0, 0, K / (2 * k)), m(0, 0, -K / (2 * k)), s * (kap / (2 * k))],
            [s * (-kap / 2), s * (kap / 2), m(0, 0, K)]]


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
    k = field.k
    K = k + Fraction(1, 2)
    r, v2, w = field.r, field.v2, field.w
    s, r_v2 = field.i * r, r * v2  # sqrt(-2) and sqrt(2k)
    beta = (field.one() - Fraction(1, 2) * r
            - (K / (2 * k)) * v2 + (K / (2 * k)) * r_v2)
    T = witt_T(field)
    # T^t D T is symmetric, so only i <= j is checked; with the rows of T
    # scaled by D, its entry (i, j) is the sum over l of T[l][i] * (D T)[l][j]
    DT = [[d * entry for entry in row]
          for d, row in zip((Fraction(2), k, 1 / (2 * k)), T)]
    congruence = all(
        T[0][i] * DT[0][j] + T[1][i] * DT[1][j] + T[2][i] * DT[2][j] == int(i == j)
        for i in range(3) for j in range(i, 3))
    sqrt_a3 = r_v2 / (2 * k)  # sqrt(1/2k) = sqrt(2k)/(2k)
    beta_from_T = field.one() + T[0][0] * r + T[1][1] * v2 + T[2][2] * sqrt_a3
    rho = -4 * k
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
