"""Exact arithmetic in the degree-16 splitting field E = Q(w, a) of
X^8 + k^2, where a is a root and w is a primitive 8th root of unity.

Elements are 16-vectors of rationals over the basis a^j * w^e (j = 0..7,
e = 0..1).  One reduction rule, `_reduce`, writes a^j * w^m as a rational
multiple of one basis monomial by a^8 = -k^2 and w^2 = a^4 / k; it gives
the product table and the Galois action.  The 16 automorphisms
a -> a*w^t, w -> w^s, where a^2 = w * v^2 with sigma(v^2) = +-v^2 forces
s = 2t+1 (mod 4), are the elements of `groups.pauli_affine_model()`: the
permutations m -> s*m + t of the roots a*w^m.  (t, s) is read back with
`groups.affine_pair` only to print it.  Each automorphism sends a^j * w^e
to a^j * w^(tj+se), a scaled permutation of the basis; the tests check
that they respect the defining relations and act on the roots as the
Pauli group.  The fixed field of a subgroup is spanned by its orbit sums.
The stabiliser of an element is read off the same action, so a primitive
element of a fixed field is the first candidate whose stabiliser is the
subgroup, and a subfield label names the subgroup that stabilises its
generators.  The inverse of an element is the product of its other
conjugates over its norm, and the full subgroup <-> subfield
correspondence is assembled into a lattice report.

The module also certifies the quadratic-form change-of-basis matrix T over
Q(sqrt(-2)) (det 1, transforms diag(2, k, 1/2k) to the identity) and the
factorization rho * beta = (a - abar)^2 * (w * (1 + sqrt(2k)))^2 that
exhibits E as a square-root extension of its triquadratic subfield.  Both
are computed in E itself, where sqrt(-2) = i * sqrt(2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import binomial, groups
from .arith import PrimeBasis, Rational, squarefree_part
from .groups import FinGroup, Perm

# the basis monomials a^j * w^e as (j, e), in coordinate order 2j + e
_MONOMIALS = tuple(divmod(idx, 2) for idx in range(16))


def _reduce(k: Fraction, j: int, m: int) -> tuple[int, Fraction]:
    """a^j * w^m as (index, scale): scale times basis monomial number index.

    w^m = w^(m mod 2) * (a^4 / k)^(m // 2) by w^2 = a^4 / k, then a^8 = -k^2
    reduces the power of a; the two rules give w^8 = 1, so m is taken mod 8.
    """
    half, e = divmod(m % 8, 2)
    q, j = divmod(j + 4 * half, 8)
    return 2 * j + e, Fraction(-k * k) ** q / k ** half


class FieldElt:
    """An element of E as 16 rational coordinates over the a^j*w^e basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "SplittingField", coeffs):
        self.field = field
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if len(self.coeffs) != 16:
            raise ValueError("need 16 coordinates")

    def _check(self, other):
        if self.field.k != other.field.k:
            raise ValueError("elements live in different splitting fields")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.monomial(0, 0, other)
        self._check(other)
        return FieldElt(self.field, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElt(self.field, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.monomial(0, 0, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElt(self.field, tuple(Fraction(other) * x for x in self.coeffs))
        self._check(other)
        out = [Fraction(0)] * 16
        table = self.field._mul_table
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            row = table[i]
            for j, cj in enumerate(other.coeffs):
                if cj == 0:
                    continue
                idx, scale = row[j]
                out[idx] += ci * cj * scale
        return FieldElt(self.field, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

    def inverse(self) -> "FieldElt":
        """Multiplicative inverse: the product of the 15 other conjugates
        divided by the rational norm."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of 0 in the splitting field")
        field = self.field
        others = field.one()
        for g in field.galois_group():
            if g.order() > 1:
                others = others * field.apply(g, self)
        norm = self * others
        if not norm.is_rational():
            raise ArithmeticError("norm of a field element is not rational")
        return others / norm.rational_value()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is irrational")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.monomial(0, 0, other)
        if not isinstance(other, FieldElt):
            return NotImplemented
        return self.field.k == other.field.k and self.coeffs == other.coeffs

    def __str__(self):
        terms = []
        for idx, c in enumerate(self.coeffs):
            if c == 0:
                continue
            j, e = divmod(idx, 2)
            name = ""
            if j == 1:
                name = "a"
            elif j > 1:
                name = f"a^{j}"
            if e:
                name = f"{name}*w" if name else "w"
            if not name:
                terms.append(str(c))
            elif c == 1:
                terms.append(name)
            elif c == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{c}*{name}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


class SplittingField:
    """Multiplication-ready context for E = Q(w, a) with a^8 = -k^2."""

    def __init__(self, k: Rational):
        k = Fraction(k)
        violation = binomial.pauli_condition_violation(k)
        if violation is not None:
            raise ValueError(violation)
        self.k = k
        self._mul_table = tuple(
            tuple(_reduce(k, j1 + j2, e1 + e2) for j2, e2 in _MONOMIALS)
            for j1, e1 in _MONOMIALS)
        # the automorphism (t, s) sends a^j*w^e to a^j*w^(tj+se): one
        # (target index, scale) per basis index, keyed by its root permutation
        self._actions = {
            groups.affine_map(t, s): tuple(_reduce(k, j, t * j + s * e)
                                           for j, e in _MONOMIALS)
            for t, s in groups.PAULI_PAIRS}

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

    @cached_property
    def _square_roots(self) -> dict:
        # the seven square classes attached to the field, in label order
        k, i, r, v2 = self.k, self.i, self.r, self.v2
        return {Fraction(-1): i, Fraction(2): r, Fraction(-2): i * r, k: v2,
                -k: self.monomial(2, 1), 2 * k: r * v2, -2 * k: i * r * v2}

    # --- Galois action ---------------------------------------------------

    def galois_group(self) -> FinGroup:
        """The 16 automorphisms as permutations m -> s*m + t of the roots
        a*w^m; groups.affine_pair(g) gives the (t, s) of g."""
        return groups.pauli_affine_model()

    def _action(self, g: Perm) -> tuple:
        try:
            return self._actions[g]
        except KeyError:
            raise ValueError(f"{g.images} is not an affine map m -> s*m + t"
                             " of Z/8 with s = 2t+1 mod 4") from None

    def apply(self, g: Perm, u: FieldElt) -> FieldElt:
        """Image of u under the automorphism g (an exact ring map)."""
        out = [Fraction(0)] * 16
        for (target, scale), c in zip(self._action(g), u.coeffs):
            out[target] = c * scale
        return FieldElt(self, out)

    def orbit(self, u: FieldElt) -> set:
        return {self.apply(g, u).coeffs for g in self._actions}

    def _stabilizer(self, *elts: FieldElt) -> frozenset:
        """The automorphisms fixing every given element: g fixes u iff
        u[target] == scale * u[i] for each index i and its (target, scale)."""
        return frozenset(
            g for g, action in self._actions.items()
            if all(u.coeffs[target] == scale * c
                   for u in elts
                   for (target, scale), c in zip(action, u.coeffs)
                   if c or u.coeffs[target]))

    # --- fixed fields -----------------------------------------------------

    def fixed_field(self, subgroup) -> "FixedField":
        """Basis, degree and a certified primitive element of the subfield
        fixed by the given subgroup of galois_group() (a FinGroup or any
        collection of its elements; anything else raises ValueError)."""
        H = FinGroup(subgroup)
        members = frozenset(H)
        # H acts on the basis by scaled permutations: each orbit carries at
        # most one fixed vector, its orbit sum, and distinct orbits have
        # disjoint supports.  Scaled to 1 at the last support index and sorted
        # by it, the nonzero sums are the canonical RREF nullspace basis.
        actions = [self._action(g) for g in H]
        sums = {}
        seen = set()
        for idx in range(16):
            if idx in seen:
                continue
            vec = [Fraction(0)] * 16
            for action in actions:
                target, scale = action[idx]
                vec[target] += scale
                seen.add(target)
            last = max((i for i, c in enumerate(vec) if c), default=None)
            if last is not None:
                sums[last] = tuple(c / vec[last] for c in vec)
        basis_vecs = [sums[last] for last in sorted(sums)]
        degree = 16 // H.order
        if len(basis_vecs) != degree:
            raise AssertionError(
                f"fixed space has dimension {len(basis_vecs)}, expected {degree}")
        basis = [FieldElt(self, v) for v in basis_vecs]
        return FixedField(H.elements, degree, basis,
                          self._primitive_element(basis, members),
                          self._label_table.get(members))

    def _primitive_element(self, basis, members) -> FieldElt:
        # u in the fixed field of H generates it iff no larger subgroup fixes u
        for idxs, coeffs in _combination_stream(len(basis)):
            u = sum((c * basis[i] for i, c in zip(idxs, coeffs)), self.zero())
            if self._stabilizer(u) == members:
                return u
        raise RuntimeError("primitive element search exhausted")

    @cached_property
    def _label_table(self) -> dict:
        """Subfield labels keyed by the stabiliser of their generators; where
        several labels name one subgroup, the first listed wins."""
        k, roots = self.k, self._square_roots
        # k is factored once; over its prime basis -1 is the vector 1 and 2
        # is the vector 2.  The Pauli condition makes these seven classes and
        # 1 a group C2^3 modulo squares, so the class of d1*d2 is the XOR of
        # theirs and is one of the seven
        basis = PrimeBasis((squarefree_part(k),))
        kv = basis.vectors[0]
        vectors = dict(zip(roots, (1, 2, 3, kv, kv ^ 1, kv ^ 2, kv ^ 3)))
        reps = {d: basis.representative(v) for d, v in vectors.items()}
        labels = [(_field_name([reps[d]]), [root]) for d, root in roots.items()]
        for d1, d2 in itertools.combinations(roots, 2):
            d3 = basis.representative(vectors[d1] ^ vectors[d2])
            plane = sorted({reps[d1], reps[d2], d3}, key=_class_order)
            labels.append((_field_name(plane[:2]), [roots[d1], roots[d2]]))
        labels += [("Q(i, sqrt(2), sqrt(%s))" % reps[k], [self.i, self.r, self.v2]),
                   ("Q(a)", [self.a]),
                   ("Q(w*a)", [self.a * self.w]),
                   ("Q(a+abar)", [self.a + self.a_bar]),
                   ("Q(a-abar)", [self.a - self.a_bar])]
        table = {}
        for label, gens in labels:
            table.setdefault(self._stabilizer(*gens), label)
        return table

    # --- lattice ----------------------------------------------------------

    def lattice_report(self) -> "LatticeReport":
        """The full subgroup <-> fixed-field correspondence."""
        rows = []
        for H, normal in self.galois_group().subgroups():
            fixed = self.fixed_field(H)
            elements = tuple(sorted(H, key=groups.affine_pair))
            rows.append(LatticeRow(
                subgroup=elements,
                order=H.order,
                normal=normal,
                degree=fixed.degree,
                primitive=fixed.primitive,
                label=fixed.label,
                generators=_generators(elements),
            ))
        rows.sort(key=lambda row: (row.order,
                                   list(map(groups.affine_pair, row.subgroup))))
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


def _generators(elements) -> tuple[Perm, ...]:
    """A small generating set of a subgroup given as a closed tuple: each
    member not yet generated by the earlier choices is chosen, in order;
    the trivial group is generated by its identity."""
    chosen = []
    generated = ()
    for g in elements:
        if g.order() > 1 and g not in generated:
            chosen.append(g)
            generated = groups.closure(chosen)
    return tuple(chosen) or elements


def _pair_text(g: Perm) -> str:
    return "(%d,%d)" % groups.affine_pair(g)


@dataclass
class FixedField:
    """The subfield of E fixed pointwise by a subgroup of automorphisms."""

    subgroup: tuple[Perm, ...]
    degree: int
    basis: list
    primitive: FieldElt
    label: str | None


@dataclass(frozen=True)
class LatticeRow:
    subgroup: tuple[Perm, ...]
    order: int
    normal: bool
    degree: int
    primitive: FieldElt
    label: str | None
    generators: tuple[Perm, ...]

    def field_display(self) -> str:
        if self.label:
            return self.label
        if self.degree == 1:
            return "Q"
        if self.degree == 16:
            return "E = Q(w, a)"
        return f"Q({self.primitive})"


@dataclass(frozen=True)
class LatticeReport:
    k: Fraction
    rows: tuple[LatticeRow, ...]

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
        for lo in self.rows:
            for hi in self.rows:
                if lo.order >= hi.order:
                    continue
                if not set(lo.subgroup) <= set(hi.subgroup):
                    continue
                covered = any(
                    set(lo.subgroup) < set(mid.subgroup) < set(hi.subgroup)
                    for mid in self.rows
                    if lo.order < mid.order < hi.order)
                if not covered:
                    lines.append(f"  {ids[lo.subgroup]} -> {ids[hi.subgroup]};")
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the change-of-basis matrix over Q(sqrt(-2)) and the square-root generator


def witt_T(field: SplittingField) -> list[list[FieldElt]]:
    """The determinant-1 matrix over Q(sqrt(-2)) carrying the diagonal form
    <2, k, 1/2k> to <1, 1, 1>, with entries in E, where sqrt(-2) = i*sqrt(2);
    K = k + 1/2, kappa = k - 1/2."""
    k = field.k
    K = k + Fraction(1, 2)
    kap = k - Fraction(1, 2)
    m, half = field.monomial, Fraction(1, 2)
    s = field._square_roots[Fraction(-2)]
    # -1/2 times [[1, 1, 0], [-K/k, K/k, -kap/k s], [kap s, -kap s, -2K]]
    return [[m(0, 0, -half), m(0, 0, -half), field.zero()],
            [m(0, 0, K / (2 * k)), m(0, 0, -K / (2 * k)), s * (kap / (2 * k))],
            [s * (-kap / 2), s * (kap / 2), m(0, 0, K)]]


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


@dataclass(frozen=True)
class WittCertificate:
    beta: FieldElt
    rho: Fraction  # rho = -4k * sqrt(-2), given by its rational coefficient
    sqrt_rho_beta: FieldElt
    det_is_one: bool
    congruence_is_identity: bool
    factorization_holds: bool
    beta_matches_matrix_diagonal: bool
    a_minus_abar_nonzero: bool
    generates_E_over_L: bool


def witt_beta_rho(field: SplittingField) -> WittCertificate:
    """Certify exactly in E that det(T) = 1 and T^t diag(2, k, 1/2k) T is the
    identity, that rho * beta = (a - abar)^2 * (w(1 + sqrt(2k)))^2, and that
    its square root generates E over the triquadratic subfield."""
    k = field.k
    K = k + Fraction(1, 2)
    r, v2, w = field.r, field.v2, field.w
    roots = field._square_roots  # sqrt(-2) and sqrt(2k), built once
    s, r_v2 = roots[Fraction(-2)], roots[2 * k]
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
    flip = field.apply(groups.affine_map(4, 1), sqrt_rho_beta)
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
