"""The subgroup <-> fixed-field lattice of X^8 + k^2, read off one literal.

For every k meeting the Pauli condition, E = Q(w, a) has the same 16
automorphisms a -> a*w^t, w -> w^s, named by their pairs (t, s), and the
same 23 subgroups.  Each row of `_LATTICE` is one: its normality, its printed
generators, a primitive element of its fixed field as terms (index, sign,
power), each sign * k^power times basis monomial a^j * w^e, index 2j + e,
and a label spec.  A report substitutes k into the literal and does no
field arithmetic, reading k only through its numerator and denominator.

The literal holds for every valid k.  An automorphism scales each monomial
by +-k^d, so orbit sums scaled to 1 at one coordinate, and their sums with
coefficients +-1 that the primitive-element search tries first, have
coordinates +-k^d.  That an automorphism fixes such a candidate either holds
as an identity in k or needs k^d = +-1 with d != 0, that is k = 1, which the
Pauli condition excludes; so the search picks the same terms for every k.

A label spec is None, a named octic such as "Q(a)", or the classes n that
generate a subfield of L = Q(i, sqrt(2), sqrt(k)) by the roots sqrt(d_n),
d_n = (-1)^(n&1) * 2^(n>>1&1) * k^(n>>2): one, a plane by two of its three,
or (1, 2, 4) for L.  g negates i iff t is odd, sqrt(2) iff s = +-3 mod 8 and
sqrt(k) iff 6t + s - 1 = 4 mod 8, so the subgroup a spec names is k-free;
its name is read off the square-free representatives of the classes.  Tests
prove the rows against the group engine and against the search.
"""

from collections import namedtuple

from .arith import PrimeBasis, RationalParts, nth_root, squarefree_part, squared_text

# the names of the basis monomials a^j * w^e in printed elements, in
# coordinate order 2j + e: "" for the constant term, then w, a, a*w, ...
_NAMES = tuple("*".join(filter(None, (f"a^{j}" if j > 1 else "a" * j, "w" * e)))
               for j, e in (divmod(idx, 2) for idx in range(16)))
# the 23 subgroups in report order, by order and then by sorted elements:
# each its normality, the generators the report prints (the greedy choice
# over its sorted elements), the terms of a primitive element of its fixed
# field and its label spec
_LATTICE = (
    (True, ((0, 1),), ((1, 1, 0), (2, 1, 0)), None),
    (False, ((0, 5),), ((2, 1, 0),), "Q(a)"),
    (False, ((1, 7),), ((2, 1, 0), (3, 1, 0)), None),
    (False, ((3, 7),), ((6, 1, 0), (7, 1, 0)), "Q(a-abar)"),
    (True, ((4, 1),), ((1, 1, 0), (4, 1, 0)), (1, 2, 4)),
    (False, ((4, 5),), ((3, 1, 0),), "Q(w*a)"),
    (False, ((5, 7),), ((2, -1, 0), (3, 1, 0)), None),
    (False, ((7, 7),), ((6, -1, 0), (7, 1, 0)), "Q(a+abar)"),
    (True, ((0, 5), (4, 1)), ((4, 1, 0),), (1, 6)),
    (True, ((1, 3),), ((1, 1, 1), (4, 1, 1), (9, 1, 0), (12, 1, 0)), (3, 4)),
    (True, ((1, 7), (4, 1)), ((1, -1, 1), (5, 1, 0), (9, 1, 0)), (2, 5)),
    (True, ((2, 1),), ((1, 1, 0),), (1, 2)),
    (True, ((2, 5),), ((5, 1, 0), (8, 1, 0)), (1, 4)),
    (True, ((3, 3),), ((1, 1, 1), (5, 1, 0), (9, 1, 0)), (3, 5)),
    (True, ((3, 7), (4, 1)), ((1, -1, 1), (4, -1, 1), (9, 1, 0), (12, 1, 0)), (2, 4)),
    (True, ((0, 5), (1, 3)), ((4, 1, 1), (12, 1, 0)), (7,)),
    (True, ((0, 5), (2, 1)), ((8, 1, 0),), (1,)),
    (True, ((0, 5), (3, 3)), ((4, -1, 1), (12, 1, 0)), (6,)),
    (True, ((1, 3), (2, 1)), ((1, 1, 1), (9, 1, 0)), (3,)),
    (True, ((1, 3), (2, 5)), ((13, 1, 0),), (4,)),
    (True, ((1, 7), (2, 1)), ((1, -1, 1), (9, 1, 0)), (2,)),
    (True, ((1, 7), (2, 5)), ((5, 1, 0),), (5,)),
    (True, ((0, 5), (1, 3), (2, 1)), ((0, 1, 0),), None),
)


def _generated(gens) -> tuple:
    """The sorted pairs of the group the pairs gens generate: (t, s) is the
    map m -> s*m + t of Z/8, so (t1, s1)(t2, s2) = (t1 + s1*t2, s1*s2)."""
    els, size = {(0, 1)}, 0
    while size < len(els):  # until right multiplication adds nothing
        size = len(els)
        els |= {((t1 + s1 * t2) % 8, s1 * s2 % 8) for t1, s1 in els for t2, s2 in gens}
    return tuple(sorted(els))


# each row's sorted elements; the last is the Galois group
SUBGROUPS = tuple(_generated(gens) for _, gens, _, _ in _LATTICE)


def pauli_condition_violation(k) -> str | None:
    """The violated clause of the Pauli condition, or None when it holds:
    k > 0 is neither a rational square nor twice one, exactly the values for
    which X^8 + k^2 has the Pauli group as Galois group."""
    n, d = k.numerator, k.denominator
    if n <= 0:
        return "k must be positive"
    # k is twice a square iff k/2 is a square
    for clause, q in (("a rational square ({})", k),
                      ("twice a rational square (2*{})", RationalParts(n, 2 * d))):
        r = nth_root(q, 2)
        if r is not None:
            return f"k = {k} is " + clause.format(squared_text(r))
    return None


def polynomial(k) -> str:
    """X^8 + k^2 as the text and JSON reports print it."""
    return f"X^8 + {RationalParts(k.numerator ** 2, k.denominator ** 2)}"


def element_text(texts: dict) -> str:
    """An element of E as printed, from its nonzero coordinates' texts by index."""
    terms = [t if not idx else _NAMES[idx] if t == "1" else f"-{_NAMES[idx]}"
             if t == "-1" else f"{t}*{_NAMES[idx]}" for idx, t in sorted(texts.items())]
    return " + ".join(terms).replace(" + -", " - ") or "0"


def labels(k) -> tuple:
    """Each row's label at k, or None."""
    # k is factored once; over its prime basis -1 is the vector 1 and 2 is
    # the vector 2.  The Pauli condition makes the seven classes and 1 a
    # group C2^3 modulo squares, so d_n has the vector of n below
    basis = PrimeBasis((squarefree_part(k),))
    reps = [basis.representative((n & 3) ^ basis.vectors[0] * (n >> 2)) for n in range(8)]

    def name(spec):
        if spec is None or isinstance(spec, str):
            return spec
        if len(spec) == 2:  # a plane, named by its two least classes
            return _field_name((reps[spec[0]], reps[spec[1]], reps[spec[0] ^ spec[1]]), 2)
        return _field_name(reps[n] for n in spec)

    return tuple(name(spec) for *_, spec in _LATTICE)


def _field_name(reps, count=None) -> str:
    """The field name Q(...) from the first count square-free class
    representatives by absolute value, a positive one first."""
    reps = sorted(reps, key=lambda d: (abs(d), d < 0))[:count]
    return "Q(" + ", ".join("i" if d == -1 else f"sqrt({d})" for d in reps) + ")"


def report(k) -> "LatticeReport":
    """The subgroup <-> fixed-field correspondence for X^8 + k^2; ValueError
    unless k meets the Pauli condition."""
    violation = pauli_condition_violation(k)
    if violation is not None:
        raise ValueError(violation)
    # the text of each power k^p the rows hold; k > 0, so a coefficient
    # -k^p prints as k^p with a minus
    powers = {p: str(RationalParts(k.numerator ** p, k.denominator ** p))
              for p in {power for *_, terms, _ in _LATTICE for *_, power in terms}}
    return LatticeReport(k, tuple(
        LatticeRow(elements, len(elements), normal, 16 // len(elements),
                   element_text({idx: "-" * (sign < 0) + powers[power]
                                 for idx, sign, power in terms}), label, gens)
        for elements, (normal, gens, terms, _), label
        in zip(SUBGROUPS, _LATTICE, labels(k))))


def _pair_text(g: tuple[int, int]) -> str:
    return "(%d,%d)" % g


class LatticeRow(namedtuple("LatticeRow", (
        "subgroup order normal degree primitive label generators"))):
    """One subgroup of the lattice (its sorted pairs (t, s), order, normality
    and generators) and the degree, primitive element as printed and label
    of its fixed field."""

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
            f"splitting field of {polynomial(self.k)} = Q(w, a), degree 16 over Q",
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
            "polynomial": polynomial(self.k),
            "subgroup_count": len(self.rows),
            "rows": [
                {
                    "order": row.order,
                    "normal": row.normal,
                    "generators": list(map(_pair_text, row.generators)),
                    "elements": list(map(_pair_text, row.subgroup)),
                    "fixed_field_degree": row.degree,
                    "fixed_field": row.field_display(),
                    "primitive_element": row.primitive,
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
