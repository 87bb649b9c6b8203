"""Exact splitting-field arithmetic, the Galois action, fixed fields and
the lattice correspondence."""

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
import reference
from hypothesis import given, settings, strategies as st

from pureoctic import arith, cli, groups, lattice, linalg, splitting
from pureoctic.groups import PAULI_PAIRS, affine_map
from pureoctic.splitting import FieldElt, SplittingField, witt_beta_rho

IDENTITY = (0, 1)


def _basis_images(field, aut):
    """Images of the 16 basis monomials, from the images of a and w alone."""
    t, s = aut
    a_img = math.prod([field.w] * t, start=field.a)
    w_img = math.prod([field.w] * s, start=field.one())
    return [math.prod([a_img] * j + [w_img] * e, start=field.one())
            for j in range(8) for e in range(2)]


def _reference_fixed_basis(field, auts):
    """Fixed space by dense linear algebra: stack M - I for the 16x16 matrix
    M of every automorphism and take the canonical RREF nullspace."""
    rows = []
    for aut in auts:
        cols = [img.coeffs for img in _basis_images(field, aut)]
        for i in range(16):
            rows.append([cols[j][i] - (i == j) for j in range(16)])
    return linalg.nullspace(rows, 16)


def _random_elt(field, rng, terms=4):
    coeffs = [F(0)] * 16
    for _ in range(terms):
        coeffs[rng.randrange(16)] = F(rng.randint(-3, 3))
    return FieldElt(field, coeffs)


@pytest.fixture(scope="module")
def E3():
    return SplittingField(F(3))


def test_context_validation():
    SplittingField(F(5))
    with pytest.raises(ValueError, match="square"):
        SplittingField(F(4))
    with pytest.raises(ValueError, match="twice"):
        SplittingField(F(8))
    with pytest.raises(ValueError, match="positive"):
        SplittingField(F(-3))


def test_reduction_rules(E3):
    a, w = E3.a, E3.w
    a4 = a * a * a * a
    assert a4 * a4 == -9
    assert w * w == a4 / F(3)
    i = a4 / F(3)
    assert i * i == -1
    assert E3.r * E3.r == 2
    assert E3.v2 * E3.v2 == 3
    assert reference.sqrt_of(E3, -2) * reference.sqrt_of(E3, -2) == -2
    assert reference.sqrt_of(E3, -3) * reference.sqrt_of(E3, -3) == -3
    assert reference.sqrt_of(E3, 6) * reference.sqrt_of(E3, 6) == 6
    assert reference.sqrt_of(E3, -6) * reference.sqrt_of(E3, -6) == -6


@pytest.mark.parametrize("k", [F(3), F(5, 3), F(3, 4), F(12), F(990051)])
def test_mul_table_matches_reference(k):
    table = tuple(tuple((idx, F(num, den)) for idx, num, den in row)
                  for row in SplittingField(k)._mul_table)
    assert table == reference.reference_mul_table(k)


@pytest.mark.parametrize("k", [F(3), F(27175, 54), F(10 ** 599 + 7)],
                         ids=["3", "27175/54", "600-digit"])
def test_one_table_of_reduced_monomials(monkeypatch, k):
    # the field reduces each a^j * w^m, j < 15 and m < 8, once; the action
    # and the product table are read off that one table
    calls = []
    reduce = splitting._reduce
    monkeypatch.setattr(splitting, "_reduce", lambda *args: calls.append(args) or reduce(*args))
    E = SplittingField(k)
    E.a * E.w
    assert len(calls) <= 120

    def scaled(entries):
        return tuple((idx, F(num, den)) for idx, num, den in entries)

    assert tuple(map(scaled, E._mul_table)) == reference.reference_mul_table(k)
    assert {g: scaled(action) for g, action in E._actions.items()} == \
        reference.reference_actions(k)
    # a set that is not a subgroup's pairs, Perms among them, is refused
    center = groups.affine_group_mod8(PAULI_PAIRS).center()
    for H in ({IDENTITY, (1, 3)}, center, {*center, IDENTITY}):
        with pytest.raises(ValueError, match="^not the pairs .t, s. of a subgroup"):
            E.fixed_field(H)


def test_construction_makes_no_field_products(monkeypatch):
    calls = []
    mul = FieldElt.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    groups_built = []
    init = groups.FinGroup.__init__

    def counting_init(self, *args, **kwargs):
        groups_built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FieldElt, "__mul__", counting)
    monkeypatch.setattr(groups.FinGroup, "__init__", counting_init)
    E = SplittingField(F(5))
    assert calls == []
    E.a * E.w  # the counter does see a product
    assert len(calls) == 1
    witt_beta_rho(E)
    assert groups_built == []
    groups.affine_group_mod8(PAULI_PAIRS)  # the counter does see a group
    assert groups_built


def test_lattice_builds_no_group(monkeypatch):
    # the subgroups and their generators are the literal `_LATTICE`, and
    # fixed_field takes each as its set of pairs
    calls = Counter()
    closure, init = groups.closure, groups.FinGroup.__init__

    def counted_closure(gens):
        calls["closure"] += 1
        return closure(gens)

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups, "closure", counted_closure)
    monkeypatch.setattr(groups.FinGroup, "__init__", counted_init)
    assert len(SplittingField(F(5)).lattice_report().rows) == 23
    assert calls == Counter()


def _count_fractions(monkeypatch, fn):
    """How many Fractions fn() constructs."""
    count = 0
    new = F.__new__

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(F, "__new__", counting)
        fn()
    return count


def test_lattice_constructs_few_fractions(monkeypatch):
    # elements are integer numerators over one denominator and every scalar
    # is an integer pair, so the only Fraction is the argument F(5); a
    # layout of 16 Fractions per element made 23790 in the report and 4917
    # in the certificate, and Fraction scalars made 61 in the certificate
    count = _count_fractions(
        monkeypatch, lambda: SplittingField(F(5)).lattice_report())
    assert count == 1
    count = _count_fractions(monkeypatch, lambda: witt_beta_rho(SplittingField(F(5))))
    assert count == 1
    # nor does printing, from an int k
    count = _count_fractions(monkeypatch, lambda: str(witt_beta_rho(SplittingField(5)).beta))
    assert count == 0
    E = SplittingField(F(5))
    # the coordinates read back as Fractions, from any route
    for u in (FieldElt(E, [1] * 16), E.a * 3, -E.w, E.a + 1, E.apply((1, 3), E.a)):
        assert all(type(c) is F for c in u.coeffs)


def test_elements_are_reduced_over_one_denominator(E3):
    u = FieldElt(E3, [F(1, 6), F(-1, 4)] + [F(2, 3)] * 14)
    assert u.den == 12 and u.nums[:3] == (2, -3, 8)
    assert (u - u).nums == (0,) * 16 and (u - u).den == 1
    v = (E3.a / 3) * 3
    assert v.den == 1 and v == E3.a


@pytest.mark.parametrize("bad", [0.1, True, "1", None], ids=repr)
def test_constructor_takes_only_exact_coordinates(E3, bad):
    # a float would be stored as its binary value, 0.1 as 3602879701896397/2^55
    with pytest.raises(TypeError):
        FieldElt(E3, [F(1, 2)] + [0] * 14 + [bad])


@pytest.mark.parametrize("op", [
    lambda u: u + 0.5, lambda u: 0.5 + u, lambda u: u - 0.5,
    lambda u: u * 2.0, lambda u: 2.0 * u, lambda u: u / 2.0,
    lambda u: u + True, lambda u: u * False, lambda u: u + "1"],
    ids=["add-float", "radd-float", "sub-float", "mul-float", "rmul-float",
         "div-float", "add-bool", "mul-bool", "add-str"])
def test_foreign_operands_raise_type_error(E3, op):
    with pytest.raises(TypeError):
        op(E3.a)


def test_foreign_operands_are_not_equal(E3):
    one = E3.one()
    assert one == 1 and one == F(1)
    assert not (one == 1.0 or one == True or one == "1")


def test_ring_axioms_random(E3):
    rng = random.Random(101)
    for _ in range(1000):
        u = _random_elt(E3, rng)
        v = _random_elt(E3, rng)
        t = _random_elt(E3, rng)
        assert (u * v) * t == u * (v * t)
        assert u * (v + t) == u * v + u * t
        assert u * v == v * u
    assert E3.zero() * E3.a == E3.zero()


# k over the Pauli condition with a numerator and a denominator, and sparse
# elements with small fractional coordinates
PAULI_K = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**3)).filter(
    lambda k: lattice.pauli_condition_violation(k) is None)


COORDS = st.dictionaries(
    st.integers(0, 15), st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
    max_size=5).map(lambda d: [d.get(i, 0) for i in range(16)])


@given(PAULI_K, COORDS, COORDS, COORDS)
@settings(max_examples=40, deadline=None)
def test_ring_axioms_against_fraction_reference(k, cu, cv, ct):
    E = SplittingField(k)
    u, v, t = (FieldElt(E, c) for c in (cu, cv, ct))
    assert (u * v).coeffs == reference.mul(u, v)
    assert (u + v).coeffs == tuple(x + y for x, y in zip(u.coeffs, v.coeffs))
    assert (u * v) * t == u * (v * t)
    assert u * (v + t) == u * v + u * t
    assert u * v == v * u
    if not u.is_zero():
        assert u * u.inverse() == 1


def test_inverse(E3):
    rng = random.Random(55)
    for field in (E3, SplittingField(F(5, 3))):
        for _ in range(25):
            u = _random_elt(field, rng)
            if u.is_zero():
                continue
            assert u * u.inverse() == field.one()
    with pytest.raises(ZeroDivisionError):
        E3.zero().inverse()


@pytest.mark.parametrize("zero", [0, F(0), arith.RationalParts(0, 1)], ids=repr)
def test_division_by_a_zero_scalar_raises(E3, zero):
    for u in (E3.a, E3.one(), E3.zero()):
        with pytest.raises(ZeroDivisionError):
            u / zero


def test_scalars_of_every_rational_type_agree(E3):
    # a scalar is read through its numerator and denominator alone
    u = E3.a + E3.w / 7
    # the last pair is unreduced, and reduces itself to 1/2
    for q, (n, d) in ((F(-3), (-3, 1)), (F(5, 3), (5, 3)), (F(-2, 9), (-2, 9)),
                      (F(1, 2), (2, 4))):
        pair = arith.RationalParts(n, d)
        assert FieldElt(E3, [pair] * 16) == FieldElt(E3, [q] * 16)
        assert E3.monomial(3, 1, pair) == E3.monomial(3, 1, q)
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
                   lambda x, y: x / y, lambda x, y: y + x, lambda x, y: y * x):
            assert op(u, pair) == op(u, q), q
        assert (u == pair) == (u == q) and E3.one() * q == pair
    assert u / 7 == u / F(7) == u / arith.RationalParts(7, 1)
    half = FieldElt(E3, [arith.RationalParts(2, 4)] + [0] * 15)
    assert half == E3.one() / 2 and (half.nums[0], half.den) == (1, 2)
    assert SplittingField(arith.RationalParts(5, 3)).k == (5, 3)
    assert SplittingField(F(5, 3)).k == SplittingField(arith.RationalParts(10, 6)).k


def test_mixed_context_rejected(E3):
    E5 = SplittingField(F(5))
    with pytest.raises(ValueError):
        E3.a * E5.a


def test_defining_polynomial(E3):
    assert reference.defining_polynomial_check(E3)


def test_conjugate_square_identities(E3):
    a, abar = E3.a, E3.a_bar
    assert (a + abar) * (a + abar) == E3.v2 * (2 + E3.r)
    assert (a - abar) * (a - abar) == E3.v2 * (E3.r - 2)
    assert abar == E3.v2 * a.inverse()
    assert abar == E3.v2 / a


def test_powers_and_division(E3):
    u = E3.a + E3.w
    assert E3.one() / (u * u) == u.inverse() * u.inverse()
    assert (u / u) == E3.one()
    assert (E3.a / 3) * 3 == E3.a
    u = E3.monomial(0, 0, F(7, 2))
    assert u == F(7, 2) and u.is_rational()
    assert not E3.a.is_rational()


def test_galois_group_is_pauli(E3):
    G = groups.affine_group_mod8(E3._actions)
    assert len(G) == 16
    assert IDENTITY in E3._actions
    assert groups.identify(G) == "Pauli"


def test_lattice_literal_is_the_engines_lattice():
    # each row of the literal, its normality and printed generators, is the
    # engine's subgroup of the 16 Pauli maps in the report's order, and the
    # field's automorphisms are those maps
    engine = reference.pauli_lattice()
    assert [(normal, gens) for _, normal, gens in engine] == \
        [(normal, gens) for normal, gens, _, _ in lattice._LATTICE]
    assert [elements for elements, _, _ in engine] == list(lattice.SUBGROUPS)
    for k in (F(3), F(5, 3), F(990051)):
        assert tuple(SplittingField(k)._actions) == PAULI_PAIRS


@pytest.mark.parametrize("k", [F(3), F(5, 3), F(990051)])
def test_label_table_reduces_each_class_once(monkeypatch, k):
    calls = []

    def counting(q):
        calls.append(q)
        return arith.squarefree_part(q)

    monkeypatch.setattr(lattice, "squarefree_part", counting)
    rep = lattice.report(k)
    assert len(rep.rows) == 23
    assert len(calls) <= 8


@pytest.mark.parametrize("k", [F(3), F(5, 3), F(990051)])
def test_lattice_factors_k_once(monkeypatch, k):
    calls = []
    factor = arith.factor

    def counting(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(arith, "factor", counting)
    SplittingField(k).lattice_report()
    assert len(calls) <= sum(abs(n) != 1 for n in (k.numerator, k.denominator))


def test_affine_aut_constraint(E3):
    # pairs that break s = 2t+1 mod 4, or are out of range, are not
    # automorphisms of E, and neither is anything but a pair
    for bad in ((0, 3), (1, 1), (8, 1), [0, 1], affine_map(0, 1)):
        with pytest.raises(ValueError, match="not an automorphism"):
            E3.apply(bad, E3.a)
    with pytest.raises(ValueError):
        affine_map(0, 2)  # m -> 2m is not a permutation
    s = affine_map(1, 3)
    assert s * s * s * s == affine_map(0, 1) and s * s != affine_map(0, 1)


def test_identity_fixes_everything(E3):
    rng = random.Random(8)
    for _ in range(10):
        u = _random_elt(E3, rng)
        assert E3.apply(IDENTITY, u) == u


def test_apply_is_ring_homomorphism(E3):
    # exhaustive on basis products, for every automorphism
    basis = [E3.monomial(*divmod(i, 2)) for i in range(16)]
    for aut in PAULI_PAIRS:
        images = [E3.apply(aut, b) for b in basis]
        for i in range(16):
            for j in range(i, 16):
                assert E3.apply(aut, basis[i] * basis[j]) == images[i] * images[j]
        assert E3.apply(aut, E3.monomial(0, 0, F(7, 3))) == F(7, 3)


def test_apply_composition_matches_group_law(E3):
    rng = random.Random(21)
    u = _random_elt(E3, rng)
    for s1 in PAULI_PAIRS:
        for s2 in PAULI_PAIRS:
            # the pair of the composite map, by the engine's product
            s12 = reference.affine_pair(affine_map(*s1) * affine_map(*s2))
            assert E3.apply(s12, u) == E3.apply(s1, E3.apply(s2, u))


@pytest.mark.parametrize("k", [F(3), F(5, 3), F(3, 4)])
def test_automorphisms_act_monomially(k):
    # each basis monomial goes to one nonzero multiple of one basis monomial
    E = SplittingField(k)
    for aut in PAULI_PAIRS:
        targets = set()
        for idx, image in enumerate(_basis_images(E, aut)):
            support = [i for i, c in enumerate(image.coeffs) if c]
            assert len(support) == 1
            targets.update(support)
            assert E.apply(aut, E.monomial(*divmod(idx, 2))) == image
        assert len(targets) == 16


def test_every_aut_sends_a_to_a_root(E3):
    for aut in PAULI_PAIRS:
        assert math.prod([E3.apply(aut, E3.a)] * 8, start=E3.one()) == -9
    # (t,s) = (4,1) sends a to -a
    assert E3.apply((4, 1), E3.a) == -E3.a


def test_fixgroup_of_sqrt_minus_2_is_q8(E3):
    ir = E3.i * E3.r
    fix = [s for s in PAULI_PAIRS if E3.apply(s, ir) == ir]
    assert len(fix) == 8
    H = groups.affine_group_mod8(fix)
    assert groups.identify(H) == "Q8"


def test_fixed_field_of_full_group_is_q(E3):
    ff = E3.fixed_field(PAULI_PAIRS)
    assert ff.degree == 1
    assert ff.primitive == E3.one()


def test_fixed_field_of_center(E3):
    center = groups.affine_group_mod8(PAULI_PAIRS).center()
    assert len(center) == 4
    ff = E3.fixed_field(map(reference.affine_pair, center))
    assert ff.degree == 4
    vecs = [b.coeffs for b in ff.basis]
    assert linalg.in_span(vecs, E3.i.coeffs)
    assert linalg.in_span(vecs, E3.v2.coeffs)
    assert ff.label == "Q(i, sqrt(3))"


def test_fixed_field_rejects_non_closed_sets(E3):
    # {(0,1), (1,3)} would read degree 8, and a search for a primitive
    # element of what {(4,1)} fixes would not end
    for H in ({IDENTITY, (1, 3)}, {(4, 1)}, {IDENTITY, (0, 3)}, set(),
              {IDENTITY, (1, 3), (2, 5)}):
        with pytest.raises(ValueError, match="not the pairs"):
            E3.fixed_field(H)


def test_galois_correspondence(E3):
    fixed = {}
    for H, _, _ in reference.pauli_lattice():
        ff = E3.fixed_field(H)
        assert ff.degree * len(H) == 16
        fixed[frozenset(H)] = [b.coeffs for b in ff.basis]
    assert len(fixed) == 23
    # order-inverting containment
    for h1, basis1 in fixed.items():
        for h2, basis2 in fixed.items():
            if h1 < h2:
                assert all(linalg.in_span(basis1, v) for v in basis2)
    # the correspondence is one-to-one: distinct subgroups fix distinct spaces
    spaces = list(fixed.values())
    for i in range(len(spaces)):
        for j in range(i + 1, len(spaces)):
            same = (len(spaces[i]) == len(spaces[j])
                    and all(linalg.in_span(spaces[i], v) for v in spaces[j]))
            assert not same


@pytest.mark.parametrize("k", [F(3), F(5), F(6), F(7), F(3, 4)])
def test_fixed_fields_match_dense_reference(k):
    E = SplittingField(k)
    for H, _, _ in reference.pauli_lattice():
        basis = [b.coeffs for b in E.fixed_field(H).basis]
        assert basis == _reference_fixed_basis(E, H)


def test_lattice_report(E3):
    rep = E3.lattice_report()
    assert len(rep.rows) == 23
    assert reference.degree_counts(rep) == {2: 7, 4: 7, 8: 7}
    by_label = {row.label: row for row in rep.rows if row.label}
    # textually attested anchors
    assert by_label["Q(a)"].normal is False
    assert by_label["Q(w*a)"].normal is False
    assert by_label["Q(a+abar)"].normal is False
    assert by_label["Q(a-abar)"].normal is False
    assert by_label["Q(sqrt(-2))"].degree == 2
    L = by_label["Q(i, sqrt(2), sqrt(3))"]
    assert L.degree == 8 and L.normal
    # L is the unique normal octic
    normal_octics = [r for r in rep.rows if r.degree == 8 and r.normal]
    assert normal_octics == [L]
    # all seven quadratic labels present
    quad_labels = {r.label for r in rep.rows if r.degree == 2}
    assert quad_labels == {"Q(i)", "Q(sqrt(2))", "Q(sqrt(-2))", "Q(sqrt(3))",
                           "Q(sqrt(-3))", "Q(sqrt(6))", "Q(sqrt(-6))"}
    # every quartic got a biquadratic label
    assert all(r.label for r in rep.rows if r.degree == 4)


def test_lattice_serializations(E3):
    rep = E3.lattice_report()
    text = rep.as_text()
    assert "23 total" in text and "21 proper nontrivial" in text
    dot = rep.as_dot()
    assert dot.startswith("digraph") and dot.count("->") > 20
    d = rep.as_dict()
    assert d["subgroup_count"] == 23
    assert len(d["rows"]) == 23


def test_primitive_elements_certified(E3):
    rep = E3.lattice_report()
    for row in rep.rows:
        primitive = E3.fixed_field(row.subgroup).primitive
        assert str(primitive) == row.primitive
        assert len(E3.orbit(primitive)) == row.degree


LABEL_KS = [F(3), F(5, 3), F(12), F(3, 4), F(990051)]


@pytest.mark.parametrize("k", LABEL_KS)
def test_stabilizer_matches_apply(k):
    E = SplittingField(k)
    elts = [gen for gens in _label_generators(E).values() for gen in gens]
    elts += [E.fixed_field(elements).primitive for elements in lattice.SUBGROUPS]
    # every basis monomial, so each coordinate of the test is exercised
    elts += [E.monomial(*divmod(idx, 2), F(idx + 1, 3)) for idx in range(16)]
    for u in elts:
        assert reference.stabilizer(E, u) == {g for g in PAULI_PAIRS
                                              if E.apply(g, u) == u}


@pytest.mark.parametrize("k", LABEL_KS)
def test_label_table_work(monkeypatch, k):
    # a lattice report substitutes k into the literal: it tests no
    # automorphism on an element, builds no field and takes no product
    calls = Counter()
    fixes, init, mul = reference.fixes, SplittingField.__init__, FieldElt.__mul__

    def counting_fixes(*args):
        calls["fixes"] += 1
        return fixes(*args)

    def counting_init(*args):
        calls["init"] += 1
        init(*args)

    def counting_mul(*args):
        calls["mul"] += 1
        return mul(*args)

    monkeypatch.setattr(reference, "fixes", counting_fixes)
    monkeypatch.setattr(SplittingField, "__init__", counting_init)
    monkeypatch.setattr(FieldElt, "__mul__", counting_mul)
    assert len(lattice.report(k).rows) == 23
    assert calls == Counter()
    # the counters do see the search's route
    assert len(reference.label_table(SplittingField(k))) == 19
    assert calls["init"] == 1 and calls["fixes"] > 0


def _label_generators(E):
    """The 19 labels and their generators: seven square roots, seven planes of
    two, the triquadratic field and the four named octics.  A quadratic or
    biquadratic field is named by the square-free parts of its classes."""
    def rep(d):
        return arith.squarefree_part(d).representative

    def order(d):
        return abs(d), d < 0

    def name(*reps):
        return "Q(%s)" % ", ".join("i" if d == -1 else f"sqrt({d})"
                                   for d in sorted(reps, key=order))

    k = F(*E.k)
    labels = {name(rep(d)): [reference.sqrt_of(E, d)]
              for d in (-1, 2, -2, k, -k, 2 * k, -2 * k)}
    for d1, d2 in ((-1, 2), (-1, k), (-1, 2 * k), (2, k), (2, -k), (-2, k), (-2, -k)):
        plane = sorted((rep(d1), rep(d2), rep(d1 * d2)), key=order)
        labels[name(*plane[:2])] = [reference.sqrt_of(E, d1), reference.sqrt_of(E, d2)]
    labels[f"Q(i, sqrt(2), sqrt({rep(k)}))"] = [E.i, E.r, E.v2]
    labels.update({"Q(a)": [E.a], "Q(w*a)": [E.a * E.w],
                   "Q(a+abar)": [E.a + E.a_bar], "Q(a-abar)": [E.a - E.a_bar]})
    return labels


@pytest.mark.parametrize("k", LABEL_KS)
def test_nineteen_distinct_labels(k):
    E = SplittingField(k)
    rows = E.lattice_report().rows
    labels = [row.label for row in rows if row.label]
    assert len(labels) == 19 == len(set(labels))
    # each label names the subgroup fixing its generators, of order 16/degree
    stabilizers = {frozenset.intersection(*(reference.stabilizer(E, u) for u in gens))
                   for gens in _label_generators(E).values()}
    assert len(stabilizers) == 19
    by_subgroup = {frozenset(row.subgroup): row for row in rows}
    for H in stabilizers:
        assert by_subgroup[H].label and by_subgroup[H].degree * len(H) == 16


def _assert_rows_match_the_search(k):
    # each row's terms are the primitive element the search picks at k, its
    # label spec and label are the label table's for its subgroup, and the
    # report prints what the report built by the search prints
    E = SplittingField(k)
    table = reference.label_table(E)
    labels = lattice.labels(k)
    for row, (elements, (_, _, terms, spec)) in enumerate(
            zip(lattice.SUBGROUPS, lattice._LATTICE)):
        found = reference.primitive_element(E, elements)
        want = [0] * 16
        for idx, sign, power in terms:
            want[idx] = sign * k ** power
        assert found.coeffs == tuple(want), (k, row)
        assert table.get(frozenset(elements), (None, None)) == (spec, labels[row]), (k, row)
    report, searched = lattice.report(k), reference.search_report(k)
    assert report == searched
    assert report.as_text() == searched.as_text()
    assert report.as_dict() == searched.as_dict()
    assert report.as_dot() == searched.as_dot()


# besides the label values, the small k, where a coordinate +-k^d is most
# likely to meet a small integer multiple of another
@pytest.mark.parametrize("k", LABEL_KS + [
    F(5), F(6), F(7), F(10), F(1, 3), F(2, 3), F(3, 2), F(5, 2), F(8, 3)])
def test_lattice_rows_match_the_search(k):
    _assert_rows_match_the_search(k)


@given(PAULI_K)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
def test_lattice_rows_match_the_search_on_generated_k(k):
    _assert_rows_match_the_search(k)


@pytest.mark.parametrize("k", LABEL_KS)
def test_sign_characters(k):
    # g = (t, s) negates i iff t is odd and sqrt(2) iff s = +-3 mod 8, and
    # sends sqrt(k) to +-sqrt(k), negated iff 6t + s - 1 = 4 mod 8; so the
    # subgroup fixing sqrt(d_n) for each class n of a label spec is k-free
    E = SplittingField(k)
    flips = {}
    for t, s in PAULI_PAIRS:
        signs = (t % 2, s % 8 in (3, 5), (6 * t + s - 1) % 8 == 4)
        for u, negated in zip((E.i, E.r, E.v2), signs):
            assert E.apply((t, s), u) == (-u if negated else u)
        flips[t, s] = sum(bool(bit) << b for b, bit in enumerate(signs))
    for elements, (_, _, _, spec) in zip(lattice.SUBGROUPS, lattice._LATTICE):
        if isinstance(spec, tuple):
            assert set(elements) == {g for g, f in flips.items()
                                     if not any((f & n).bit_count() & 1 for n in spec)}


@pytest.mark.parametrize("k", [F(5), F(6), F(12), F(5, 3)])
def test_other_k_values(k):
    E = SplittingField(k)
    assert reference.defining_polynomial_check(E)
    assert tuple(E._actions) == PAULI_PAIRS
    ir = E.i * E.r
    fix = [s for s in PAULI_PAIRS if E.apply(s, ir) == ir]
    H = groups.affine_group_mod8(fix)
    assert groups.identify(H) == "Q8"


# PAULI_K's numerators and denominators are at most 10^6: trial division
# factors them, and no rho budget is spent
@given(PAULI_K)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
def test_lattice_and_witt_on_generated_k(k):
    E = SplittingField(k)
    report = E.lattice_report()
    assert len(report.rows) == 23
    assert all(row.degree * row.order == 16 for row in report.rows)
    assert reference.degree_counts(report) == {2: 7, 4: 7, 8: 7}
    # each of the 19 labels names the subgroup that fixes its generators
    labels = _label_generators(E)
    assert len(labels) == 19
    by_subgroup = {frozenset(row.subgroup): row.label for row in report.rows}
    for label, gens in labels.items():
        fixing = frozenset(g for g in PAULI_PAIRS
                           if all(E.apply(g, u) == u for u in gens))
        assert by_subgroup[fixing] == label
    cert = witt_beta_rho(E)
    # every field after beta, rho and sqrt(rho * beta) is a check
    assert all(cert[3:]), cert


def test_lattice_report_of_an_unreduced_pair_is_that_of_its_value():
    # the pair reduces itself: 6/2 gives the polynomial, the rows and the
    # labels of k = 3
    pair, three = lattice.report(arith.RationalParts(6, 2)), lattice.report(3)
    assert pair.as_text() == three.as_text()
    assert pair.as_dict() == three.as_dict()
    assert pair.as_dot() == three.as_dot()
    assert lattice.polynomial(arith.RationalParts(6, 2)) == "X^8 + 9"


@given(PAULI_K)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
def test_lattice_report_reads_the_literal_pair_as_the_fraction(k):
    # `lattice` hands the report the reduced pair of its literal, whose
    # integers give k, k^2 and every primitive element as the Fraction does
    pair, frac = lattice.report(cli.rational_parts(str(k))), lattice.report(k)
    assert pair.as_text() == frac.as_text()
    assert pair.as_dict() == frac.as_dict()
    assert pair.as_dot() == frac.as_dot()
