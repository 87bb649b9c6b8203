"""Exact splitting-field arithmetic, the Galois action, fixed fields and
the lattice correspondence."""

import math
import random
from fractions import Fraction as F

import pytest
import reference

from pureoctic import arith, groups, linalg
from pureoctic.groups import affine_map, affine_pair
from pureoctic.splitting import FieldElt, SplittingField, witt_beta_rho

IDENTITY = affine_map(0, 1)


def _reference_mul_table(k):
    """Products of basis monomials by the two rules applied one step at a
    time: a single monomial times a scalar."""
    table = []
    for i1 in range(16):
        j1, e1 = divmod(i1, 2)
        row = []
        for i2 in range(16):
            j2, e2 = divmod(i2, 2)
            j, e = j1 + j2, e1 + e2
            scale = F(1)
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


def _basis_images(field, aut):
    """Images of the 16 basis monomials, from the images of a and w alone."""
    t, s = affine_pair(aut)
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
    assert SplittingField(k)._mul_table == _reference_mul_table(k)


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
    # uncached, so a call would build the group models afresh and be counted
    monkeypatch.setattr(groups, "group_models", groups.group_models.__wrapped__)
    E = SplittingField(F(5))
    assert calls == []
    E.a * E.w  # the counter does see a product
    assert len(calls) == 1
    witt_beta_rho(E)
    assert groups_built == []
    E.galois_group()  # the counter does see a group
    assert groups_built


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
    assert E3.monomial(0, 0, F(7, 2)).rational_value() == F(7, 2)
    with pytest.raises(ValueError):
        E3.a.rational_value()


def test_galois_group_is_pauli(E3):
    G = E3.galois_group()
    assert len(G) == 16
    assert IDENTITY in G
    assert groups.identify(G) == "Pauli"


def test_galois_group_is_shared():
    field = SplittingField(F(3))
    G = field.galois_group()
    assert field.galois_group() is G
    # the first lattice enumerates the subgroups once; later ones reuse them
    field.lattice_report()
    subgroups = G._subgroups
    assert subgroups is not None
    SplittingField(F(5)).lattice_report()
    assert G._subgroups is subgroups
    assert sorted(map(affine_pair, G)) == list(groups.PAULI_PAIRS)


@pytest.mark.parametrize("k", [F(3), F(5, 3), F(990051)])
def test_label_table_reduces_each_class_once(monkeypatch, k):
    import pureoctic.splitting as splitting
    calls = []

    def counting(q):
        calls.append(q)
        return arith.squarefree_part(q)

    monkeypatch.setattr(splitting, "squarefree_part", counting)
    rep = SplittingField(k).lattice_report()
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
    # affine maps of Z/8 that break s = 2t+1 mod 4 are not automorphisms of E
    for bad in (affine_map(0, 3), affine_map(1, 1)):
        with pytest.raises(ValueError, match="not an affine map"):
            E3.apply(bad, E3.a)
        with pytest.raises(ValueError, match="not an affine map"):
            E3.fixed_field(groups.closure([bad]))
    with pytest.raises(ValueError):
        affine_map(0, 2)  # m -> 2m is not a permutation
    s = affine_map(1, 3)
    assert s * s * s * s == IDENTITY and s * s != IDENTITY


def test_identity_fixes_everything(E3):
    rng = random.Random(8)
    for _ in range(10):
        u = _random_elt(E3, rng)
        assert E3.apply(IDENTITY, u) == u


def test_apply_is_ring_homomorphism(E3):
    # exhaustive on basis products, for every automorphism
    basis = [E3.monomial(*divmod(i, 2)) for i in range(16)]
    for aut in E3.galois_group():
        images = [E3.apply(aut, b) for b in basis]
        for i in range(16):
            for j in range(i, 16):
                assert E3.apply(aut, basis[i] * basis[j]) == images[i] * images[j]
        assert E3.apply(aut, E3.monomial(0, 0, F(7, 3))) == F(7, 3)


def test_apply_composition_matches_group_law(E3):
    rng = random.Random(21)
    u = _random_elt(E3, rng)
    for s1 in E3.galois_group():
        for s2 in E3.galois_group():
            assert E3.apply(s1 * s2, u) == E3.apply(s1, E3.apply(s2, u))


@pytest.mark.parametrize("k", [F(3), F(5, 3), F(3, 4)])
def test_automorphisms_act_monomially(k):
    # each basis monomial goes to one nonzero multiple of one basis monomial
    E = SplittingField(k)
    for aut in E.galois_group():
        targets = set()
        for idx, image in enumerate(_basis_images(E, aut)):
            support = [i for i, c in enumerate(image.coeffs) if c]
            assert len(support) == 1
            targets.update(support)
            assert E.apply(aut, E.monomial(*divmod(idx, 2))) == image
        assert len(targets) == 16


def test_every_aut_sends_a_to_a_root(E3):
    for aut in E3.galois_group():
        assert math.prod([E3.apply(aut, E3.a)] * 8, start=E3.one()) == -9
    # (t,s) = (4,1) sends a to -a
    assert E3.apply(affine_map(4, 1), E3.a) == -E3.a


def test_fixgroup_of_sqrt_minus_2_is_q8(E3):
    ir = E3.i * E3.r
    fix = [s for s in E3.galois_group() if E3.apply(s, ir) == ir]
    assert len(fix) == 8
    H = groups.closure(fix)
    assert groups.identify(H) == "Q8"


def test_fixed_field_of_full_group_is_q(E3):
    ff = E3.fixed_field(E3.galois_group())
    assert ff.degree == 1
    assert ff.primitive == E3.one()


def test_fixed_field_of_center(E3):
    center = E3.galois_group().center()
    assert len(center) == 4
    ff = E3.fixed_field(center)
    assert ff.degree == 4
    vecs = [b.coeffs for b in ff.basis]
    assert linalg.in_span(vecs, E3.i.coeffs)
    assert linalg.in_span(vecs, E3.v2.coeffs)
    assert ff.label == "Q(i, sqrt(3))"


def test_fixed_field_rejects_non_closed_sets(E3):
    with pytest.raises(ValueError):
        E3.fixed_field([IDENTITY, affine_map(1, 3)])
    with pytest.raises(ValueError):
        E3.fixed_field([affine_map(4, 1)])  # identity missing


def test_galois_correspondence(E3):
    fixed = {}
    for H, _ in E3.galois_group().subgroups():
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
    for H, _ in E.galois_group().subgroups():
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
        assert len(E3.orbit(row.primitive)) == row.degree


LABEL_KS = [F(3), F(5, 3), F(12), F(3, 4), F(990051)]


@pytest.mark.parametrize("k", LABEL_KS)
def test_stabilizer_matches_apply(k):
    E = SplittingField(k)
    label_gens = _label_generators(E)
    elts = [gen for gens in label_gens for gen in gens]
    elts += [row.primitive for row in E.lattice_report().rows]
    for u in elts:
        assert E._stabilizer(u) == {g for g in E.galois_group()
                                    if E.apply(g, u) == u}
    for gens in label_gens:
        assert E._stabilizer(*gens) == frozenset.intersection(
            *(E._stabilizer(g) for g in gens))


def _label_generators(E):
    """The generators of the 19 labels: seven square roots, seven planes of
    two, the triquadratic field and the four named octics."""
    roots = [reference.sqrt_of(E, d) for d in (-1, 2, -2, E.k, -E.k, 2 * E.k, -2 * E.k)]
    planes = [[roots[i], roots[j]] for i, j in
              ((0, 1), (0, 3), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4))]
    octics = [[E.i, E.r, E.v2], [E.a], [E.a * E.w], [E.a + E.a_bar],
              [E.a - E.a_bar]]
    return [[root] for root in roots] + planes + octics


@pytest.mark.parametrize("k", LABEL_KS)
def test_nineteen_distinct_labels(k):
    E = SplittingField(k)
    rows = E.lattice_report().rows
    labels = [row.label for row in rows if row.label]
    assert len(labels) == 19 == len(set(labels))
    # each label names the subgroup fixing its generators, of order 16/degree
    stabilizers = {E._stabilizer(*gens) for gens in _label_generators(E)}
    assert len(stabilizers) == 19
    by_subgroup = {frozenset(row.subgroup): row for row in rows}
    for H in stabilizers:
        assert by_subgroup[H].label and by_subgroup[H].degree * len(H) == 16


@pytest.mark.parametrize("k", [F(5), F(6), F(12), F(5, 3)])
def test_other_k_values(k):
    E = SplittingField(k)
    assert reference.defining_polynomial_check(E)
    assert len(E.galois_group()) == 16
    ir = E.i * E.r
    fix = [s for s in E.galois_group() if E.apply(s, ir) == ir]
    H = groups.closure(fix)
    assert groups.identify(H) == "Q8"
