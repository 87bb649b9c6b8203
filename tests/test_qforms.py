"""Hilbert symbols, Hasse invariants, form equivalence and the embedding
criteria."""

import random
from fractions import Fraction as F

import pytest
import reference

from pureoctic import qforms
from pureoctic.arith import squarefree_part
from pureoctic.qforms import REAL_PLACE, Place, TernaryForm


def _places_for(a, b):
    return qforms.relevant_places(a, b)


def test_place_type():
    assert REAL_PLACE.is_real and not Place(7).is_real
    with pytest.raises(ValueError):
        Place(6)


def test_hilbert_trivial_first_argument():
    for b in (F(-5), F(7), F(2, 3)):
        for v in (REAL_PLACE, Place(2), Place(3), Place(5)):
            assert qforms.hilbert(F(1), b, v) == 1


def test_hilbert_frozen_examples():
    assert qforms.hilbert(F(-1), F(-1), REAL_PLACE) == -1
    assert qforms.hilbert(F(-1), F(-1), Place(2)) == -1
    for p in (3, 5, 7, 11):
        assert qforms.hilbert(F(-1), F(-1), Place(p)) == 1
    assert qforms.hilbert(F(2), F(3), Place(2)) == -1


def test_hilbert_symmetry_and_multiplicativity():
    rng = random.Random(606)
    for _ in range(300):
        a = F(rng.randint(-30, 30) or 1, rng.randint(1, 12))
        b = F(rng.randint(-30, 30) or 1, rng.randint(1, 12))
        a2 = F(rng.randint(-30, 30) or 1, rng.randint(1, 12))
        for v in qforms.relevant_places(a, b, a2):
            assert qforms.hilbert(a, b, v) == qforms.hilbert(b, a, v)
            assert qforms.hilbert(a * a2, b, v) == \
                qforms.hilbert(a, b, v) * qforms.hilbert(a2, b, v)


def test_hilbert_product_formula():
    rng = random.Random(4040)
    for _ in range(500):
        a = F(rng.randint(-50, 50) or 3, rng.randint(1, 40))
        b = F(rng.randint(-50, 50) or 5, rng.randint(1, 40))
        prod = 1
        for v in _places_for(a, b):
            prod *= qforms.hilbert(a, b, v)
        assert prod == 1


def test_hilbert_square_class_stability():
    rng = random.Random(11)
    for _ in range(100):
        a = F(rng.randint(-20, 20) or 7, rng.randint(1, 9))
        b = F(rng.randint(-20, 20) or 5, rng.randint(1, 9))
        m = F(rng.randint(1, 9), rng.randint(1, 9))
        for v in _places_for(a, b):
            assert qforms.hilbert(a * m * m, b, v) == qforms.hilbert(a, b, v)


def test_hilbert_matches_brute_force_search():
    # independent oracle: exhaustive local solubility search
    for a in range(-10, 11):
        for b in range(-10, 11):
            if a == 0 or b == 0:
                continue
            for p in (2, 3, 5, 7, 11, 13):
                want = qforms.hilbert(F(a), F(b), Place(p)) == 1
                got = reference.local_solubility_search(a, b, p)
                assert want == got, (a, b, p)


def test_invariants_frozen_examples():
    unit = TernaryForm.of(1, 1, 1)
    assert reference.signature(unit) == (3, 0)
    assert reference.discriminant_class(unit).representative == 1
    for v in (REAL_PLACE, Place(2), Place(3), Place(5)):
        assert reference.hasse_invariant(unit, v) == 1

    f = TernaryForm.of(-1, 3, -3)
    assert reference.signature(f) == (1, 2)
    assert reference.discriminant_class(f).representative == 1
    assert reference.hasse_invariant(f, Place(2)) == -1
    assert reference.hasse_invariant(f, REAL_PLACE) == -1
    assert reference.hasse_invariant(f, Place(3)) == 1

    g = TernaryForm.of(1, -2, -2)
    assert reference.signature(g) == (1, 2)
    assert reference.discriminant_class(g).representative == 1
    assert reference.hasse_invariant(g, Place(2)) == -1
    assert reference.hasse_invariant(g, REAL_PLACE) == -1


def test_equivalence_examples():
    assert qforms.equivalent(TernaryForm.of(2, 3, 6), TernaryForm.of(1, 1, 1))
    assert qforms.equivalent(TernaryForm.of(-1, 3, -3), TernaryForm.of(1, -2, -2))
    assert not qforms.equivalent(TernaryForm.of(2, 3, 6), TernaryForm.of(1, -2, -2))


def _random_form(rng):
    def coeff():
        return F(rng.randint(-12, 12) or 5, rng.randint(1, 6))
    return TernaryForm.of(coeff(), coeff(), coeff())


def test_equivalent_is_an_equivalence_relation():
    rng = random.Random(77)
    forms = [_random_form(rng) for _ in range(100)]
    for f in forms:
        assert qforms.equivalent(f, f)
    for f, g in zip(forms, forms[1:]):
        assert qforms.equivalent(f, g) == qforms.equivalent(g, f)
    # transitivity within invariant-classes
    for f, g, h in zip(forms, forms[1:], forms[2:]):
        if qforms.equivalent(f, g) and qforms.equivalent(g, h):
            assert qforms.equivalent(f, h)


def test_equivalence_invariances():
    rng = random.Random(33)
    for _ in range(50):
        f = _random_form(rng)
        a, b, c = f.coefficients
        m = F(rng.randint(1, 9), rng.randint(1, 9))
        assert qforms.equivalent(f, TernaryForm.of(a * m * m, b, c))
        assert qforms.equivalent(f, TernaryForm.of(c, a, b))


def test_witt_embeddable():
    assert qforms.witt_embeddable(F(2), F(3))
    assert not qforms.witt_embeddable(F(2), F(5))
    for b in (F(2), F(3), F(5)):
        assert not qforms.witt_embeddable(F(-1), b)
    with pytest.raises(ValueError):
        qforms.witt_embeddable(F(2), F(2))   # dependent
    with pytest.raises(ValueError):
        qforms.witt_embeddable(F(4), F(3))   # square


def test_pauli_embeddable():
    assert qforms.pauli_embeddable(F(-1), F(3), F(-2))
    assert not qforms.pauli_embeddable(F(2), F(3), F(-2))
    assert qforms.pauli_embeddable(F(-1), F(5), F(-2))
    with pytest.raises(ValueError):
        qforms.pauli_embeddable(F(1), F(2), F(3))
    with pytest.raises(ValueError):
        qforms.pauli_embeddable(F(2), F(3), F(6))   # dependent triple


def test_pauli_embeddable_works_for_every_valid_k():
    # [-1, k, -k] is isotropic with zero (0,1,1) and disc 1, as is [1,-2,-2]
    for k in (F(3), F(5), F(6), F(7), F(11), F(12), F(5, 3)):
        assert qforms.pauli_embeddable(F(-1), k, F(-2))


def test_brauer_condition():
    assert qforms.brauer_condition(F(-1), F(3), F(-2))
    assert not qforms.brauer_condition(F(2), F(3), F(-2))
    with pytest.raises(ValueError):
        qforms.brauer_condition(F(2), F(8), F(3))


def test_isotropic():
    assert reference.isotropic(TernaryForm.of(1, -2, -2))
    assert reference.isotropy_witness(TernaryForm.of(1, -2, -2)) == (2, 1, 1)
    assert not reference.isotropic(TernaryForm.of(2, 3, 6))
    assert reference.isotropic(TernaryForm.of(-1, 3, -3))
    assert reference.isotropy_witness(TernaryForm.of(-1, 3, -3)) == (0, 1, 1)
    # brute-force witness agrees with the local-global decision
    rng = random.Random(13)
    for _ in range(40):
        f = _random_form(rng)
        witness = reference.isotropy_witness(f, bound=25)
        if witness is not None:
            x, y, z = witness
            assert f.a * x * x + f.b * y * y + f.c * z * z == 0
            assert reference.isotropic(f)


def test_sl_search():
    hits = qforms.sl_search(F(2), F(3), F(-2))
    assert hits
    assert (-1, 3, -2) in hits
    hits2 = qforms.sl_search(F(-1), F(3), F(-2))
    assert (-1, 3, -2) in hits2
    # S_L is the same set for both generating triplets of the same field
    assert sorted(qforms.sl_classes(F(2), F(3), F(-2))) == \
        sorted(qforms.sl_classes(F(-1), F(3), F(-2)))
    with pytest.raises(ValueError):
        qforms.sl_search(F(1), F(2), F(3))
    with pytest.raises(ValueError):
        qforms.sl_search(F(2), F(3), F(6))


def test_sl_triplets_all_verify():
    for u, v, x in qforms.sl_search(F(2), F(3), F(-2)):
        assert qforms.equivalent(TernaryForm.of(u, v, u * v),
                                 TernaryForm.of(1, x, x))
        assert squarefree_part(F(u) * v).representative != x


def test_embedding_criterion_matches_splitting_field():
    # the triquadratic subfield of the order-16 splitting field is exactly
    # Q(i, sqrt(k), sqrt(-2)), and its generating classes pass the criterion
    from pureoctic import linalg
    from pureoctic.splitting import SplittingField

    for k in (F(3), F(5)):
        field = SplittingField(k)
        rep = field.lattice_report()
        l_row = next(r for r in rep.rows if r.degree == 8 and r.normal)
        vecs = [b.coeffs for b in field.fixed_field(l_row.subgroup).basis]
        for gen in (field.i, field.v2, field.i * field.r):
            assert linalg.in_span(vecs, gen.coeffs)
        assert qforms.pauli_embeddable(F(-1), k, F(-2))


# --- square classes as F2 vectors over one prime basis ----------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from pureoctic import arith  # noqa: E402

_POOL = (2, 3, 5, 7, 11, 13)


def _independent_classes(values) -> bool:
    """Reference: do the square classes generate a subgroup of Q*/(Q*)^2 of
    rank len(values)?  Checked by multiplying out all subsets."""
    classes = set()
    for mask in range(1, 2 ** len(values)):
        prod = F(1)
        for i, v in enumerate(values):
            if mask >> i & 1:
                prod *= F(v)
        rep = squarefree_part(prod).representative
        if rep == 1:
            return False
        classes.add(rep)
    return len(classes) == 2 ** len(values) - 1


@st.composite
def _pool_rational(draw):
    """sign * prod p^e / prod p^f over the small primes of _POOL."""
    num = draw(st.sampled_from((1, -1)))
    den = 1
    for p in _POOL:
        num *= p ** draw(st.integers(0, 3))
        den *= p ** draw(st.integers(0, 2))
    return F(num, den)


_SETTINGS = settings(derandomize=True, database=None, max_examples=80, deadline=None)


@_SETTINGS
@given(st.lists(_pool_rational(), min_size=1, max_size=4), st.data())
def test_class_product_is_xor(values, data):
    basis = arith.PrimeBasis(map(squarefree_part, values))
    for q, v in zip(values, basis.vectors):
        assert basis.representative(v) == squarefree_part(q).representative
    mask = data.draw(st.integers(1, 2 ** len(values) - 1))
    prod, vec = F(1), 0
    for i, (q, v) in enumerate(zip(values, basis.vectors)):
        if mask >> i & 1:
            prod *= q
            vec ^= v
    assert basis.representative(vec) == squarefree_part(prod).representative
    assert basis.vector(prod) == vec


@_SETTINGS
@given(st.lists(_pool_rational(), min_size=1, max_size=4))
def test_rank_agrees_with_subset_products(values):
    basis = arith.PrimeBasis(map(squarefree_part, values))
    assert (arith.f2_rank(basis.vectors) == len(values)) == \
        _independent_classes(values)


@_SETTINGS
@given(_pool_rational(), _pool_rational())
def test_symbol_table_matches_hilbert(a, b):
    space = qforms.ClassSpace(a, b)
    u, w = space.vectors
    # the table's places are exactly the relevant places of a and b
    assert [Place(p) for p in space._tables] == qforms.relevant_places(a, b)
    for p, rows in space._tables.items():
        want = qforms.hilbert(a, b, Place(p))
        assert qforms._symbol(rows, u, w) == (want == -1), (a, b, p)
        assert qforms._symbol(rows, w, u) == (want == -1), (a, b, p)


@_SETTINGS
@given(_pool_rational(), _pool_rational())
def test_symbol_table_matches_local_solubility_search(a, b):
    space = qforms.ClassSpace(a, b)
    u, w = space.vectors
    ra, rb = (space.representative(v) for v in space.vectors)
    for p, rows in space._tables.items():
        if p is None:
            continue
        solvable = reference.local_solubility_search(ra, rb, p)
        assert qforms._symbol(rows, u, w) == (not solvable), (a, b, p)


def _reference_equivalent(f: TernaryForm, g: TernaryForm) -> bool:
    """Reference: `equivalent` by Hilbert symbols of rationals, with the
    relevant places found by factoring each coefficient's square-free part."""
    if reference.discriminant_class(f) != reference.discriminant_class(g):
        return False
    if reference.signature(f) != reference.signature(g):
        return False
    places = qforms.relevant_places(*f.coefficients, *g.coefficients)
    return all(reference.hasse_invariant(f, v) == reference.hasse_invariant(g, v)
               for v in places)


@_SETTINGS
@given(st.lists(_pool_rational(), min_size=6, max_size=6))
def test_equivalent_matches_reference(coefficients):
    f, g = TernaryForm.of(*coefficients[:3]), TernaryForm.of(*coefficients[3:])
    want = _reference_equivalent(f, g)
    assert qforms.equivalent(f, g) == want
    # the same answer on a space built from more values
    space = qforms.ClassSpace(*coefficients, F(-1), F(2))
    assert qforms.equivalent(f, g, space) == want


def test_equivalent_rejects_a_space_without_the_coefficients():
    space = qforms.ClassSpace(F(2), F(3))
    with pytest.raises(ValueError, match="outside the basis"):
        qforms.equivalent(TernaryForm.of(2, 3, 5), TernaryForm.of(1, 1, 30), space)


def test_class_space_criteria_match_form_equivalence():
    # the vector criteria against the reference equivalence of TernaryForms
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        a, b, c = (F(rng.choice((1, -1)) * rng.choice(_POOL + (1, 6, 10, 15)),
                     rng.choice((1, 4, 9)))
                   for _ in range(3))
        if not _independent_classes([a, b, c]):
            with pytest.raises(ValueError, match="independent"):
                qforms.pauli_embeddable(a, b, c)
            continue
        checked += 1
        holds_15 = _reference_equivalent(TernaryForm.of(a, b, a * b), TernaryForm.of(1, c, c))
        assert qforms.pauli_embeddable(a, b, c) == holds_15
        space = qforms.ClassSpace(a, b, c)
        assert space.pauli_embeddable(*space.vectors) == holds_15
        places = qforms.relevant_places(a, b, c, F(-1), a * b * c)
        assert qforms.brauer_condition(a, b, c) == all(
            qforms.hilbert(a * b * c, F(-1), v) == qforms.hilbert(a, b, v)
            for v in places)
        assert qforms.witt_embeddable(a, b) == _reference_equivalent(
            TernaryForm.of(a, b, a * b), TernaryForm.of(1, 1, 1))
