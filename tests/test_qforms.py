"""Hilbert symbols, Hasse invariants, form equivalence and the embedding
criteria."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
import reference

from pureoctic import qforms
from pureoctic.arith import RationalParts, squarefree_part
from pureoctic.qforms import REAL_PLACE, Place


def _places_for(a, b):
    return qforms.relevant_places(a, b)


def test_place_type():
    assert REAL_PLACE.is_real and not Place(7).is_real
    with pytest.raises(ValueError):
        Place(6)


def test_relevant_places_prove_no_prime_twice(monkeypatch):
    # the primes come out of `arith.factor`, which proved the cofactor 7 of 35
    # and of 21 prime; the places built from them prove nothing again
    from pureoctic import arith
    calls = []
    is_prime = arith.is_prime

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    places = qforms.relevant_places(6, F(-10, 21), 35)
    assert len(calls) == 2
    assert [v.p for v in places] == [None, 2, 3, 5, 7]


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
    unit = (1, 1, 1)
    assert reference.signature(unit) == (3, 0)
    assert reference.discriminant_class(unit).representative == 1
    for v in (REAL_PLACE, Place(2), Place(3), Place(5)):
        assert reference.hasse_invariant(unit, v) == 1

    f = (-1, 3, -3)
    assert reference.signature(f) == (1, 2)
    assert reference.discriminant_class(f).representative == 1
    assert reference.hasse_invariant(f, Place(2)) == -1
    assert reference.hasse_invariant(f, REAL_PLACE) == -1
    assert reference.hasse_invariant(f, Place(3)) == 1

    g = (1, -2, -2)
    assert reference.signature(g) == (1, 2)
    assert reference.discriminant_class(g).representative == 1
    assert reference.hasse_invariant(g, Place(2)) == -1
    assert reference.hasse_invariant(g, REAL_PLACE) == -1


def test_equivalence_examples():
    assert qforms.equivalent((2, 3, 6), (1, 1, 1))
    assert qforms.equivalent((-1, 3, -3), (1, -2, -2))
    assert not qforms.equivalent((2, 3, 6), (1, -2, -2))
    # one discriminant, signatures (3, 0) and (1, 2)
    assert not qforms.equivalent((1, 1, 1), (-1, -1, 1))


def _random_form(rng):
    def coeff():
        return F(rng.randint(-12, 12) or 5, rng.randint(1, 6))
    return coeff(), coeff(), coeff()


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
        a, b, c = f
        m = F(rng.randint(1, 9), rng.randint(1, 9))
        assert qforms.equivalent(f, (a * m * m, b, c))
        assert qforms.equivalent(f, (c, a, b))


def test_witt_embeddable():
    assert qforms.witt_embeddable(F(2), F(3))
    assert not qforms.witt_embeddable(F(2), F(5))
    for b in (F(2), F(3), F(5)):
        assert not qforms.witt_embeddable(F(-1), b)
    with pytest.raises(ValueError):
        qforms.witt_embeddable(F(2), F(2))   # dependent
    with pytest.raises(ValueError):
        qforms.witt_embeddable(F(4), F(3))   # square


def test_class_space_reads_an_unreduced_pair_as_its_value():
    # the pair reduces itself, so 6/2 lies in the class of 3, not of 12
    assert qforms.ClassSpace(RationalParts(6, 2), 5).vectors == qforms.ClassSpace(3, 5).vectors


@pytest.mark.parametrize("a, b", [(2, 3), (2, 5), (-1, 3), (3, 7), (-6, 10),
                                  (F(2, 3), F(-5, 7)), (F(-3, 4), F(10, 9))])
def test_witt_embeddable_reads_every_rational_type(a, b):
    # an int, a Fraction and a reduced pair of one value give one verdict,
    # on a space built from them or from the others
    a, b = F(a), F(b)
    values = [(a, b), (RationalParts(a.numerator, a.denominator),
                       RationalParts(b.numerator, b.denominator))]
    if a.denominator == b.denominator == 1:
        values.append((int(a), int(b)))
    verdicts = {qforms.witt_embeddable(x, y) for x, y in values}
    verdicts |= {qforms.witt_embeddable(x, y, qforms.ClassSpace(*other))
                 for x, y in values for other in values}
    assert verdicts == {_reference_equivalent((a, b, a * b), (1, 1, 1))}


def test_pauli_embeddable():
    assert qforms.pauli_embeddable(F(-1), F(3), F(-2))
    # -1, 3, -2 as unreduced pairs, which reduce themselves
    assert qforms.pauli_embeddable(RationalParts(-2, 2), RationalParts(6, 2),
                                   RationalParts(-2, 1))
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
    for (a, b, c), holds in (((-1, 3, -2), True), ((2, 3, -2), False)):
        space = qforms.ClassSpace(F(a), F(b), F(c))
        assert space.brauer_condition(*space.independent(space.vectors)) == holds
    space = qforms.ClassSpace(F(2), F(8), F(3))
    with pytest.raises(ValueError):
        space.independent(space.vectors)


def test_isotropic():
    assert reference.isotropic((1, -2, -2))
    assert reference.isotropy_witness((1, -2, -2)) == (2, 1, 1)
    assert not reference.isotropic((2, 3, 6))
    assert reference.isotropic((-1, 3, -3))
    assert reference.isotropy_witness((-1, 3, -3)) == (0, 1, 1)
    # brute-force witness agrees with the local-global decision
    rng = random.Random(13)
    for _ in range(40):
        f = _random_form(rng)
        witness = reference.isotropy_witness(f, bound=25)
        if witness is not None:
            x, y, z = witness
            a, b, c = f
            assert a * x * x + b * y * y + c * z * z == 0
            assert reference.isotropic(f)


def test_sl_search():
    hits = qforms.sl_search(F(2), F(3), F(-2))
    assert hits
    assert (-1, 3, -2) in hits
    hits2 = qforms.sl_search(F(-1), F(3), F(-2))
    assert (-1, 3, -2) in hits2
    # S_L is the same set for both generating triplets of the same field
    s_l = []
    for triple in ((F(2), F(3), F(-2)), (F(-1), F(3), F(-2))):
        space = qforms.ClassSpace(*triple)
        s_l.append(sorted(map(space.representative,
                              space.sl_classes(*space.independent(space.vectors)))))
    assert s_l[0] == s_l[1]
    with pytest.raises(ValueError):
        qforms.sl_search(F(1), F(2), F(3))
    with pytest.raises(ValueError):
        qforms.sl_search(F(2), F(3), F(6))


def test_sl_triplets_all_verify():
    for u, v, x in qforms.sl_search(F(2), F(3), F(-2)):
        assert qforms.equivalent((u, v, u * v), (1, x, x))
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

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

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
def test_word_matches_hilbert(a, b):
    space = qforms.ClassSpace(a, b)
    u, w = space.vectors
    word = space.word(u, w)
    # the word's places are exactly the relevant places of a and b
    places = qforms.relevant_places(a, b)
    assert reference.space_places(space) == places
    assert word >> len(places) == 0
    # and it is symmetric: a fresh space computes (w, u) on its own
    assert qforms.ClassSpace(a, b).word(w, u) == word
    for i, place in enumerate(places):
        assert word >> i & 1 == (qforms.hilbert(a, b, place) == -1), (a, b, place)


@_SETTINGS
@given(_pool_rational(), _pool_rational())
def test_word_matches_local_solubility_search(a, b):
    space = qforms.ClassSpace(a, b)
    u, w = space.vectors
    word = space.word(u, w)
    ra, rb = (space.representative(v) for v in space.vectors)
    for i, p in enumerate(space.primes, 1):
        solvable = reference.local_solubility_search(ra, rb, p)
        assert word >> i & 1 == (not solvable), (a, b, p)


def _reference_equivalent(f, g) -> bool:
    """Reference: `equivalent` by Hilbert symbols of rationals, with the
    relevant places found by factoring each coefficient's square-free part."""
    if reference.discriminant_class(f) != reference.discriminant_class(g):
        return False
    if reference.signature(f) != reference.signature(g):
        return False
    places = qforms.relevant_places(*f, *g)
    return all(reference.hasse_invariant(f, v) == reference.hasse_invariant(g, v)
               for v in places)


@_SETTINGS
@given(st.lists(_pool_rational(), min_size=6, max_size=6))
def test_equivalent_matches_reference(coefficients):
    f, g = tuple(coefficients[:3]), tuple(coefficients[3:])
    want = _reference_equivalent(f, g)
    assert qforms.equivalent(f, g) == want
    # the same answer on a space built from more values
    space = qforms.ClassSpace(*coefficients, F(-1), F(2))
    assert qforms.equivalent(f, g, space) == want


def test_equivalent_rejects_a_space_without_the_coefficients():
    space = qforms.ClassSpace(F(2), F(3))
    with pytest.raises(ValueError, match="outside the basis"):
        qforms.equivalent((2, 3, 5), (1, 1, 30), space)


def test_equivalent_rejects_a_zero_coefficient():
    with pytest.raises(ValueError):
        qforms.equivalent((2, 0, 5), (1, 1, 1))
    with pytest.raises(ValueError):
        qforms.equivalent((2, 3, 6), (1, 1, 0), qforms.ClassSpace(F(2), F(3)))
    zero = RationalParts(0, 1)
    with pytest.raises(ValueError):
        qforms.equivalent((2, zero, 5), (1, 1, 1))
    # the scalar symbol reads a zero pair by its numerator, and does not
    # divide it by p forever
    for value in (0, F(0), zero):
        for place in (REAL_PLACE, Place(2), Place(3)):
            with pytest.raises(ValueError):
                qforms.hilbert(value, 3, place)
            with pytest.raises(ValueError):
                qforms.hilbert(3, value, place)


def test_class_space_criteria_match_form_equivalence():
    # the vector criteria against the reference equivalence of forms
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
        holds_15 = _reference_equivalent((a, b, a * b), (1, c, c))
        assert qforms.pauli_embeddable(a, b, c) == holds_15
        space = qforms.ClassSpace(a, b, c)
        assert space.pauli_embeddable(*space.vectors) == holds_15
        places = qforms.relevant_places(a, b, c, F(-1), a * b * c)
        assert space.brauer_condition(*space.independent(space.vectors)) == all(
            qforms.hilbert(a * b * c, F(-1), v) == qforms.hilbert(a, b, v)
            for v in places)
        assert qforms.witt_embeddable(a, b) == _reference_equivalent((a, b, a * b), (1, 1, 1))


def _random_triple_space(rng):
    """An independent a, b, c of small odd primes, with random signs, a
    random factor 2 and a denominator of 1, 3, 7 or 9, and its space."""
    def value():
        num = rng.choice((1, -1)) * rng.choice((1, 2))
        for p in rng.sample((3, 5, 7, 11, 13, 17, 19, 23), rng.randint(0, 2)):
            num *= p
        return F(num, rng.choice((1, 1, 3, 7, 9)))
    while True:
        a, b, c = value(), value(), value()
        if _independent_classes([a, b, c]):
            return qforms.ClassSpace(a, b, c)


def _scalar_brauer(a, b, c) -> bool:
    return all(qforms.hilbert(a * b * c, F(-1), v) == qforms.hilbert(a, b, v)
               for v in qforms.relevant_places(a, b, c, F(-1)))


def test_pair_words_match_the_per_place_route():
    # every triplet of S_L, and a random form against each, on random spaces:
    # the pair words against the per-place tables and against the scalar
    # `hilbert` of the classes' representatives
    rng = random.Random(2929)
    both_negative = even = False
    legendre = {}   # odd prime -> the Legendre signs of the classes' units
    units_mod_8 = set()
    for _ in range(10):
        space = _random_triple_space(rng)
        rep = space.representative
        classes = space.sl_classes(*space.vectors)
        span = [0, *classes]
        both_negative |= sum(v & 1 for v in classes) > 1
        even |= any(rep(v) % 2 == 0 for v in classes)
        for v in classes:
            r = rep(v)
            units_mod_8.add(r // (r & -r) % 8)
            for p in space.primes[1:]:
                if r % p:
                    legendre.setdefault(p, set()).add(pow(r, p >> 1, p) == 1)
        for u, v, w in itertools.permutations(classes, 3):
            ru, rv, rw = rep(u), rep(v), rep(w)
            holds_15 = space.pauli_embeddable(u, v, w)
            assert holds_15 == reference.space_pauli_embeddable(space, u, v, w)
            assert holds_15 == _reference_equivalent((ru, rv, ru * rv), (1, rw, rw))
            holds_14 = space.brauer_condition(u, v, w)
            assert holds_14 == reference.space_brauer_condition(space, u, v, w)
            assert holds_14 == _scalar_brauer(ru, rv, rw)
            if w != u ^ v:
                assert qforms.pauli_embeddable(ru, rv, rw) == holds_15
                vectors = space.independent(map(space.vector, (ru, rv, rw)))
                assert space.brauer_condition(*vectors) == holds_14
            f, g = (u, v, w), tuple(rng.choice(span) for _ in range(3))
            same = space.equivalent(f, g)
            assert same == reference.space_equivalent(space, f, g)
            assert same == _reference_equivalent(tuple(map(rep, f)), tuple(map(rep, g)))
            assert qforms.equivalent(tuple(map(rep, f)), tuple(map(rep, g)), space) == same
    # the spaces reach the real place, 2, an odd p at which units of both
    # Legendre signs occur, and every unit class mod 8
    assert both_negative and even
    assert any(signs == {True, False} for signs in legendre.values())
    assert units_mod_8 == {1, 3, 5, 7}


# the first 60 odd primes, 3 to 283
_ODD_PRIMES = [p for p in range(3, 284, 2) if all(p % q for q in range(3, p, 2))]


def test_words_match_hilbert_on_wide_spaces():
    # every bit of the word of every pair from the span of three values and
    # -1, against the scalar `hilbert` of the representatives, on spaces of
    # up to about 50 basis primes
    rng = random.Random(4646)
    widest, shared, units_mod_8 = 0, False, set()
    negative = even = False
    for _ in range(100):
        values = []
        for _ in range(3):
            num = rng.choice((1, -1)) * rng.choice((1, 2, 4, 8))
            for p in rng.sample(_ODD_PRIMES, rng.randint(0, 40)):
                num *= p ** rng.randint(1, 3)
            values.append(F(num, math.prod(rng.sample(_ODD_PRIMES, rng.randint(0, 3)))))
        space = qforms.ClassSpace(*values)
        widest = max(widest, len(space.primes))
        places = reference.space_places(space)
        span = {0}
        for v in space.vectors:
            span |= {x ^ v for x in span}
        classes = sorted(span | {1})
        reps = {v: space.representative(v) for v in classes}
        for u, w in itertools.combinations_with_replacement(classes, 2):
            a, b = reps[u], reps[w]
            word = space.word(u, w)
            assert word >> len(places) == 0
            for i, place in enumerate(places):
                assert word >> i & 1 == (qforms.hilbert(a, b, place) == -1), (a, b, place)
            shared |= any(a % p == 0 == b % p for p in space.primes[1:])
        for r in reps.values():
            negative |= r < 0
            even |= r % 2 == 0
            units_mod_8.add(r // (r & -r) % 8)
    # odd primes dividing both arguments, negative and even representatives,
    # units in every class mod 8, and a space of at least 45 basis primes
    assert shared and negative and even
    assert units_mod_8 == {1, 3, 5, 7}
    assert widest >= 45


@st.composite
def _space_and_classes(draw):
    """A `ClassSpace` of one to four values over the first 60 odd primes, 2
    and -1, and three classes of the span of its values and -1."""
    values = []
    for _ in range(draw(st.integers(1, 4))):
        num = draw(st.sampled_from((1, -1, 2, -2)))
        num *= math.prod(draw(st.lists(st.sampled_from(_ODD_PRIMES), max_size=12)))
        den = math.prod(draw(st.lists(st.sampled_from(_ODD_PRIMES), max_size=2)))
        values.append(F(num, den))
    space = qforms.ClassSpace(*values)
    generators = (1, *space.vectors)

    def member():
        mask, v = draw(st.integers(0, 2 ** len(generators) - 1)), 0
        for i, g in enumerate(generators):
            if mask >> i & 1:
                v ^= g
        return v

    return space, member(), member(), member()


@_SETTINGS
@given(_space_and_classes())
def test_word_identities(drawn):
    space, u, v, w = drawn
    word = space.word
    # bilinear over F2
    assert word(u, v ^ w) == word(u, v) ^ word(u, w)
    # (a, a) = (a, -1)
    assert word(u, u) == word(u, 1)
    # the product formula: a symbol is -1 at an even number of places
    assert word(u, v).bit_count() % 2 == 0


def _embed_verdicts(a, b, c) -> tuple[bool, bool]:
    """The (15) and (14) verdicts that `embed` prints for a, b, c."""
    space = qforms.ClassSpace(a, b, c)
    x, y, z = space.independent(space.vectors)
    return space.pauli_embeddable(x, y, z), space.brauer_condition(x, y, z)


@_SETTINGS
@given(st.lists(_pool_rational(), min_size=3, max_size=3), _pool_rational())
def test_embed_verdicts_depend_on_the_classes_alone(values, s):
    assume(_independent_classes(values))
    a, b, c = values
    verdicts = _embed_verdicts(a, b, c)
    assert _embed_verdicts(a * s * s, b, c) == verdicts
    assert _embed_verdicts(b, a, c) == verdicts


@_SETTINGS
@given(st.lists(_pool_rational(), min_size=3, max_size=3))
def test_sl_search_depends_on_the_span_alone(values):
    # (ab, b, c) spans the same classes as (a, b, c), so S_L is the same
    assume(_independent_classes(values))
    a, b, c = values
    assert set(qforms.sl_search(a * b, b, c)) == set(qforms.sl_search(a, b, c))


@pytest.mark.parametrize("argv, words, decisions", [
    (("embed", "2", "3", "-5", "--compare"), 35, 172),
    (("sl-search", "-1187/7", "-34119", "2176"), 28, 168),
], ids=["embed-compare", "sl-search"])
def test_embed_symbol_work(monkeypatch, capsys, argv, words, decisions):
    # a work count, so a regression shows without any timing: each unordered
    # pair of classes costs one word, once per request, and (15) is decided
    # once per S_L triplet (this embed took 2906 symbols and 340 decisions,
    # and this sl-search 1224 symbols, when every form read its symbols place
    # by place and the compare table decided (15) again)
    from pureoctic import cli
    counts = {"eps": 0, "equivalent": 0}
    eps, equivalent = qforms._eps, qforms.ClassSpace.equivalent

    def counting_eps(*args):
        counts["eps"] += 1
        return eps(*args)

    def counting_equivalent(*args):
        counts["equivalent"] += 1
        return equivalent(*args)

    monkeypatch.setattr(qforms, "_eps", counting_eps)
    monkeypatch.setattr(qforms.ClassSpace, "equivalent", counting_equivalent)
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out
    # each word computed reads eps of both of its units at 2
    assert counts["eps"] <= 2 * words
    assert counts["equivalent"] <= decisions


def test_embed_proves_each_basis_prime_once(monkeypatch, capsys):
    # the pair words read Euler's criterion modulo primes that `factor` has
    # already proved prime: a work count, so a regression shows without any
    # timing
    from pureoctic import arith, cli
    big = 2 ** 521 - 1  # a 157-digit prime
    proved = []
    is_prime = arith.is_prime

    def counting(n):
        proved.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    assert cli.main(["embed", str(big), "3", "5"]) == 0
    assert "S_L = " in capsys.readouterr().out
    assert proved.count(big) == 1


def test_relevant_places_factor_each_value_once(monkeypatch):
    # the odd primes are read off each value's square class, so 6, -10/21
    # and 35 cost one factorization per numerator and denominator
    calls = []
    factor = arith.factor

    def counting(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(arith, "factor", counting)
    places = qforms.relevant_places(6, F(-10, 21), 35)
    assert places == [REAL_PLACE, Place(2), Place(3), Place(5), Place(7)]
    assert len(calls) == 4
