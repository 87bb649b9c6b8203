"""The permutation-group engine and the order-16 identification machinery."""

import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
import reference
from hypothesis import assume, given, settings, strategies as st

from pureoctic import groups
from pureoctic.groups import Perm

GOLDEN = Path(__file__).parent / "golden"

# groups that are not 2-groups, given as `group-identify --gens` strings
GENS = {
    "S4": "1 0 2 3; 1 2 3 0",
    "A4": "1 2 0 3; 0 2 3 1",
    "S3xC3": "1 0 2 3 4 5; 1 2 0 3 4 5; 0 1 2 4 5 3",
    "C3:C4": "1 2 0 3 4 5 6; 0 2 1 4 5 6 3",
}


def _gens_group(text):
    return groups.closure(Perm(int(x) for x in part.split())
                          for part in text.split(";"))


def _engine_cases():
    """(label, group) for every registry group and 8-point model, then GENS."""
    for name, m in groups.group_models().items():
        yield f"{name}.group", m.group
        if m.model8 is not None:
            yield f"{name}.model8", m.model8
    for name, text in GENS.items():
        yield name, _gens_group(text)


def _reference_subgroups(G):
    """The closure-based enumerator the Cayley-table engine replaced, with
    permutation products only: join every known subgroup H with one element
    g of each coset Hg outside it (all of Hg give the same join) by closing
    H's generators and g, then test normality.  Returns (elements, normal)."""
    e = Perm(range(G.degree))
    found = {frozenset([e]): (e,)}
    frontier = list(found)
    while frontier:
        H = frontier.pop()
        done = set(H)
        for g in G.elements:
            if g not in done:
                done |= {h * g for h in H}
                gens = found[H] + (g,)
                K = frozenset(groups._product_closure(gens))
                if K not in found:
                    found[K] = gens
                    frontier.append(K)
    return [(tuple(sorted(H)),
             all(g * h * Perm(sorted(range(G.degree), key=g)) in H
                 for g in G.generators for h in H))
            for H in sorted(found, key=lambda H: (len(H), sorted(H)))]


def _engine_subgroups(G):
    return [(H.elements, normal) for H, normal in G.subgroups()]


def test_perm_basics():
    p = Perm([1, 2, 0, 3])
    q = Perm([0, 1, 3, 2])
    assert (p * q).images == (1, 2, 3, 0)   # p after q
    assert Perm(sorted(range(4), key=p)) * p == Perm(range(4))
    assert p.cycle_type() == (3, 1)
    assert p.order() == 3
    with pytest.raises(ValueError):
        Perm([0, 0, 1])


def test_closure_examples():
    assert groups.closure([Perm(range(5))]).order == 1
    c4 = groups.closure([Perm([1, 2, 3, 0])])
    assert c4.order == 4
    subs = c4.subgroups()
    assert [H.order for H, _ in subs] == [1, 2, 4]
    assert all(nrm for _, nrm in subs)
    with pytest.raises(ValueError):
        groups.closure([Perm([1, 0]), Perm([0, 2, 1])])


def test_pauli_matrix_closures():
    # two of the spin matrices only reach a dihedral half: the scalar i
    # needs the third generator (the group has rank 3)
    xy = groups._product_closure([groups.PAULI_X, groups.PAULI_Y])
    assert len(xy) == 8
    from_two = groups.from_multiplication(sorted(xy, key=lambda g: g.entries),
                                          lambda a, b: a * b)
    assert groups.identify(from_two) == "D8"
    xyz = groups._product_closure([groups.PAULI_X, groups.PAULI_Y, groups.PAULI_Z])
    assert len(xyz) == 16


def test_pauli_matrix_group_facts():
    P = groups.pauli_matrix_group()
    assert P.order == 16
    assert P.element_orders() == Counter({1: 1, 2: 7, 4: 8})
    center = P.center()
    assert groups.abelian_invariants(center) == (4,)
    conventions = reference.subgroup_count_conventions(P)
    assert conventions["proper_nontrivial"] == 21
    assert conventions["normal_proper_nontrivial"] == 15
    assert conventions["total"] == 23


def test_pauli_subgroup_lattice_structure():
    P = groups.pauli_matrix_group()
    subs = P.subgroups()
    by_order = Counter(H.order for H, _ in subs)
    assert by_order == Counter({1: 1, 2: 7, 4: 7, 8: 7, 16: 1})
    order8_types = Counter(groups.identify(H) for H, _ in subs if H.order == 8)
    assert order8_types == Counter({"Q8": 1, "D8": 3, "C4xC2": 3})
    # Lagrange across the lattice
    assert all(P.order % H.order == 0 for H, _ in subs)
    # the six non-normal subgroups all have order 2
    non_normal = [H for H, nrm in subs if not nrm]
    assert len(non_normal) == 6 and all(H.order == 2 for H in non_normal)


def test_pauli_quotients():
    P = groups.pauli_matrix_group()
    subs = P.subgroups()
    center = P.center()
    assert reference.quotient_type(P, center) == "V4"
    minus_e = next(H for H, nrm in subs if H.order == 2 and nrm)
    assert reference.quotient_type(P, minus_e) == "E8"
    assert reference.quotient_type(P, P) == "C1"
    # every nontrivial proper quotient is elementary abelian
    for H, nrm in subs:
        if nrm and 1 < H.order < 16:
            assert reference.quotient_type(P, H) in {"C2", "V4", "E8"}
    with pytest.raises(ValueError):
        q8 = next(H for H, _ in subs if groups._looks_like_q8(H))
        non_normal = next(H for H, nrm in subs if not nrm)
        groups.quotient_group(q8, non_normal)


def test_q8_all_subgroups_normal():
    Q8 = groups.quaternion_group()
    subs = Q8.subgroups()
    assert len(subs) == 6
    assert all(nrm for _, nrm in subs)
    assert groups.identify(Q8) == "Q8"


def test_stock_models_pairwise_distinct():
    models = groups.order16_stock_models()
    assert len(models) == 14
    fps = {groups.fingerprint(M) for M in models.values()}
    assert len(fps) == 14
    abelian = [n for n, M in models.items() if M.is_abelian()]
    assert sorted(abelian) == ["C16", "C4xC2xC2", "C4xC4", "C8xC2", "E16"]


def test_criteria_reject_all_thirteen_others():
    for name, M in groups.order16_stock_models().items():
        crit = groups.pauli_criteria(M)
        assert all(crit) == (name == "Pauli"), name


def test_identify_matches_construction_names():
    for name, M in groups.order16_stock_models().items():
        assert groups.identify(M) == name


def test_identify_small_groups():
    assert groups.identify(groups.cyclic(16)) == "C16"
    assert groups.identify(groups.cyclic(4)) == "C4"
    assert groups.identify(groups.direct_product(groups.cyclic(2), groups.cyclic(2))) == "V4"
    assert groups.identify(groups._dihedral8()) == "D8"
    with pytest.raises(ValueError):
        groups.identify(groups.cyclic(33))


def test_fingerprint_invariant_under_relabeling():
    rng = random.Random(2024)
    for M in (groups.pauli_matrix_group(), groups.order16_stock_models()["QD16"]):
        fp = groups.fingerprint(M)
        for _ in range(3):
            images = list(range(M.degree))
            rng.shuffle(images)
            assert groups.fingerprint(reference.relabel(M, Perm(images))) == fp


def test_hol_c8_model():
    hol = groups.hol_c8_model()
    assert hol.order == 32
    assert reference.is_transitive(hol)
    assert groups.identify(hol) == "B32"
    sub_fps = {groups.fingerprint(H) for H, _ in hol.subgroups()}
    assert groups.fingerprint(groups.pauli_matrix_group()) in sub_fps
    assert groups.fingerprint(groups.pauli_affine_model()) == \
        groups.fingerprint(groups.pauli_matrix_group())


def test_regular_representation_preserves_fingerprint():
    qd = groups.order16_stock_models()["QD16"]
    assert groups.fingerprint(reference.regular_representation(qd)) == groups.fingerprint(qd)


def test_abelian_invariants():
    assert groups.abelian_invariants(groups.cyclic(8)) == (8,)
    prod = groups.direct_product(groups.cyclic(4), groups.cyclic(2))
    assert groups.abelian_invariants(prod) == (4, 2)
    assert groups.abelian_name((4, 2)) == "C4xC2"
    assert groups.abelian_name((2, 2, 2)) == "E8"
    with pytest.raises(ValueError):
        groups.abelian_invariants(groups._dihedral8())


def test_affine_pair_inverts_affine_map():
    pairs = [(t, s) for t in range(8) for s in (1, 3, 5, 7)]
    assert [groups.affine_pair(groups.affine_map(t, s)) for t, s in pairs] == pairs
    assert len(groups.PAULI_PAIRS) == 16
    with pytest.raises(ValueError):
        groups.affine_pair(Perm([1, 0, 2, 3, 4, 5, 6, 7]))  # a transposition


def test_group_models_identify_as_their_identity():
    models = groups.group_models()
    for name, m in models.items():
        assert m.name == name
        assert groups.identify(m.group) == m.identity, name
        if m.model8 is not None:
            assert m.model8.degree == 8 and reference.is_transitive(m.model8), name
            assert groups.identify(m.model8) == m.identity, name
            assert m.model8.is_subgroup(groups.hol_c8_model()), name
    assert sorted(groups.aliases()) == ["d8", "hol-c8", "pauli-affine",
                                        "pauli-matrices", "q8"]
    # aliases never name a fingerprint: identify answers with canonical names
    assert set(groups._nonabelian_registry().values()).isdisjoint(groups.aliases())
    assert groups.pauli_affine_model() is models["Pauli"].model8


def test_subgroups_match_closure_reference():
    checked = []
    for label, G in _engine_cases():
        if any(G is H for H in checked):
            continue  # an alias shares its entry's group object
        checked.append(G)
        assert _engine_subgroups(G) == _reference_subgroups(G), label
    assert len(checked) == 25


def test_subgroups_golden():
    # the (element indices, normal) rows, recorded from the closure-based
    # enumerator before the Cayley-table engine replaced it
    lines = []
    for label, G in _engine_cases():
        index = {g: i for i, g in enumerate(G.elements)}
        rows = [[[index[h] for h in H.elements], normal]
                for H, normal in G.subgroups()]
        lines.append(f"{json.dumps(label)}: {json.dumps(rows, separators=(',', ':'))}")
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    assert text.encode() == (GOLDEN / "subgroups.json").read_bytes()


def test_fingroup_rejects_bad_element_sets():
    e, r = Perm(range(3)), Perm([1, 2, 0])
    with pytest.raises(ValueError, match="not closed under composition"):
        groups.FinGroup([e, r])  # r*r is missing
    with pytest.raises(ValueError, match="identity missing"):
        groups.FinGroup([Perm([1, 0])])
    with pytest.raises(ValueError, match="different point sets"):
        groups.FinGroup([Perm(range(2)), e])
    with pytest.raises(ValueError, match="empty"):
        groups.FinGroup([])
    assert groups.FinGroup([e, r, r * r]).order == 3


def test_subgroups_refuse_groups_above_max_order():
    s5 = groups.FinGroup(Perm(p) for p in itertools.permutations(range(5)))
    assert s5.order == 120 > groups.MAX_GROUP_ORDER
    with pytest.raises(ValueError, match="supported up to order"):
        s5.subgroups()


def test_subgroup_enumeration_takes_no_closures(monkeypatch):
    hol = groups.affine_group_mod8(groups.group_models()["B32"].pairs)
    pauli = groups.affine_group_mod8(groups.PAULI_PAIRS)
    calls = Counter()
    closure, mul = groups.closure, Perm.__mul__

    def counted_closure(gens):
        calls["closure"] += 1
        return closure(gens)

    def counted_mul(p, q):
        calls["mul"] += 1
        return mul(p, q)

    monkeypatch.setattr(groups, "closure", counted_closure)
    monkeypatch.setattr(Perm, "__mul__", counted_mul)
    assert len(hol.subgroups()) == 58
    assert len(pauli.subgroups()) == 23
    assert calls == Counter()


@st.composite
def _small_generator_sets(draw):
    n = draw(st.integers(3, 6))
    perms = st.permutations(range(n)).map(Perm)
    return draw(st.lists(perms, min_size=2, max_size=3))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_small_generator_sets())
def test_subgroups_match_reference_on_random_groups(gens):
    try:
        G = groups.closure(gens)
    except ValueError:  # more than MAX_GROUP_ORDER elements
        assume(False)
    assert _engine_subgroups(G) == _reference_subgroups(G)
