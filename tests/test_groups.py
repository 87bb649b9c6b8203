"""The permutation-group engine and the order-16 identification machinery."""

import functools
import itertools
import json
import operator
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


def _generated(gens, mul=operator.mul):
    """All products of the generators, breadth first: for elements of a
    finite group, the group they generate."""
    els, boundary = set(gens), list(gens)
    while boundary:
        fresh = {mul(a, b) for a in gens for b in boundary} - els
        els |= fresh
        boundary = list(fresh)
    return els


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
                K = frozenset(_generated(gens))
                if K not in found:
                    found[K] = gens
                    frontier.append(K)
    return [(tuple(sorted(H)),
             all(g * h * Perm(sorted(range(G.degree), key=g)) in H
                 for g in G.elements for h in H))
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
    xy = groups.closure([groups.PAULI_X, groups.PAULI_Y])
    assert xy.order == 8 and groups.identify(xy) == "D8"
    xyz = groups.closure([groups.PAULI_X, groups.PAULI_Y, groups.PAULI_Z])
    assert xyz.order == 16 and xyz == groups.pauli_matrix_group()


# the eight vectors i^u * e_j of Z[i]^2, point 4j + u of the monomial
# permutations, and 2x2 matrices over Z[i] as row tuples of exact complexes
UNITS = (1, 1j, -1, -1j)
VECTORS = [tuple(UNITS[u] if k == j else 0 for k in (0, 1))
           for j in (0, 1) for u in range(4)]


def _matmul(A, B):
    return tuple(tuple(sum(A[r][k] * B[k][c] for k in (0, 1)) for c in (0, 1))
                 for r in (0, 1))


def _action(M):
    """The permutation of VECTORS by the matrix M (a monomial matrix)."""
    return Perm(VECTORS.index(tuple(sum(M[r][k] * v[k] for k in (0, 1))
                                    for r in (0, 1))) for v in VECTORS)


def test_pauli_perms_are_the_matrix_actions():
    X, Y, Z = ((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1))
    iX, iY = ((0, 1j), (1j, 0)), ((0, 1), (-1, 0))
    assert (_action(X), _action(Y), _action(Z)) == \
        (groups.PAULI_X, groups.PAULI_Y, groups.PAULI_Z)
    assert _action(iX) == _action(((1j, 0), (0, 1j))) * groups.PAULI_X
    assert _action(iY) == _action(((1j, 0), (0, 1j))) * groups.PAULI_Y
    P, Q8 = _generated([X, Y, Z], _matmul), _generated([iX, iY], _matmul)
    assert (len(P), len(Q8)) == (16, 8)
    assert set(map(_action, P)) == set(groups.pauli_matrix_group())
    assert set(map(_action, Q8)) == set(groups.group_models()["Q8"].group)


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


def _quotient_type(G, N):
    return groups.abelian_name(groups.quotient_invariants(G, N))


def test_pauli_quotients():
    P = groups.pauli_matrix_group()
    subs = P.subgroups()
    center = P.center()
    assert _quotient_type(P, center) == "V4"
    minus_e = next(H for H, nrm in subs if H.order == 2 and nrm)
    assert _quotient_type(P, minus_e) == "E8"
    assert _quotient_type(P, P) == "C1"
    # every nontrivial proper quotient is elementary abelian
    for H, nrm in subs:
        if nrm and 1 < H.order < 16:
            assert _quotient_type(P, H) in {"C2", "V4", "E8"}
    non_normal = next(H for H, nrm in subs if not nrm)
    with pytest.raises(ValueError, match="not normal"):
        groups.quotient_invariants(P, non_normal)
    # P itself is not abelian, and Q8 does not hold a non-normal subgroup of P
    with pytest.raises(ValueError, match="not abelian"):
        groups.quotient_invariants(P, subs[0][0])
    q8 = next(H for H, _ in subs if groups._looks_like_q8(H))
    with pytest.raises(ValueError, match="not a subgroup"):
        groups.quotient_invariants(q8, non_normal)


def _registry_groups():
    for name, m in groups.group_models().items():
        yield name, m.group
        if m.model8 is not None:
            yield f"{name} on 8 points", m.model8


def test_quotient_invariants_match_the_coset_group():
    # every abelian quotient G/N of every registry group and 8-point model,
    # against the regular permutation group on the cosets of N: the element
    # orders of the abelian group of those invariants are its element orders
    pairs = 0
    for label, G in _registry_groups():
        derived = G.commutator_subgroup()
        for N, normal in G.subgroups():
            if not (normal and set(derived) <= set(N)):
                continue
            invariants = groups.quotient_invariants(G, N)
            Q = reference.quotient_group(G, N)
            assert Q.is_abelian(), label
            abelian = groups.closure(groups._cycles(1, *invariants))
            assert Q.element_orders() == abelian.element_orders(), (label, N.order)
            pairs += 1
    assert pairs == 304


def test_fingerprint_builds_no_group(monkeypatch):
    # G/G' is read off G's table: fingerprinting every registry group and
    # 8-point model builds no FinGroup
    cases = list(_registry_groups())
    built = []
    init = groups.FinGroup.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.FinGroup, "__init__", counted_init)
    groups.fingerprint.cache_clear()
    for _, G in cases:
        groups.fingerprint(G)
    assert built == []


def _power(g, n):
    return functools.reduce(operator.mul, [g] * n, Perm(range(g.degree)))


def _inverse(g):
    return Perm(sorted(range(g.degree), key=g))


def test_generated_models_satisfy_their_presentations():
    # each generated model has the order of its presentation and its
    # registry generators satisfy the relations, so it is that group: a proof
    # that does not read the fingerprint registry built from the same models
    models = groups.group_models()
    orders = {name: models[name].group.order
              for name in ("D8", "Q16", "C4:C4", "C2^2:C4")}
    assert orders == {"D8": 8, "Q16": 16, "C4:C4": 16, "C2^2:C4": 16}
    # D8 = <r, f | r^4 = f^2 = 1, f r f^-1 = r^-1>
    r, f = models["D8"].gens
    e = Perm(range(r.degree))
    assert _power(r, 4) == _power(f, 2) == e
    assert f * r * _inverse(f) == _inverse(r)
    # Q16 = <x, y | x^8 = 1, y^2 = x^4, y x y^-1 = x^-1>, with x^4 != 1
    x, y = models["Q16"].gens
    e = Perm(range(x.degree))
    assert _power(x, 8) == e != _power(x, 4)
    assert _power(y, 2) == _power(x, 4)
    assert y * x * _inverse(y) == _inverse(x)
    # C4:C4 = <a, b | a^4 = b^4 = 1, b a b^-1 = a^-1>
    a, b = models["C4:C4"].gens
    assert _power(a, 4) == _power(b, 4) == e
    assert b * a * _inverse(b) == _inverse(a)
    # C2^2:C4 = <x, j | x^2 = j^4 = 1, x commutes with j x j^-1 and j^2>
    x, j = models["C2^2:C4"].gens
    assert _power(x, 2) == _power(j, 4) == e
    for g in (j * x * _inverse(j), _power(j, 2)):
        assert x * g == g * x


def test_q8_all_subgroups_normal():
    Q8 = groups.group_models()["Q8"].group
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


def test_pauli_criteria_match_the_direct_reading(monkeypatch):
    rng = random.Random(20)
    for name, M in groups.order16_stock_models().items():
        regular = reference.regular_representation(M)
        relabeled = reference.relabel(M, Perm(rng.sample(range(M.degree), M.degree)))
        for G in (M, regular, relabeled):
            assert groups.pauli_criteria(G) == reference.pauli_criteria(G), name
        assert groups.identify(regular) == name
    # with the fingerprint cached, the criteria walk no subgroups
    P = groups.pauli_matrix_group()
    groups.fingerprint(P)
    calls = []
    subgroups = groups.FinGroup.subgroups
    monkeypatch.setattr(groups.FinGroup, "subgroups",
                        lambda G: calls.append(G) or subgroups(G))
    assert groups.pauli_criteria(P) == (True, True, True)
    assert calls == []


def test_identify_matches_construction_names():
    for name, M in groups.order16_stock_models().items():
        assert groups.identify(M) == name


def test_identify_small_groups():
    assert groups.identify(groups.closure(groups._cycles(16))) == "C16"
    assert groups.identify(groups.closure(groups._cycles(4))) == "C4"
    assert groups.identify(groups.closure(groups._cycles(2, 2))) == "V4"
    assert groups.identify(groups.group_models()["D8"].group) == "D8"
    with pytest.raises(ValueError):
        groups.identify(groups.closure(groups._cycles(33)))


def test_fingerprint_invariant_under_relabeling():
    rng = random.Random(2024)
    for M in (groups.pauli_matrix_group(), groups.order16_stock_models()["QD16"]):
        fp = groups.fingerprint(M)
        for _ in range(3):
            images = list(range(M.degree))
            rng.shuffle(images)
            assert groups.fingerprint(reference.relabel(M, Perm(images))) == fp


def test_hol_c8_model():
    hol = groups.group_models()["B32"].model8
    assert hol.order == 32
    assert reference.is_transitive(hol)
    assert groups.identify(hol) == "B32"
    sub_fps = {groups.fingerprint(H) for H, _ in hol.subgroups()}
    assert groups.fingerprint(groups.pauli_matrix_group()) in sub_fps
    assert groups.fingerprint(groups.group_models()["Pauli"].model8) == \
        groups.fingerprint(groups.pauli_matrix_group())


def _zeta8(*exponents):
    """The sum of w^e over the exponents, w a primitive 8th root of unity, as
    its coefficients on 1, w, w^2, w^3 (w^4 = -1)."""
    v = [0] * 4
    for e in exponents:
        v[e % 4] += -1 if e % 8 >= 4 else 1
    return tuple(v)


# sqrt(d) in Q(w) as a sum of powers of w
_ROOTS = {-1: (2,), 2: (1, 7), -2: (1, 3)}


def _chi(d, s):
    """The sign by which w -> w^s moves sqrt(d)."""
    root = _zeta8(*_ROOTS[d])
    image = _zeta8(*(s * e for e in _ROOTS[d]))
    assert image in (root, tuple(-x for x in root))
    return 1 if image == root else -1


# the group of the (t, s) that respect each tag's witness identity, for the
# root a and w as fixed below; K8 is identified as C4xC2
WITNESS_RULES = {
    "C4xC2": lambda t, s: s == (1 + 2 * t) % 8,  # c = d^4: a^2 = w*d
    "D16": lambda t, s: (-1) ** t == _chi(-2, s),  # c = 2d^2: a^4 = sqrt(-2)*d
    "QD16": lambda t, s: (-1) ** t == _chi(2, s),  # c = -2d^2: a^4 = sqrt(2)*d
    "Pauli": lambda t, s: (-1) ** t == _chi(-1, s),  # c = k^2: a^4 = i*k
    "B32": lambda t, s: True,
}


def test_galois_groups_of_pure_octics_by_enumeration():
    # fix a root a of X^8 + c and w = exp(2 pi i/8): every automorphism is
    # a -> a*w^t, w -> w^s, so G lies in Hol(C8), the 32 pairs (t, s).  G is
    # transitive when X^8 + c is irreducible, and it maps onto
    # Gal(Q(w)/Q) = (Z/8)^x, so its s run through {1, 3, 5, 7}
    for d in _ROOTS:
        assert _zeta8(*(x + y for x in _ROOTS[d] for y in _ROOTS[d])) == (d, 0, 0, 0)
    hol = groups.affine_group_mod8(groups._affine_pairs(lambda t, s: True))
    transitive = []
    for H, _ in hol.subgroups():
        if reference.is_transitive(H):
            pairs = tuple(sorted(map(reference.affine_pair, H)))
            transitive.append((H.order, groups.identify(H), pairs))
    candidates = [row for row in transitive
                  if {s for _, s in row[2]} == {1, 3, 5, 7}]
    # no irreducible pure octic has Galois group Q8, nor any group outside
    # these six; Q8 is transitive, and only the map onto (Z/8)^x excludes it
    witness = {name: groups._affine_pairs(rule) for name, rule in WITNESS_RULES.items()}
    minus = groups._affine_pairs(lambda t, s: s == (1 - 2 * t) % 8)
    assert sorted(candidates) == sorted([
        (8, "C4xC2", witness["C4xC2"]),
        (8, "C4xC2", minus),
        (16, "D16", witness["D16"]),
        (16, "QD16", witness["QD16"]),
        (16, "Pauli", groups.PAULI_PAIRS),
        (32, "B32", witness["B32"]),
    ])
    assert "Q8" in {name for _, name, _ in transitive}
    # so the witness groups are the candidates but one, the conjugate of K8's
    # by m -> -m: K8's rule read with w^-1 in place of w
    flip = groups.affine_map(0, 7)
    assert sorted(reference.affine_pair(flip * groups.affine_map(t, s) * flip)
                  for t, s in witness["C4xC2"]) == list(minus)
    # sigma(a^4) = (-1)^t a^4 and sigma(i) = chi_-1(s) i: the Pauli candidate
    # is exactly the group fixing a^4/i, which is then rational, so that
    # c = -a^8 = k^2 with k = a^4/i
    fixing = groups._affine_pairs(lambda t, s: (-1) ** t * _chi(-1, s) == 1)
    assert fixing == groups.PAULI_PAIRS == witness["Pauli"]


def test_regular_representation_preserves_fingerprint():
    qd = groups.order16_stock_models()["QD16"]
    assert groups.fingerprint(reference.regular_representation(qd)) == groups.fingerprint(qd)


def test_abelian_invariants():
    assert groups.abelian_invariants(groups.closure(groups._cycles(8))) == (8,)
    prod = groups.closure(groups._cycles(4, 2))
    assert groups.abelian_invariants(prod) == (4, 2)
    assert groups.abelian_name((4, 2)) == "C4xC2"
    assert groups.abelian_name((2, 2, 2)) == "E8"
    with pytest.raises(ValueError):
        groups.abelian_invariants(groups.group_models()["D8"].group)


def test_affine_pair_inverts_affine_map():
    pairs = [(t, s) for t in range(8) for s in (1, 3, 5, 7)]
    assert [reference.affine_pair(groups.affine_map(t, s)) for t, s in pairs] == pairs
    assert len(groups.PAULI_PAIRS) == 16
    # a Perm that is no affine map is refused on every call
    for bad in (Perm([1, 0, 2, 3, 4, 5, 6, 7]), Perm([0, 1, 3, 2, 4, 5, 6, 7])):
        for _ in range(2):
            with pytest.raises(ValueError, match="is not an affine map of Z/8"):
                reference.affine_pair(bad)


def test_group_models_identify_as_their_identity():
    # every entry is canonical: identify returns its name, except that K8's
    # group is C4xC2; a named group-identify prints the name without identify
    models = groups.group_models()
    for name, m in models.items():
        assert m.name == name
        identity = "C4xC2" if name == "K8" else name
        assert groups.identify(m.group) == identity, name
        if m.model8 is not None:
            assert m.model8.degree == 8 and reference.is_transitive(m.model8), name
            assert groups.identify(m.model8) == identity, name
            assert set(m.model8) <= set(models["B32"].model8), name
    assert sorted(groups.ALIASES) == ["d8", "hol-c8", "pauli-affine",
                                      "pauli-matrices", "q8"]
    assert set(groups.ALIASES.values()) <= set(models)
    # aliases never name a fingerprint: identify answers with canonical names
    assert set(groups._nonabelian_registry().values()).isdisjoint(groups.ALIASES)


def test_subgroups_match_closure_reference():
    checked = []
    for label, G in _engine_cases():
        if any(G is H for H in checked):
            continue  # an entry whose group is its 8-point model
        checked.append(G)
        assert _engine_subgroups(G) == _reference_subgroups(G), label
    assert len(checked) == 24


@pytest.mark.parametrize("name", ["Pauli", "B32"])
def test_generating_set_matches_closure_reference(name):
    # the reference that the lattice literal's generator column is proven
    # against: in both element orders, its choices generate the subgroup
    G = groups.group_models()[name].model8
    for H, _ in G.subgroups():
        for elements in (tuple(sorted(H, key=reference.affine_pair)), H.elements):
            assert groups.closure(reference.greedy_generators(elements)) == H


def test_subgroups_golden():
    # the (element indices, normal) rows, recorded from the closure-based
    # enumerator `_reference_subgroups` that the Cayley-table engine replaced
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


def _table_state(G):
    return G.elements, G._index, G._table, G._inverse, G._identity, G.degree


def test_subgroups_are_read_off_the_parent_table(monkeypatch):
    G = groups.affine_group_mod8(groups.PAULI_PAIRS)  # a fresh, unenumerated model
    built = []
    init = groups.FinGroup.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.FinGroup, "__init__", counted_init)
    assert len(G.subgroups()) == 23
    assert built == []
    monkeypatch.undo()
    # a subgroup read off its parent is the group FinGroup() builds from its
    # elements, down to its lattice and center
    for label, G in _engine_cases():
        for H, _ in G.subgroups():
            fresh = groups.FinGroup(H.elements)
            assert _table_state(H) == _table_state(fresh), label
            assert [(_table_state(K), normal) for K, normal in H.subgroups()] == \
                [(_table_state(K), normal) for K, normal in fresh.subgroups()], label
            assert _table_state(H.center()) == _table_state(fresh.center()), label


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
