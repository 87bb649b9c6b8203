"""The catalogue of named groups, on the permutation engine `perms`.

Provides constructions, abelian invariants, and an isomorphism fingerprint
strong enough to tell apart all 14 groups of order 16.  The invariants of
an abelian quotient G/N are read off G's own Cayley table, so the
abelianization G/G' is never built as a group.  The Pauli group
P = <X, Y, Z> of the three 2x2 spin matrices is generated by their monomial
permutations of the eight vectors i^u * e_j, and is named by its registry
fingerprint, off which `pauli_criteria` reads the paper's three criteria: no
element of order 8, a non-normal subgroup, a Q8 subgroup.
Named groups live in one lazily built registry of canonical entries,
`group_models()`, and `ALIASES` maps the CLI's other names to entries.  The
Pauli entry's 8-point model is the group of the maps of `PAULI_PAIRS`, the
automorphisms of the splitting field.
"""

from collections import Counter, namedtuple
from functools import cached_property, lru_cache, reduce

from . import arith
from .perms import PAULI_PAIRS, FinGroup, Perm, _affine_pairs, affine_group_mod8, closure

# ---------------------------------------------------------------------------
# constructions


def from_multiplication(elements, mult) -> FinGroup:
    """The left-regular permutation representation of an abstract group
    given as a list of hashable elements with a multiplication function."""
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate elements")
    perms = []
    for g in elements:
        images = [index[mult(g, h)] for h in elements]
        perms.append(Perm(images))
    return FinGroup(perms)


def cyclic(n: int) -> FinGroup:
    gen = Perm([(i + 1) % n for i in range(n)])
    return closure([gen])


def direct_product(G: FinGroup, H: FinGroup) -> FinGroup:
    """G x H acting on the disjoint union of the two point sets."""
    n = G.degree
    return FinGroup(Perm(g.images + tuple(n + x for x in h.images))
                    for g in G.elements for h in H.elements)


# ---------------------------------------------------------------------------
# Pauli matrices as monomial permutations


def _monomial(images, units) -> Perm:
    """The 2x2 monomial matrix over Z[i] that sends e_j to
    i^units[j] * e_images[j], as its permutation of the eight vectors
    i^u * e_j (point 4j + u); products of these are matrix products."""
    return Perm(4 * images[j] + (u + units[j]) % 4 for j in (0, 1) for u in range(4))


PAULI_X = _monomial((1, 0), (0, 0))
PAULI_Y = _monomial((1, 0), (1, 3))
PAULI_Z = _monomial((0, 1), (0, 2))


@lru_cache(maxsize=None)
def pauli_matrix_group() -> FinGroup:
    """The 16-element matrix group <X, Y, Z>, on the 8 points of its vectors."""
    return closure([PAULI_X, PAULI_Y, PAULI_Z])


@lru_cache(maxsize=None)
def quaternion_group() -> FinGroup:
    """Q8 = <iX, iY>, on the 8 points of its vectors."""
    i = _monomial((0, 1), (1, 1))
    return closure([i * PAULI_X, i * PAULI_Y])


# ---------------------------------------------------------------------------
# abelian invariants and naming


def _exact_log(n: int, p: int) -> int:
    e = 0
    while n > 1:
        if n % p:
            raise ArithmeticError(f"{n} is not a power of {p}")
        n //= p
        e += 1
    return e


def abelian_invariants(G: FinGroup) -> tuple[int, ...]:
    """Primary decomposition of an abelian group: prime powers, descending."""
    return _quotient_invariants(G, 1 << G._identity)


def quotient_invariants(G: FinGroup, N: FinGroup) -> tuple[int, ...]:
    """`abelian_invariants` of G/N, for a normal subgroup N of G with G/N
    abelian; ValueError otherwise."""
    if not N._members <= G._members:
        raise ValueError("not a subgroup")
    return _quotient_invariants(G, sum(1 << G._index[n.images] for n in N))


def _quotient_invariants(G: FinGroup, N: int) -> tuple[int, ...]:
    # G/N for the subgroup N of G (a bitmask), read off G's table: the order
    # of gN is the least m with g^m in N, and each coset has |N| elements
    if not G._is_normal(N):
        raise ValueError("subgroup is not normal")
    t, inv, size = G._table, G._inverse, N.bit_count()
    # G/N is abelian iff ab(ba)^-1 lies in N for all a, b
    if any(not N >> t[t[a][b]][inv[t[b][a]]] & 1
           for a in range(G.order) for b in range(a)):
        raise ValueError("group is not abelian")
    orders = []
    for g in range(G.order):
        x, m = g, 1
        while not N >> x & 1:
            x, m = t[x][g], m + 1
        orders.append(m)
    powers = []
    for p, mult in arith.factor(G.order // size).exponents:
        part = p ** mult
        # #{gN : g^(p^j) in N} = p^(sum_i min(j, e_i)) determines the e_i
        logs = [0]
        j = 1
        while p ** logs[-1] < part:
            pj = p ** j
            logs.append(_exact_log(sum(1 for o in orders if pj % o == 0) // size, p))
            j += 1
        at_least = [logs[i] - logs[i - 1] for i in range(1, len(logs))]
        for i, cnt in enumerate(at_least):
            nxt = at_least[i + 1] if i + 1 < len(at_least) else 0
            powers.extend([p ** (i + 1)] * (cnt - nxt))
    return tuple(sorted(powers, reverse=True))


def abelian_name(invariants: tuple[int, ...]) -> str:
    if not invariants:
        return "C1"
    if len(invariants) >= 2 and all(q == 2 for q in invariants):
        return {2: "V4", 3: "E8", 4: "E16", 5: "E32"}[len(invariants)]
    return "x".join(f"C{q}" for q in invariants)


# ---------------------------------------------------------------------------
# fingerprint and identification


class Fingerprint(namedtuple("Fingerprint", (
        "order element_orders center_type abelianization subgroup_profile"
        " has_q8_subgroup has_order8_element"))):
    """Isomorphism-invariant profile; separates all 14 groups of order 16.
    element_orders holds (order, count) pairs and subgroup_profile holds
    ((order, normal), count) pairs, both sorted."""

    __slots__ = ()


def _looks_like_q8(H: FinGroup) -> bool:
    # Q8 is the unique order-8 group with a single involution
    return H.order == 8 and H.element_orders() == Counter({1: 1, 2: 1, 4: 6})


@lru_cache(maxsize=None)
def fingerprint(G: FinGroup) -> Fingerprint:
    if G.order > 32:
        raise ValueError("fingerprint supported up to order 32")
    orders = G.element_orders()
    subs = G.subgroups()
    profile = Counter((H.order, normal) for H, normal in subs)
    return Fingerprint(
        order=G.order,
        element_orders=tuple(sorted(orders.items())),
        center_type=abelian_name(abelian_invariants(G.center())),
        abelianization=abelian_name(quotient_invariants(G, G.commutator_subgroup())),
        subgroup_profile=tuple(sorted(profile.items())),
        has_q8_subgroup=any(_looks_like_q8(H) for H, _ in subs),
        has_order8_element=orders.get(8, 0) > 0,
    )


def pauli_criteria(G: FinGroup) -> tuple[bool, bool, bool]:
    """(no element of order 8, a non-normal subgroup, a Q8 subgroup) read off
    the fingerprint: an order-16 group is the Pauli group iff all three hold."""
    fp = fingerprint(G)
    return (not fp.has_order8_element,
            any(not normal for (_, normal), _ in fp.subgroup_profile),
            fp.has_q8_subgroup)


def _q16_model() -> FinGroup:
    els = [(i, j) for i in range(8) for j in range(2)]

    def mult(a, b):
        (i1, j1), (i2, j2) = a, b
        if j1 == 0:
            return ((i1 + i2) % 8, j2)
        return ((i1 - i2 + 4 * j2) % 8, (j1 + j2) % 2)

    return from_multiplication(els, mult)


def _c4_semi_c4_model() -> FinGroup:
    els = [(i, j) for i in range(4) for j in range(4)]

    def mult(a, b):
        (i1, j1), (i2, j2) = a, b
        sign = -1 if j1 % 2 else 1
        return ((i1 + sign * i2) % 4, (j1 + j2) % 4)

    return from_multiplication(els, mult)


def _v4_semi_c4_model() -> FinGroup:
    els = [(x, y, j) for x in range(2) for y in range(2) for j in range(4)]

    def mult(a, b):
        (x1, y1, j1), (x2, y2, j2) = a, b
        if j1 % 2:
            x2, y2 = y2, x2
        return ((x1 + x2) % 2, (y1 + y2) % 2, (j1 + j2) % 4)

    return from_multiplication(els, mult)


def _abelian(*orders: int) -> FinGroup:
    """C(n1) x C(n2) x ..., the direct product taken from the left."""
    return reduce(direct_product, map(cyclic, orders))


def _dihedral8() -> FinGroup:
    return closure([Perm([1, 2, 3, 0]), Perm([0, 3, 2, 1])])


# ---------------------------------------------------------------------------
# the registry of named groups


class GroupModel(namedtuple("GroupModel", "name build pairs")):
    """A named group: its abstract construction (None when the 8-point model
    is that construction) and the (t, s) pairs of its transitive 8-point
    model in Hol(C8) (None when it has none).  The name is canonical, the one
    identify() returns (K8's group is C4xC2); other names are `ALIASES`.  No
    __slots__, so that the cached properties have a __dict__."""

    @cached_property
    def model8(self) -> FinGroup | None:
        return None if self.pairs is None else affine_group_mod8(self.pairs)

    @cached_property
    def group(self) -> FinGroup:
        return self.model8 if self.build is None else self.build()


@lru_cache(maxsize=None)
def group_models() -> dict[str, GroupModel]:
    """Every named group model, each group built on first use."""
    entries = [
        GroupModel("C16", lambda: cyclic(16), None),
        GroupModel("C8xC2", lambda: _abelian(8, 2), None),
        GroupModel("C4xC4", lambda: _abelian(4, 4), None),
        GroupModel("C4xC2xC2", lambda: _abelian(4, 2, 2), None),
        GroupModel("E16", lambda: _abelian(2, 2, 2, 2), None),
        GroupModel("D16", None, _affine_pairs(lambda t, s: s in (1, 7))),
        GroupModel("QD16", None, _affine_pairs(lambda t, s: s in (1, 3))),
        GroupModel("M4(2)", None, _affine_pairs(lambda t, s: s in (1, 5))),
        GroupModel("Q16", _q16_model, None),
        GroupModel("D8xC2", lambda: direct_product(_dihedral8(), cyclic(2)), None),
        GroupModel("Q8xC2", lambda: direct_product(quaternion_group(), cyclic(2)),
                   None),
        GroupModel("Pauli", pauli_matrix_group, PAULI_PAIRS),
        GroupModel("C4:C4", _c4_semi_c4_model, None),
        GroupModel("C2^2:C4", _v4_semi_c4_model, None),
        GroupModel("K8", lambda: _abelian(4, 2),
                   _affine_pairs(lambda t, s: s == (2 * t + 1) % 8)),
        GroupModel("B32", None, _affine_pairs(lambda t, s: True)),
        GroupModel("D8", _dihedral8, None),
        GroupModel("Q8", quaternion_group, None),
    ]
    return {m.name: m for m in entries}


# the other names the CLI accepts for registry entries
ALIASES = {"pauli-matrices": "Pauli", "pauli-affine": "Pauli", "hol-c8": "B32",
           "q8": "Q8", "d8": "D8"}


@lru_cache(maxsize=None)
def order16_stock_models() -> dict[str, FinGroup]:
    """Faithful permutation models of all fourteen groups of order 16."""
    return {name: m.group for name, m in group_models().items() if m.group.order == 16}


@lru_cache(maxsize=None)
def _nonabelian_registry() -> dict[tuple[int, Fingerprint], str]:
    return {(m.group.order, fingerprint(m.group)): name
            for name, m in group_models().items() if not m.group.is_abelian()}


def identify(G: FinGroup) -> str:
    """Canonical name of a group of order <= 32.

    Abelian groups are named from their invariants, every other group
    (Pauli included) from the fingerprint registry of stock models.
    """
    if G.order > 32:
        raise ValueError("identification supported up to order 32")
    if G.is_abelian():
        return abelian_name(abelian_invariants(G))
    name = _nonabelian_registry().get((G.order, fingerprint(G)))
    if name is None:
        raise LookupError(f"unrecognized group of order {G.order}")
    return name

