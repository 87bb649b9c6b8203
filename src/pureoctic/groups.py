"""Permutation groups and the catalogue of named groups.

The engine: a group on any number of points indexes its sorted elements and
holds their Cayley table; subgroups are enumerated as bitmasks over those
indices, and each subgroup's table is read off its parent's.  Closure and
subgroup enumeration stop at MAX_GROUP_ORDER elements.  An affine map m -> s*m + t of Z/n is the Perm
`affine_map(t, s, n)`; those of `PAULI_PAIRS` (on Z/8) are the automorphisms
of the splitting field, which `splitting` names by their pairs alone.

The catalogue: abelian invariants, and an isomorphism fingerprint strong
enough to tell apart all 14 groups of order 16.  The invariants of an
abelian quotient G/N are read off G's own Cayley table, so the
abelianization G/G' is never built as a group.  Named groups live in one
lazily built registry of canonical entries, `group_models()`, and `ALIASES`
maps the CLI's other names to entries.  Every named group is generated: the
closure of the generators its entry lists (cycles, affine maps, monomial
matrices), or the group of the affine maps of Z/8 its pairs name.  The Pauli
group P = <X, Y, Z> of the three 2x2 spin matrices is generated by their
monomial permutations of the eight vectors i^u * e_j, and is named by its
registry fingerprint, off which `pauli_criteria` reads the paper's three
criteria: no element of order 8, a non-normal subgroup, a Q8 subgroup.
"""

import math
from collections import Counter, namedtuple
from functools import cached_property, lru_cache

from . import arith

# the largest group the engine closes or enumerates subgroups of
MAX_GROUP_ORDER = 64


class Perm:
    """A permutation of {0..n-1}, stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        self.images = images

    @classmethod
    def _unchecked(cls, images: tuple) -> "Perm":
        # products and inverses of bijections need no re-validation
        p = object.__new__(cls)
        p.images = images
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        # function composition: (p*q)(x) = p(q(x))
        if len(self.images) != len(other.images):
            raise ValueError("permutation degrees differ")
        images = self.images
        return Perm._unchecked(tuple(images[j] for j in other.images))

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths in decreasing order (a partition of the degree)."""
        seen = [False] * len(self.images)
        lengths = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = self.images[x]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    def order(self) -> int:
        return math.lcm(*self.cycle_type())

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images


def _bits(mask: int) -> list[int]:
    """The set bits of a bitmask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def closure(generators) -> "FinGroup":
    """The permutation group generated by the given permutations: all their
    products, breadth first (the identity included, the group being finite).
    Raises ValueError once that exceeds MAX_GROUP_ORDER elements."""
    gens = sorted(set(generators))
    if not gens:
        raise ValueError("need at least one generator")
    if len({g.degree for g in gens}) != 1:
        raise ValueError("generators act on different point sets")
    els = set(gens)
    boundary = gens
    while boundary:
        fresh = []
        for a in gens:
            for b in boundary:
                c = a * b
                if c not in els:
                    els.add(c)
                    fresh.append(c)
        if len(els) > MAX_GROUP_ORDER:
            raise ValueError(f"the generated group has more than"
                             f" {MAX_GROUP_ORDER} elements")
        boundary = fresh
    return FinGroup(els)


class FinGroup:
    """A finite permutation group given by its full (closed) element set.
    Its Cayley table holds the index of elements[i] * elements[j] (elements
    sorted) at [i][j]; building the table is the closure check."""

    def __init__(self, elements):
        elements = sorted(set(elements))
        if not elements:
            raise ValueError("empty element set")
        n = elements[0].degree
        if any(g.degree != n for g in elements):
            raise ValueError("elements act on different point sets")
        index = {g.images: i for i, g in enumerate(elements)}
        identity = index.get(tuple(range(n)))
        if identity is None:
            raise ValueError("identity missing")
        table = [[index.get(tuple(map(a.images.__getitem__, b.images)))
                  for b in elements] for a in elements]
        if any(None in row for row in table):
            raise ValueError("not closed under composition")
        if any(identity not in row for row in table):
            raise ValueError("not closed under inversion")
        self._adopt(elements, table, [row.index(identity) for row in table], identity)

    def _adopt(self, elements, table, inverse, identity):
        # the state of a group whose sorted elements and table are checked
        self.elements = tuple(elements)
        self._members = frozenset(elements)
        self._index = {g.images: i for i, g in enumerate(elements)}
        self._table = table
        self._inverse = inverse
        self._identity = identity
        self.degree = elements[0].degree
        self._subgroups: list | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, FinGroup) and self._members == other._members

    def __hash__(self):
        return hash(self._members)

    def _central(self) -> int:
        # the bitmask of the elements whose row of the table equals their
        # column: those that commute with every element
        t = self._table
        return sum(1 << g for g, col in enumerate(zip(*t)) if list(col) == t[g])

    def is_abelian(self) -> bool:
        return self._central() == (1 << self.order) - 1

    def element_orders(self) -> Counter:
        return Counter(g.order() for g in self.elements)

    def center(self) -> "FinGroup":
        return self._subgroup(self._central())

    def commutator_subgroup(self) -> "FinGroup":
        t, inv = self._table, self._inverse
        comms = {t[t[t[a][b]][inv[a]]][inv[b]]
                 for a in range(self.order) for b in range(self.order)}
        return self._subgroup(self._join(1 << self._identity, tuple(comms)))

    def _is_normal(self, H: int) -> bool:
        # does conjugation by every element keep the subgroup H (a bitmask)?
        t, inv = self._table, self._inverse
        members = _bits(H)
        return all(H >> t[t[g][h]][inv[g]] & 1
                   for g in range(self.order) for h in members)

    def _join(self, H: int, gens: tuple[int, ...]) -> int:
        """The bitmask of the subgroup generated by the subgroup H (a bitmask)
        and the elements with indices gens, closed by right multiplication."""
        table = self._table
        members = _bits(H)
        for x in members:
            for g in gens:
                y = table[x][g]
                if not H >> y & 1:
                    H |= 1 << y
                    members.append(y)
        return H

    def _subgroup(self, H: int) -> "FinGroup":
        # the subgroup H (a bitmask): its elements stay sorted, and its table,
        # inverses and identity are this group's, renumbered
        members = _bits(H)
        pos = {g: i for i, g in enumerate(members)}
        t, inv = self._table, self._inverse
        sub = object.__new__(FinGroup)
        sub._adopt([self.elements[g] for g in members],
                   [[pos[t[a][b]] for b in members] for a in members],
                   [pos[inv[a]] for a in members], pos[self._identity])
        return sub

    def subgroups(self) -> list[tuple["FinGroup", bool]]:
        """All subgroups with normality flags, ordered by (order, elements).

        Subgroups are bitmasks over the element indices.  Every subgroup is
        generated by cyclic subgroups, so the lattice is grown from the
        trivial subgroup by joins with each cyclic subgroup it lacks."""
        if self.order > MAX_GROUP_ORDER:
            raise ValueError(f"subgroup enumeration supported up to order"
                             f" {MAX_GROUP_ORDER}")
        if self._subgroups is not None:
            return self._subgroups
        trivial = 1 << self._identity
        cyclic = {}
        for g in range(self.order):
            cyclic.setdefault(self._join(trivial, (g,)), g)
        found = {trivial: ()}  # subgroup -> the generators it was joined from
        frontier = [trivial]
        while frontier:
            H = frontier.pop()
            for C, g in cyclic.items():
                if C & ~H:
                    gens = (*found[H], g)
                    K = self._join(H, gens)
                    if K not in found:
                        found[K] = gens
                        frontier.append(K)
        ordered = sorted(found, key=lambda H: (H.bit_count(), _bits(H)))
        self._subgroups = [(self._subgroup(H), self._is_normal(H)) for H in ordered]
        return self._subgroups


# ---------------------------------------------------------------------------
# generators: affine maps, cycles and monomial matrices


def affine_map(t: int, s: int, n: int = 8) -> Perm:
    """The affine map m -> s*m + t of Z/n (s a unit) as a permutation."""
    return Perm([(s * m + t) % n for m in range(n)])


def affine_group_mod8(pairs) -> FinGroup:
    """The group of the affine maps of Z/8 of the given (t, s) pairs."""
    return FinGroup(affine_map(t, s) for t, s in pairs)


def _affine_pairs(rule) -> tuple[tuple[int, int], ...]:
    """The (t, s) pairs of Hol(C8) that satisfy rule(t, s)."""
    return tuple((t, s) for t in range(8) for s in (1, 3, 5, 7) if rule(t, s))


# the automorphisms a -> a*w^t, w -> w^s of the Pauli splitting field
PAULI_PAIRS = _affine_pairs(lambda t, s: (s - 2 * t - 1) % 4 == 0)


def _cycles(*orders: int) -> tuple[Perm, ...]:
    """Generators of C(n1) x C(n2) x ...: one cycle per order, each on its own
    block of consecutive points."""
    n, gens, start = sum(orders), [], 0
    for k in orders:
        images = list(range(n))
        images[start:start + k] = images[start + 1:start + k] + [start]
        gens.append(Perm(images))
        start += k
    return tuple(gens)


def _times_c2(gens) -> tuple[Perm, ...]:
    """Generators of <gens> x C2: each fixes two new points, and one more
    generator swaps them."""
    n = gens[0].degree
    return (*(Perm(g.images + (n, n + 1)) for g in gens),
            Perm((*range(n), n + 1, n)))


def _monomial(images, units) -> Perm:
    """The 2x2 monomial matrix over Z[i] that sends e_j to
    i^units[j] * e_images[j], as its permutation of the eight vectors
    i^u * e_j (point 4j + u); products of these are matrix products."""
    return Perm(4 * images[j] + (u + units[j]) % 4 for j in (0, 1) for u in range(4))


PAULI_X = _monomial((1, 0), (0, 0))
PAULI_Y = _monomial((1, 0), (1, 3))
PAULI_Z = _monomial((0, 1), (0, 2))


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


# ---------------------------------------------------------------------------
# the registry of named groups


class GroupModel(namedtuple("GroupModel", "name gens pairs")):
    """A named group: the generators of its abstract construction (None when
    the 8-point model is that construction) and the (t, s) pairs of its
    transitive 8-point model in Hol(C8) (None when it has none).  The name is
    canonical, the one identify() returns (K8's group is C4xC2); other names
    are `ALIASES`.  No __slots__, so that the cached properties have a
    __dict__."""

    @cached_property
    def model8(self) -> FinGroup | None:
        return None if self.pairs is None else affine_group_mod8(self.pairs)

    @cached_property
    def group(self) -> FinGroup:
        return self.model8 if self.gens is None else closure(self.gens)


@lru_cache(maxsize=None)
def group_models() -> dict[str, GroupModel]:
    """Every named group model, each group built on first use."""
    d8 = (affine_map(1, 1, 4), affine_map(0, 3, 4))  # m -> m + 1, m -> -m of Z/4
    i = _monomial((0, 1), (1, 1))  # the scalar matrix i
    q8 = (i * PAULI_X, i * PAULI_Y)
    entries = [
        GroupModel("C16", _cycles(16), None),
        GroupModel("C8xC2", _cycles(8, 2), None),
        GroupModel("C4xC4", _cycles(4, 4), None),
        GroupModel("C4xC2xC2", _cycles(4, 2, 2), None),
        GroupModel("E16", _cycles(2, 2, 2, 2), None),
        GroupModel("D16", None, _affine_pairs(lambda t, s: s in (1, 7))),
        GroupModel("QD16", None, _affine_pairs(lambda t, s: s in (1, 3))),
        GroupModel("M4(2)", None, _affine_pairs(lambda t, s: s in (1, 5))),
        # <x, y | x^8 = 1, y^2 = x^4, y x y^-1 = x^-1>
        GroupModel("Q16", (affine_map(2, 1, 16), affine_map(1, 7, 16)), None),
        GroupModel("D8xC2", _times_c2(d8), None),
        GroupModel("Q8xC2", _times_c2(q8), None),
        GroupModel("Pauli", (PAULI_X, PAULI_Y, PAULI_Z), PAULI_PAIRS),
        # <a, b | a^4 = b^4 = 1, b a b^-1 = a^-1>
        GroupModel("C4:C4", (affine_map(4, 1, 16), affine_map(2, 3, 16)), None),
        # <x, j | x^2 = j^4 = 1, x commutes with j x j^-1 and with j^2>
        GroupModel("C2^2:C4", (affine_map(0, 7, 16), affine_map(4, 5, 16)), None),
        GroupModel("K8", _cycles(4, 2), _affine_pairs(lambda t, s: s == (2 * t + 1) % 8)),
        GroupModel("B32", None, _affine_pairs(lambda t, s: True)),
        # <r, f | r^4 = f^2 = 1, f r f^-1 = r^-1>
        GroupModel("D8", d8, None),
        GroupModel("Q8", q8, None),
    ]
    return {m.name: m for m in entries}


def pauli_matrix_group() -> FinGroup:
    """The 16-element matrix group <X, Y, Z>, on the 8 points of its vectors."""
    return group_models()["Pauli"].group


# the other names the CLI accepts for registry entries
ALIASES = {"pauli-matrices": "Pauli", "pauli-affine": "Pauli", "hol-c8": "B32",
           "q8": "Q8", "d8": "D8"}


@lru_cache(maxsize=None)
def order16_stock_models() -> dict[str, FinGroup]:
    """Faithful permutation models of all fourteen groups of order 16."""
    return {name: m.group for name, m in group_models().items() if m.group.order == 16}


@lru_cache(maxsize=None)
def _nonabelian_registry() -> dict[Fingerprint, str]:
    return {fingerprint(m.group): name
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
    name = _nonabelian_registry().get(fingerprint(G))
    if name is None:
        raise LookupError(f"unrecognized group of order {G.order}")
    return name
