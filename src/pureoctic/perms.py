"""A small exact engine for permutation groups on any number of points;
closure and subgroup enumeration stop at MAX_GROUP_ORDER elements.

Each group indexes its sorted elements and holds their Cayley table;
subgroups are enumerated, and their generating sets chosen, as bitmasks
over those indices, and each subgroup's table is read off its parent's.
An affine map m -> s*m + t of Z/8 is the Perm `affine_map(t, s)`; those of
`PAULI_PAIRS` are the automorphisms of the splitting field, which
`splitting` names by their pairs alone.  The catalogue of named groups is
`groups`.
"""

import math
from collections import Counter

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

    def __contains__(self, g):
        return g in self._members

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

    def generating_set(self, elements) -> tuple[Perm, ...]:
        """A small generating set of the subgroup the given elements generate:
        each one the earlier choices do not generate is chosen, in order; the
        trivial group is generated by its identity."""
        chosen = []
        H = 1 << self._identity
        for g in elements:
            i = self._index[g.images]
            if not H >> i & 1:
                chosen.append(i)
                H = self._join(H, tuple(chosen))
        return tuple(self.elements[i] for i in chosen or [self._identity])

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
# affine maps of Z/8


def affine_map(t: int, s: int) -> Perm:
    """The affine map m -> s*m + t of Z/8 (s odd) as a permutation."""
    return Perm([(s * m + t) % 8 for m in range(8)])


def affine_group_mod8(pairs) -> FinGroup:
    """The group of the affine maps of the given (t, s) pairs."""
    return FinGroup(affine_map(t, s) for t, s in pairs)


def _affine_pairs(rule) -> tuple[tuple[int, int], ...]:
    """The (t, s) pairs of Hol(C8) that satisfy rule(t, s)."""
    return tuple((t, s) for t in range(8) for s in (1, 3, 5, 7) if rule(t, s))


# the automorphisms a -> a*w^t, w -> w^s of the Pauli splitting field
PAULI_PAIRS = _affine_pairs(lambda t, s: (s - 2 * t - 1) % 4 == 0)
