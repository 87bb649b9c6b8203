"""Reference checks that the tests compare the package against.

No subcommand runs any of these.  Each is either a second, independent
route to something the package decides another way (irreducibility by the
classical criteria, Hilbert symbols by brute-force local solubility, form
invariants from rationals, transitivity by orbit search) or a convenience
that only a test reads.  pytest collects only `test_*.py` files, so this
module is imported by the tests and never collected.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from pureoctic import arith, groups, lattice, oracle
from pureoctic.arith import PrimeBasis, SquareClass, squarefree_part
from pureoctic.groups import FinGroup, Perm, affine_map
from pureoctic.lattice import LatticeReport, LatticeRow
from pureoctic.qforms import REAL_PLACE, Place, hilbert, relevant_places
from pureoctic.splitting import (
    FieldElt,
    SplittingField,
    WittCertificate,
    _MONOMIALS,
    _reduce,
)

# --- arith --------------------------------------------------------------------


def is_fourth_power(q: Fraction) -> bool:
    """True iff q = x^4 for some rational x."""
    return arith.nth_root(Fraction(q), 4) is not None


def valuation(q: Fraction, p: int) -> int:
    """The exponent v with q = p^v * (p-adic unit); q must be nonzero."""
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


# --- binomial -----------------------------------------------------------------


def _prime_divisors(n: int) -> list[int]:
    return [p for p, _ in arith.factor(n).exponents]


def is_irreducible_binomial(n: int, c: Fraction) -> bool:
    """Irreducibility of X^n + c over Q (Capelli): -c must not be a q-th
    power for any prime q | n, and when 4 | n, c must not be of the form
    4*lambda^4."""
    c = Fraction(c)
    if n < 1:
        raise ValueError("degree must be positive")
    if c == 0:
        raise ValueError("X^n alone is not a binomial: c must be nonzero")
    for q in _prime_divisors(n):
        if arith.nth_root(-c, q) is not None:
            return False
    if n % 4 == 0 and is_fourth_power(c / 4):
        return False
    return True


def schinzel_abelian(n: int, c: Fraction) -> bool:
    """Abelianity test for the Galois group of X^n + c: true iff c^2 is an
    n-th power in Q.  For irreducible X^n + c this forces a cyclic group when
    4 does not divide n, and C2 x C(n/2) otherwise."""
    c = Fraction(c)
    if n < 1:
        raise ValueError("degree must be positive")
    if c == 0:
        raise ValueError("c must be nonzero")
    return arith.nth_root(c * c, n) is not None


# --- groups -------------------------------------------------------------------


def is_transitive(G: FinGroup) -> bool:
    """Does G move point 0 to every point?  The orbit of 0 is its images
    under the elements."""
    return len({g(0) for g in G.elements}) == G.degree


def from_multiplication(elements, mult) -> FinGroup:
    """The left-regular permutation representation of an abstract group
    given as a list of hashable elements with a multiplication function."""
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate elements")
    return FinGroup(Perm([index[mult(g, h)] for h in elements]) for g in elements)


def regular_representation(G: FinGroup) -> FinGroup:
    """The same abstract group acting on itself by left multiplication."""
    return from_multiplication(range(G.order), lambda a, b: G._table[a][b])


def relabel(G: FinGroup, pi: Perm) -> FinGroup:
    """Conjugate every element by a relabeling of the point set."""
    inv = Perm(sorted(range(pi.degree), key=pi))
    return FinGroup([pi * g * inv for g in G.elements])


def pauli_criteria(G: FinGroup) -> tuple[bool, bool, bool]:
    """(no element of order 8, a non-normal subgroup, a Q8 subgroup) read
    directly: the element orders, then one walk over the subgroups."""
    subs = G.subgroups()
    return (G.element_orders().get(8, 0) == 0,
            any(not normal for _, normal in subs),
            any(groups._looks_like_q8(H) for H, _ in subs))


def quotient_group(G: FinGroup, N: FinGroup) -> FinGroup:
    """G/N, for N normal in G, as the regular permutation group on the
    cosets, numbered in the order of their least elements."""
    t = G._table
    members = [G._index[n.images] for n in N]
    coset, reps = {}, []
    for g in range(G.order):
        if g not in coset:
            for n in members:
                coset[t[g][n]] = len(reps)
            reps.append(g)
    return from_multiplication(range(len(reps)),
                               lambda a, b: coset[t[reps[a]][reps[b]]])


def greedy_generators(elements) -> tuple[Perm, ...]:
    """A small generating set of a subgroup given as a closed tuple, closing
    a new group after each choice: each member not yet generated by the
    earlier choices is chosen, in order; the trivial group is generated by
    its identity."""
    chosen = []
    generated = ()
    for g in elements:
        if g.order() > 1 and g not in generated:
            chosen.append(g)
            generated = groups.closure(chosen)
    return tuple(chosen) or elements


def subgroup_count_conventions(G: FinGroup) -> dict[str, int]:
    """Subgroup tallies under both readings of 'proper subgroups'."""
    subs = G.subgroups()
    total = len(subs)
    return {
        "total": total,
        "proper": total - 1,
        "proper_nontrivial": total - 2,
        "normal_total": sum(1 for _, nrm in subs if nrm),
        "normal_proper_nontrivial": sum(
            1 for H, nrm in subs if nrm and 1 < H.order < G.order),
    }


# --- oracle -------------------------------------------------------------------


def transitive_8pt_obstruction(name: str) -> str | None:
    """Why a candidate group of `oracle.stock_models` has no faithful
    transitive action on 8 points: a point stabilizer would be an order-2
    subgroup with trivial core, and these groups have none (every order-2
    subgroup is normal)."""
    models = groups.group_models()
    if name not in oracle.stock_models() or models[name].pairs is not None:
        return None
    order2 = [nrm for H, nrm in models[name].group.subgroups() if H.order == 2]
    if all(order2):
        return (f"every order-2 subgroup of {name} is normal, so no point"
                " stabilizer has trivial core")
    return None


def reference_census(c: Fraction, bound: int) -> oracle.Census:
    """`oracle.census` the direct way: the residue a = -c mod p through a
    modular inverse, then Mobius inversion at every good prime."""
    c = Fraction(c)
    num, den = c.numerator, c.denominator
    counts: Counter = Counter()
    skipped = []
    for p in arith.primes_below(bound):
        if p == 2 or num % p == 0 or den % p == 0:
            skipped.append(p)
            continue
        counts[oracle._frobenius_degrees(-num * pow(den, -1, p) % p, p)] += 1
    ordered = tuple(sorted(counts.items(), reverse=True))
    return oracle.Census(c, bound, ordered, sum(counts.values()), tuple(skipped))


def decimal(q: Fraction) -> str:
    """q rounded to four decimal places by `round`, a tie to even."""
    text = f"{round(q * 10 ** 4):05d}"
    return f"{text[:-4]}.{text[-4:]}"


def consistent(cns: oracle.Census, model: dict, tolerance: Fraction
               ) -> tuple[bool, Fraction, str]:
    """`oracle.consistent` in Fractions, for Fraction proportions and
    tolerance: whether the census passes, the worst deviation, and the
    verdict as it prints."""
    if cns.total < 500:
        raise ValueError(f"census of {cns.total} primes is too small (need 500)")
    tolerance = Fraction(tolerance)
    if tolerance < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    if tolerance >= 1:
        raise ValueError(f"tolerance must be below 1, got {tolerance}")
    freqs = {t: Fraction(n, cns.total) for t, n in cns.counts}
    foreign = tuple(t for t in freqs if t not in model)
    worst, worst_type = Fraction(0), None
    for t, freq in freqs.items():
        dev = abs(freq - model.get(t, Fraction(0)))
        if dev > worst:
            worst, worst_type = dev, t
    passed = not foreign and worst <= tolerance
    bits = ["PASS" if passed else "FAIL"]
    if foreign:
        bits.append("observed types outside the model: "
                    + ", ".join(map(oracle.shape, foreign)))
    if worst_type is not None:
        bits.append(f"worst deviation {decimal(worst)} (= {worst})"
                    f" at {oracle.shape(worst_type)}")
    return passed, worst, "; ".join(bits)


# --- splitting ----------------------------------------------------------------


def affine_pair(p: Perm) -> tuple[int, int]:
    """The (t, s) with p = affine_map(t, s): the inverse of affine_map."""
    t, s = p(0), (p(1) - p(0)) % 8
    if s % 2 == 0 or affine_map(t, s) != p:
        raise ValueError(f"{p.images} is not an affine map of Z/8")
    return t, s


def pauli_lattice() -> list[tuple[tuple, bool, tuple]]:
    """The engine's subgroups of the 16 Pauli maps in the lattice report's
    order, by order and then by sorted pairs: each its sorted pairs (t, s),
    its normality and the generators `greedy_generators` picks from them."""
    G = groups.affine_group_mod8(groups.PAULI_PAIRS)
    rows = []
    for H, normal in G.subgroups():
        elements = sorted(H, key=affine_pair)
        rows.append((tuple(map(affine_pair, elements)), normal,
                     tuple(map(affine_pair, greedy_generators(elements)))))
    return sorted(rows, key=lambda row: (len(row[0]), row[0]))


# the proof route of the rows of `lattice._LATTICE`: the search of a primitive
# element and the table of labels, run in E for one k


def fixes(action: tuple, nums) -> bool:
    """True iff an action's (target, num, den) entries fix the numerators
    nums: on the support, since an action that keeps it permutes it."""
    return all(nums[target] * den == num * c
               for c, (target, num, den) in zip(nums, action) if c)


def stabilizer(E: SplittingField, u: FieldElt) -> frozenset:
    """The automorphisms fixing u."""
    return frozenset(g for g, action in E._actions.items() if fixes(action, u.nums))


def combination_stream(nbasis: int):
    """Deterministic candidates for the primitive-element search: small
    supports first, integer coefficients with expanding bound."""
    for bound in (1, 2, 4, 8):
        values = [v for r in range(1, bound + 1) for v in (r, -r)]
        for support in range(1, min(nbasis, 4) + 1):
            for idxs in itertools.combinations(range(nbasis), support):
                for coeffs in itertools.product(values, repeat=support):
                    if coeffs[0] < 0:
                        continue
                    if bound > 1 and all(abs(c) < bound for c in coeffs):
                        continue  # already tried at a smaller bound
                    yield idxs, coeffs


def primitive_element(E: SplittingField, H) -> FieldElt:
    """The first candidate of `combination_stream` over the orbit-sum basis
    of the field H fixes that no automorphism outside H fixes: u in that
    field generates it iff no automorphism outside H fixes it."""
    members = frozenset(H)
    basis = E.fixed_field(members).basis
    outside = [action for g, action in E._actions.items() if g not in members]
    # the basis vectors have disjoint supports, and over one denominator a
    # candidate is an integer combination of their numerators
    den = math.lcm(*(b.den for b in basis))
    vecs = [[(i, x * (den // b.den)) for i, x in enumerate(b.nums) if x]
            for b in basis]
    for idxs, coeffs in combination_stream(len(basis)):
        nums = [0] * 16
        for b, c in zip(idxs, coeffs):
            for i, x in vecs[b]:
                nums[i] = c * x
        if not any(fixes(action, nums) for action in outside):
            return FieldElt._reduced(E, nums, den)
    raise RuntimeError("primitive element search exhausted")


def _class_order(d: int) -> tuple:
    return abs(d), d < 0


def _field_name(reps) -> str:
    """The field name Q(...) from square-free class representatives."""
    parts = ["i" if d == -1 else f"sqrt({d})" for d in sorted(reps, key=_class_order)]
    return "Q(" + ", ".join(parts) + ")"


def label_table(E: SplittingField) -> dict:
    """Subfield labels keyed by the stabiliser of their generators, each as
    (label spec, label); where several labels name one subgroup, the first
    listed wins."""
    # L = Q(i, sqrt(2), sqrt(k)) has the seven quadratic subfields
    # Q(sqrt(d_n)), d_n = (-1)^(n&1) * 2^(n>>1&1) * k^(n>>2) for n = 1..7.
    # Bit b of flips[g] says whether g negates the b-th of i, sqrt(2) and
    # sqrt(k), so g fixes sqrt(d_n) iff flips[g] & n has even weight
    gens = (E.i.nums, E.r.nums, E.v2.nums)
    flips = {g: sum(1 << b for b, u in enumerate(gens) if not fixes(action, u))
             for g, action in E._actions.items()}

    def fixing(*ns):
        return frozenset(g for g, f in flips.items()
                         if not any((f & n).bit_count() & 1 for n in ns))

    # over the prime basis of k, -1 is the vector 1 and 2 is the vector 2,
    # so d_n has the vector of n below
    basis = PrimeBasis((squarefree_part(E.k),))
    kv = basis.vectors[0]
    reps = [basis.representative((n & 3) ^ kv * (n >> 2)) for n in range(8)]
    labels = [(fixing(n), (n,), _field_name([reps[n]])) for n in range(1, 8)]
    # each plane {n1, n2, n1^n2} once, named by its two least classes
    labels += [(fixing(n1, n2), (n1, n2), _field_name(sorted(
                   (reps[n1], reps[n2], reps[n1 ^ n2]), key=_class_order)[:2]))
               for n1, n2 in itertools.combinations(range(1, 8), 2) if n1 ^ n2 > n2]
    labels.append((fixing(1, 2, 4), (1, 2, 4), "Q(i, sqrt(2), sqrt(%s))" % reps[4]))
    labels += [(stabilizer(E, u), label, label) for label, u in (
        ("Q(a)", E.a), ("Q(w*a)", E.monomial(1, 1)),
        ("Q(a+abar)", E.a + E.a_bar), ("Q(a-abar)", E.a - E.a_bar))]
    return {H: (spec, label) for H, spec, label in reversed(labels)}


def search_report(k: Fraction) -> LatticeReport:
    """The lattice report built by the search: each row's primitive element
    by `primitive_element` and its label by `label_table`, in E."""
    E = SplittingField(k)
    table = label_table(E)
    rows = []
    for elements, (normal, gens, _, _) in zip(lattice.SUBGROUPS, lattice._LATTICE):
        label = table.get(frozenset(elements), (None, None))[1]
        rows.append(LatticeRow(elements, len(elements), normal, 16 // len(elements),
                               str(primitive_element(E, elements)), label, gens))
    return LatticeReport(k, tuple(rows))


@lru_cache(maxsize=None)
def reference_mul_table(k: Fraction) -> tuple:
    """Products of basis monomials by the two rules applied one step at a
    time, as (index, Fraction scale): a single monomial times a scalar."""
    table = []
    for i1 in range(16):
        j1, e1 = divmod(i1, 2)
        row = []
        for i2 in range(16):
            j2, e2 = divmod(i2, 2)
            j, e = j1 + j2, e1 + e2
            scale = Fraction(1)
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


@lru_cache(maxsize=None)
def reference_actions(k: Fraction) -> dict:
    """Each automorphism (t, s) as the image (index, Fraction scale) of each
    basis monomial a^j * w^e: the product of j factors a and t*j + s*e
    factors w, multiplied in one at a time by reference_mul_table."""
    table = reference_mul_table(k)
    actions = {}
    for t, s in groups.PAULI_PAIRS:
        images = []
        for j, e in (divmod(idx, 2) for idx in range(16)):
            image = (0, Fraction(1))
            # a is basis monomial 2, w is 1
            for factor in [2] * j + [1] * (t * j + s * e):
                target, scale = table[image[0]][factor]
                image = (target, image[1] * scale)
            images.append(image)
        actions[(t, s)] = tuple(images)
    return actions


def mul(u: FieldElt, v: FieldElt) -> tuple[Fraction, ...]:
    """The coordinates of u * v, multiplied in Fractions by
    reference_mul_table, independent of the package's integer layout."""
    table = reference_mul_table(Fraction(*u.field.k))
    out = [Fraction(0)] * 16
    for i, x in enumerate(u.coeffs):
        for j, y in enumerate(v.coeffs):
            idx, scale = table[i][j]
            out[idx] += x * y * scale
    return tuple(out)


def roots(E: SplittingField) -> list[FieldElt]:
    """The eight roots a * w^m of X^8 + k^2."""
    return [E.monomial(*_MONOMIALS[idx], Fraction(num, den))
            for idx, num, den in (_reduce(E.k, 1, m) for m in range(8))]


def defining_polynomial_check(E: SplittingField) -> bool:
    """Expand prod(X - a*w^m) in exact field arithmetic and compare
    against X^8 + k^2 coefficient-wise."""
    poly = [E.one()]
    for root in roots(E):
        new = [E.zero()] * (len(poly) + 1)
        for i, coeff in enumerate(poly):
            new[i + 1] = new[i + 1] + coeff
            new[i] = new[i] - root * coeff
        poly = new
    want = [E.monomial(0, 0, Fraction(*E.k) ** 2)] + [E.zero()] * 7 + [E.one()]
    return poly == want


def sqrt_of(E: SplittingField, d) -> FieldElt:
    """An exact square root of d, for d in the seven square classes
    {-1, 2, -2, k, -k, 2k, -2k} attached to the field: the product of those
    of i, sqrt(2) and sqrt(k) whose squares multiply to d."""
    k = Fraction(*E.k)
    n = 1 + [-1, 2, -2, k, -k, 2 * k, -2 * k].index(Fraction(d))
    return math.prod((u for bit, u in enumerate((E.i, E.r, E.v2)) if n >> bit & 1),
                     start=E.one())


def degree_counts(report: LatticeReport) -> dict[int, int]:
    """How many proper nontrivial subfields the lattice has of each degree."""
    counts: dict[int, int] = {}
    for row in report.rows:
        if 1 < row.degree < 16:
            counts[row.degree] = counts.get(row.degree, 0) + 1
    return counts


def all_hold(cert: WittCertificate) -> bool:
    return (cert.factorization_holds and cert.beta_matches_matrix_diagonal
            and cert.a_minus_abar_nonzero and cert.generates_E_over_L)


# --- qforms -------------------------------------------------------------------
# a diagonal ternary form is the triple of its nonzero rational coefficients


@lru_cache(maxsize=None)
def _square_set(q: int) -> frozenset:
    return frozenset(z * z % q for z in range(q))


@lru_cache(maxsize=None)
def local_solubility_search(a: int, b: int, p: int) -> bool:
    """Brute-force decision of z^2 = a x^2 + b y^2 over Q_p, independent of
    the symbol formulas: search nonsingular solutions mod p (which lift by
    Hensel), then search primitive solutions mod p^(2B+1), a depth at which
    existence is equivalent to p-adic solubility."""
    a = squarefree_part(Fraction(a)).representative
    b = squarefree_part(Fraction(b)).representative
    # fast path: a zero mod p with nonzero gradient lifts
    squares = {}
    for z in range(p):
        squares.setdefault(z * z % p, z)
    for x in range(p):
        for y in range(p):
            t = (a * x * x + b * y * y) % p
            z = squares.get(t)
            if z is None:
                continue
            if (x % p, y % p, z % p) == (0, 0, 0):
                continue
            if any(g % p for g in (2 * a * x, 2 * b * y, 2 * z)):
                return True
    # primitive search at the certified depth: a primitive solution has a
    # unit coordinate, which scaling normalizes to 1
    B = (1 if p == 2 else 0) + max(valuation(a, p), valuation(b, p))
    q = p ** (2 * B + 1)
    sq = _square_set(q)
    a_sq = {a * s % q for s in sq}
    b_sq = {b * s % q for s in sq}
    if not {(1 - s) % q for s in a_sq}.isdisjoint(b_sq):
        return True  # z = 1
    if not {(a + s) % q for s in b_sq}.isdisjoint(sq):
        return True  # x = 1
    if not {(b + s) % q for s in a_sq}.isdisjoint(sq):
        return True  # y = 1
    return False


def hasse_invariant(f, place: Place) -> int:
    """prod over i < j of (f_i, f_j)_v."""
    a, b, c = f
    return hilbert(a, b, place) * hilbert(a, c, place) * hilbert(b, c, place)


# the per-place route over a `qforms.ClassSpace`, which the space's pair words
# replace: one Hasse invariant and one symbol comparison per relevant place,
# each from the scalar `hilbert` of the classes' representatives


def space_places(space) -> list[Place]:
    """The places of a space's words, in bit order: the real place, then
    each basis prime."""
    return [REAL_PLACE, *map(Place, space.primes)]


def space_equivalent(space, f, g) -> bool:
    """`ClassSpace.equivalent`, one place at a time."""
    if f[0] ^ f[1] ^ f[2] != g[0] ^ g[1] ^ g[2]:
        return False
    if sum(v & 1 for v in f) != sum(v & 1 for v in g):
        return False
    f, g = (tuple(map(space.representative, form)) for form in (f, g))
    return all(hasse_invariant(f, v) == hasse_invariant(g, v) for v in space_places(space))


def space_pauli_embeddable(space, x: int, y: int, z: int) -> bool:
    """`ClassSpace.pauli_embeddable`, one place at a time."""
    return space_equivalent(space, (x, y, x ^ y), (0, z, z))


def space_brauer_condition(space, x: int, y: int, z: int) -> bool:
    """`ClassSpace.brauer_condition`, one place at a time."""
    rep = space.representative
    return all(hilbert(rep(x ^ y ^ z), -1, v) == hilbert(rep(x), rep(y), v)
               for v in space_places(space))


def signature(f) -> tuple[int, int]:
    pos = sum(1 for x in f if x > 0)
    return (pos, 3 - pos)


def discriminant_class(f) -> SquareClass:
    return squarefree_part(math.prod(f))


def isotropic(f) -> bool:
    """Does f represent 0 nontrivially over Q?  Local-global: at the real
    place this means indefinite; at p it means the Hasse invariant equals
    (-1, -disc)_p."""
    if signature(f)[0] in (0, 3):
        return False
    d = math.prod(f)
    for v in relevant_places(*f):
        if v.is_real:
            continue
        if hasse_invariant(f, v) != hilbert(Fraction(-1), -d, v):
            return False
    return True


def isotropy_witness(f, bound: int = 30):
    """A small nontrivial integer zero of f (signs are immaterial for a
    diagonal form), or None within the bound."""
    scale = math.lcm(*(q.denominator for q in f))
    A, B, C = (int(q * scale) for q in f)
    squares = [n * n for n in range(bound + 1)]
    for x in range(bound + 1):
        ax = A * squares[x]
        for y in range(bound + 1):
            target = -(ax + B * squares[y])
            if target % C:
                continue
            t = target // C
            if t < 0 or t > squares[-1]:
                continue
            z = math.isqrt(t)
            if z * z == t and (x, y, z) != (0, 0, 0):
                return (x, y, z)
    return None
