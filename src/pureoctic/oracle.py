"""Independent verification of classifier verdicts by factoring X^8 + c
modulo many primes and comparing the factor-degree statistics against the
cycle types of the predicted permutation group (a desk-scale equidistribution
check).

For a good prime p (odd, not dividing c), the multiset of degrees of the
irreducible factors of X^8 + c over F_p equals the cycle type of a Frobenius
element acting on the roots.  Sampling many primes therefore sees every
cycle type of the Galois group with frequency close to its proportion of
group elements, which separates all five classifier outcomes at tolerance
0.05 after a few hundred primes.

No polynomial is factored.  Since X^8 + c is a binomial, its roots in F_q,
q = p^d, are the solutions of x^8 = a with a = -c mod p, and F_q^* is cyclic
of order q - 1: there are g = gcd(8, q - 1) of them when a^((q-1)/g) = 1 and
none otherwise.  For a good prime the polynomial is square-free, so the root
counts over F_p, ..., F_(p^8) determine the factor degrees by Mobius
inversion.  The count rests only on F_q^* being cyclic, never on the
classifier.

The degrees depend only on p mod 8 and on the order of b = a^((p-1)/g),
g = gcd(8, p - 1), and not on scaling a by an 8th power, so `census` takes
x = -num * den^7 = -c * den^8 mod p with no inverse.  One rule serves every
class of p mod 8: b = x^(p >> log2 g), with log2 g read from `_LOG_G`, and
log2 ord b is 0, 1, 2 or 3 as b = 1, b = -1, b^2 = -1 or none of these.  A
good prime costs two remainders, one modular power and at most one
squaring; the census tallies the 11 keys (p mod 8, log2 ord b) and maps
each key it saw to degrees once.

The verdict compares against `CYCLE_TYPE_COUNTS`, a literal table of how
many elements of each cycle type the 8-point model of each classifier
outcome has, so a request builds no group; a test proves the table against
the group engine (`group_cycle_types` of `stock_models()`).  The table
describes the five models, not a verdict, so the oracle stays independent
of the classifier.  Rationals are read only by their numerator and
denominator: frequencies and deviations are reduced pairs
`arith.RationalParts`, compared by cross-multiplication.
"""

import math
from collections import Counter, namedtuple
from functools import lru_cache

from . import MAX_CENSUS_BOUND, arith, binomial

CycleType = tuple[int, ...]


def shape(t: CycleType) -> str:
    """How a cycle type prints: its lengths joined by '+', e.g. 4+4."""
    return "+".join(map(str, t))


# the Mobius function on 1..8 (index 0 unused)
_MOBIUS = (0, 1, -1, -1, 0, -1, 1, -1, 0)


def factor_mod_p(c: "arith.RationalParts", p: int) -> CycleType:
    """Degrees of the irreducible factors of X^8 + c over F_p, decreasing.

    p must be an odd prime coprime to c.
    """
    num, den = c.numerator, c.denominator
    if p == 2 or not arith.is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if num % p == 0 or den % p == 0:
        raise ValueError(f"{p} divides c = {c}: bad prime")
    return _frobenius_degrees(-num * pow(den, -1, p) % p, p)


def _frobenius_degrees(a: int, p: int) -> CycleType:
    """Factor degrees of X^8 - a over F_p for an odd prime p and a nonzero
    residue a, unchecked.  N_d, the number of roots in F_(p^d), is the sum
    of e * (number of degree-e factors) over e | d, which Mobius inversion
    undoes.
    """
    roots = [0]
    for d in range(1, 9):
        q = p ** d
        g = math.gcd(8, q - 1)
        # a lies in F_p^*, so its exponent only matters mod p - 1
        roots.append(g if pow(a, (q - 1) // g % (p - 1), p) == 1 else 0)
    degrees = []
    for e in range(8, 0, -1):
        count = sum(_MOBIUS[e // d] * roots[d] for d in range(1, e + 1) if e % d == 0)
        degrees += [e] * (count // e)
    return tuple(degrees)


# log2 gcd(8, p - 1), indexed by p mod 8
_LOG_G = (0, 3, 0, 1, 0, 2, 0, 1)


# --- census ----------------------------------------------------------------


class Census(namedtuple("Census", "c bound counts total skipped")):
    """Cycle-type counts over all good primes below a bound: counts holds
    (cycle type, count) pairs, total their sum, skipped the bad primes."""

    __slots__ = ()

    def as_text(self) -> str:
        lines = [f"census of {binomial.poly_display(self.c)} over primes < {self.bound}:"
                 f" {self.total} good, skipped {list(self.skipped)}"]
        for t, n in self.counts:
            lines.append(f"  {shape(t):15s} {n:6d}  ({arith.RationalParts(n, self.total)})")
        return "\n".join(lines)


def census(c: "arith.RationalParts", bound: int) -> Census:
    """factor_mod_p over every good prime below the bound (deterministic):
    each sieved prime tallies its key (p mod 8) << 2 | log2(ord b), with no
    primality check.

    Here x = -c * den^8 mod p, b = x^((p-1)/g) and g = gcd(8, p - 1); 11
    keys occur, and each determines `_frobenius_degrees(x, p)`.  Why:
    write x = z^m for a generator z of F_p^*.  X^8 = x has roots in F_(p^d)
    iff v2(g_d) <= v2(m) + v2((p^d - 1)/(p - 1)), g_d = gcd(8, p^d - 1).
    g_d and that valuation, capped at 3, depend only on p mod 8, and
    v2(m) >= v2(g) makes every condition hold, so they see m only through
    min(v2(m), v2(g)) = log2(g / ord b).  ord b divides 8, since b^g = 1.
    """
    num, den = c.numerator, c.denominator
    if num == 0:
        raise ValueError("c must be nonzero")
    if bound < 100:
        raise ValueError("bound must be at least 100")
    if bound > MAX_CENSUS_BOUND:
        raise ValueError(f"bound must be at most {MAX_CENSUS_BOUND}")
    # per key: the number of primes, and the first (x, p) seen
    tally, first = [0] * 32, {}
    primes = arith.primes_below(bound)
    skipped = [2]
    for p in primes[1:]:
        # -c * den^8 mod p, zero iff p divides num or den; reduce num and
        # den first, so a huge c costs two remainders
        x = -(num % p) * (den % p) ** 7 % p
        if not x:
            skipped.append(p)
            continue
        # b = x^((p-1)/g): p = 1 mod g, so p >> log2 g = (p - 1)/g
        b = pow(x, p >> _LOG_G[p & 7], p)
        key = (p & 7) << 2 | (0 if b == 1 else 1 if b == p - 1
                              else 2 if b * b % p == p - 1 else 3)
        if not tally[key]:
            first[key] = x, p
        tally[key] += 1
    counts: Counter = Counter()
    for key, witness in first.items():
        counts[_frobenius_degrees(*witness)] += tally[key]
    ordered = tuple(sorted(counts.items(), reverse=True))
    return Census(c, bound, ordered, len(primes) - len(skipped), tuple(skipped))


def group_cycle_types(G) -> dict[CycleType, arith.RationalParts]:
    """Cycle-type proportions of a `groups.FinGroup` on 8 points."""
    if G.degree != 8:
        raise ValueError("need a permutation group on exactly 8 points")
    counts = Counter(g.cycle_type() for g in G)
    return {t: arith.RationalParts(n, G.order) for t, n in sorted(counts.items(), reverse=True)}


class Verdict(namedtuple("Verdict", "passed worst_deviation worst_type foreign_types")):
    """The result of `consistent`; worst_type is None when every observed
    frequency equals its model proportion."""

    __slots__ = ()

    def __str__(self):
        state = "PASS" if self.passed else "FAIL"
        bits = [state]
        if self.foreign_types:
            shapes = ", ".join(map(shape, self.foreign_types))
            bits.append(f"observed types outside the model: {shapes}")
        if self.worst_type is not None:
            bits.append(f"worst deviation {_decimal(self.worst_deviation)}"
                        f" (= {self.worst_deviation}) at {shape(self.worst_type)}")
        return "; ".join(bits)


def _decimal(q: "arith.RationalParts") -> str:
    """q rounded to four decimal places, a tie to even as `round` does."""
    whole, rest = divmod(q.numerator * 10 ** 4, q.denominator)
    if 2 * rest > q.denominator or 2 * rest == q.denominator and whole % 2:
        whole += 1
    text = f"{whole:05d}"
    return f"{text[:-4]}.{text[-4:]}"


def check_tolerance(tolerance: "arith.RationalParts") -> "arith.RationalParts":
    """The tolerance; ValueError if it is negative, or if it is at least 1,
    which no deviation of a frequency can exceed, so that only a foreign
    type could fail the check."""
    if tolerance.numerator < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    if tolerance.numerator >= tolerance.denominator:
        raise ValueError(f"tolerance must be below 1, got {tolerance}")
    return tolerance


def check_total(total: int) -> None:
    # a verdict needs a census of at least 500 good primes
    if total < 500:
        raise ValueError(f"census of {total} primes is too small (need 500)")


def consistent(cns: Census, model: "dict[CycleType, arith.RationalParts]",
               tolerance: "arith.RationalParts") -> Verdict:
    """PASS iff every observed cycle type occurs in the model, given by its
    cycle-type proportions, and every observed frequency is within the
    absolute tolerance of the model proportion.  Each deviation
    |n/total - m/d| is the pair (|n*d - m*total|, total*d), and pairs
    compare by cross-multiplication."""
    check_total(cns.total)
    check_tolerance(tolerance)
    total = cns.total
    foreign = tuple(t for t, _ in cns.counts if t not in model)
    worst, worst_den, worst_type = 0, 1, None
    for t, n in cns.counts:
        m = model.get(t, arith.RationalParts(0, 1))
        dev, den = abs(n * m.denominator - m.numerator * total), total * m.denominator
        if dev * worst_den > worst * den:
            worst, worst_den, worst_type = dev, den, t
    within = worst * tolerance.denominator <= tolerance.numerator * worst_den
    return Verdict(
        passed=not foreign and within,
        worst_deviation=arith.RationalParts(worst, worst_den),
        worst_type=worst_type,
        foreign_types=foreign,
    )


# --- stock comparison models -------------------------------------------------


# the count of each cycle type in the transitive 8-point model of each
# classifier outcome, summing to the group order
CYCLE_TYPE_COUNTS = {
    binomial.TAG_K8: {(4, 4): 4, (2, 2, 2, 2): 3, (1,) * 8: 1},
    binomial.TAG_D16: {(8,): 4, (4, 4): 2, (2, 2, 2, 2): 5, (2, 2, 2, 1, 1): 4,
                       (1,) * 8: 1},
    binomial.TAG_QD16: {(8,): 4, (4, 4): 6, (2, 2, 2, 2): 1, (2, 2, 2, 1, 1): 4,
                        (1,) * 8: 1},
    binomial.TAG_PAULI: {(4, 4): 8, (2, 2, 2, 2): 5, (2, 2, 1, 1, 1, 1): 2,
                         (1,) * 8: 1},
    binomial.TAG_B32: {(8,): 8, (4, 4): 8, (2, 2, 2, 2): 5, (2, 2, 2, 1, 1): 8,
                       (2, 2, 1, 1, 1, 1): 2, (1,) * 8: 1},
}


def model_cycle_types(name: str) -> dict[CycleType, arith.RationalParts]:
    """Cycle-type proportions of the 8-point model matching the classifier
    tag of that name, read from `CYCLE_TYPE_COUNTS`."""
    if name == binomial.TAG_REDUCIBLE:
        raise ValueError("reducible polynomials have no transitive model")
    counts = CYCLE_TYPE_COUNTS[name]
    order = sum(counts.values())
    return {t: arith.RationalParts(n, order) for t, n in counts.items()}


# the classifier outcomes, then candidate groups with no transitive 8-point model
_CANDIDATES = (binomial.TAG_K8, binomial.TAG_D16, binomial.TAG_QD16,
               binomial.TAG_PAULI, binomial.TAG_B32, "C16", "C8xC2", "Q8xC2")


@lru_cache(maxsize=None)
def stock_models() -> dict:
    """Transitive 8-point models (`groups.FinGroup`s) of the classifier
    outcomes, plus candidate groups that admit no such model (mapped to
    None).  No request builds them: they are the source of
    `CYCLE_TYPE_COUNTS`.

    The transitive models are full affine subgroups of Hol(C8).
    """
    from . import groups
    table = groups.group_models()
    return {name: table[name].model8 for name in _CANDIDATES}
