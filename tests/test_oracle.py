"""The mod-p factorization census and its comparison with group models."""

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
import reference
from hypothesis import given, settings, strategies as st

from pureoctic import arith, binomial, groups, lattice, oracle
from pureoctic.arith import primes_below


# --- exhaustive trial division over F_p: the independent reference ----------
# Dense polynomials over F_p are ascending coefficient lists.


def _trim(poly):
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_divmod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    quotient = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        factor = f[-1] * inv_lead % p
        quotient[shift] = factor
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - factor * gc) % p
        _trim(f)
    return _trim(quotient), f


def _is_irreducible_small(f, p):
    deg = len(f) - 1
    if deg == 1:
        return True
    for code in range(p, p ** ((deg // 2) + 1)):
        cand = []
        x = code
        while x:
            cand.append(x % p)
            x //= p
        if len(cand) - 1 < 1 or cand[-1] == 0:
            continue
        if len(cand) - 1 > deg // 2:
            break
        inv = pow(cand[-1], p - 2, p)
        cand = [ci * inv % p for ci in cand]
        if not _poly_divmod(f, cand, p)[1]:
            return False
    return True


def brute_force_factor_degrees(c, p):
    """Factor degrees of X^8 + c by exhaustive trial division over F_p
    (p small)."""
    c = F(c)
    cbar = c.numerator * pow(c.denominator, p - 2, p) % p
    f = [cbar] + [0] * 7 + [1]
    degrees = []
    d = 1
    while len(f) - 1 > 1:
        if d > (len(f) - 1) // 2:
            break
        found = False
        # monic candidates of degree d, low coefficients counting in base p
        for code in range(p ** d):
            cand = []
            x = code
            for _ in range(d):
                cand.append(x % p)
                x //= p
            cand.append(1)
            q, rem = _poly_divmod(f, cand, p)
            if not rem and _is_irreducible_small(cand, p):
                f = q
                degrees.append(d)
                found = True
                break
        if not found:
            d += 1
    if len(f) - 1 > 0:
        degrees.append(len(f) - 1)
    return tuple(sorted(degrees, reverse=True))


def test_factor_mod_p_frozen_example():
    # X^8 - 1 over F_3: (x-1)(x+1)(x^2+1) and x^4+1 splits into two quadratics
    assert oracle.factor_mod_p(F(-1), 3) == (2, 2, 2, 1, 1)


def test_factor_mod_p_split_case():
    # all eight roots exist mod p when p = 1 mod 8 and -c is an 8th power
    for p in (17, 41, 97, 113):
        assert oracle.factor_mod_p(F(-1), p) == (1,) * 8


def test_factor_mod_p_rejects_bad_primes():
    with pytest.raises(ValueError):
        oracle.factor_mod_p(F(9), 3)
    with pytest.raises(ValueError):
        oracle.factor_mod_p(F(5, 7), 7)
    with pytest.raises(ValueError):
        oracle.factor_mod_p(F(9), 2)
    with pytest.raises(ValueError):
        oracle.factor_mod_p(F(9), 15)


def test_factor_mod_p_against_brute_force():
    # independent oracle: exhaustive trial division over small fields
    rng = random.Random(303)
    cs = [F(9), F(2), F(-2), F(3), F(16), F(5, 7), F(-11, 3)]
    cs += [F(rng.randint(-40, 40) or 1, rng.randint(1, 10)) for _ in range(15)]
    for c in cs:
        for p in (3, 5, 7, 11):
            if c.numerator % p == 0 or c.denominator % p == 0:
                continue
            assert oracle.factor_mod_p(c, p) == \
                brute_force_factor_degrees(c, p), (c, p)


def _frobenius_key(x, p):
    """The census's key of a nonzero residue x mod an odd prime p, computed
    from its definition: (p mod 8) << 2 | log2(ord b), b = x^((p-1)/g),
    g = gcd(8, p - 1), with ord b found by squaring.  Asserts on the way
    that `oracle._LOG_G` holds log2 g."""
    g = math.gcd(8, p - 1)
    assert oracle._LOG_G[p % 8] == g.bit_length() - 1, p
    b, log_order = pow(x, (p - 1) // g, p), 0
    while b != 1:
        b, log_order = b * b % p, log_order + 1
    return p % 8 << 2 | log_order


def _key_table(primes):
    """The degrees of every key seen over every nonzero residue of each
    prime, asserting on the way that the key determines them."""
    table = {}
    for p in primes:
        for a in range(1, p):
            degrees = oracle._frobenius_degrees(a, p)
            assert table.setdefault(_frobenius_key(a, p), degrees) == degrees, (a, p)
    return table


def test_keyed_degrees_every_residue():
    # the (p mod 8, ord b) key against Mobius inversion at every nonzero
    # residue of every odd prime below 500; 11 keys occur
    assert len(_key_table(primes_below(500)[1:])) == 11


@pytest.mark.parametrize("c", [F(9), F(-7, 5)])
def test_keyed_degrees_every_good_prime(c):
    # the census's residue -num * den^7 has the key of -c, and that key
    # determines the degrees at every good prime below 2 * 10^5
    table = _key_table(primes_below(60)[1:])
    num, den = c.numerator, c.denominator
    for p in primes_below(200000)[1:]:
        if num % p == 0 or den % p == 0:
            continue
        a = -num * pow(den, -1, p) % p
        x = -(num % p) * (den % p) ** 7 % p
        key = _frobenius_key(x, p)
        assert key == _frobenius_key(a, p), p
        assert table[key] == oracle._frobenius_degrees(a, p), p


def test_census_fills_the_table_at_most_11_times(monkeypatch):
    calls = []
    frobenius_degrees = oracle._frobenius_degrees

    def counting(a, p):
        calls.append((a, p))
        return frobenius_degrees(a, p)

    monkeypatch.setattr(oracle, "_frobenius_degrees", counting)
    cns = oracle.census(F(9), 200000)
    assert cns.total == len(primes_below(200000)) - 2
    assert 0 < len(calls) <= 11


def test_census_takes_no_inverse(monkeypatch):
    # one modular power per good prime and 8 per key mapped to degrees:
    # a work count, so a regression shows without any timing
    calls = []

    def counting(*args):
        calls.append(args)
        return pow(*args)

    want = reference.reference_census(F(-7, 5), 20000)
    monkeypatch.setattr(oracle, "pow", counting, raising=False)
    cns = oracle.census(F(-7, 5), 20000)
    assert cns == want
    assert not [args for args in calls if args[1] == -1]
    assert len(calls) <= cns.total + 8 * 11


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@st.composite
def _rationals(draw):
    """Nonzero c with numerators up to 10^40 and denominators up to 10^25,
    often with small prime factors forced in, so bad primes occur."""
    num = draw(st.integers(1, 10 ** 40)) * draw(st.sampled_from((1, -1)))
    den = draw(st.integers(1, 10 ** 25))
    for p in draw(st.lists(st.sampled_from(_SMALL_PRIMES), max_size=3)):
        num *= p
    for p in draw(st.lists(st.sampled_from(_SMALL_PRIMES), max_size=3)):
        den *= p
    return F(num, den)


@settings(max_examples=60, deadline=None)
@given(_rationals(), st.integers(100, 3000))
def test_census_matches_reference(c, bound):
    assert oracle.census(c, bound) == reference.reference_census(c, bound)


def test_census_of_huge_c_matches_reference():
    rng = random.Random(4300)
    c = F(-rng.randrange(10 ** 3999, 10 ** 4000), rng.randrange(10 ** 3999, 10 ** 4000))
    assert oracle.census(c, 2000) == reference.reference_census(c, 2000)


def test_census_skips_bad_primes_of_every_class():
    # the bad primes 3..23 fall in every class of p mod 8
    c = F(3 * 5 * 7 * 17, 11 * 13 * 19 * 23)
    cns = oracle.census(c, 20000)
    assert cns == reference.reference_census(c, 20000)
    assert cns.skipped == (2, 3, 5, 7, 11, 13, 17, 19, 23)


def test_census_of_a_4000_digit_denominator_matches_reference():
    c = F(-7, random.Random(4301).randrange(10 ** 3999, 10 ** 4000))
    assert oracle.census(c, 20000) == reference.reference_census(c, 20000)


def test_degrees_always_sum_to_eight():
    rng = random.Random(99)
    for _ in range(60):
        c = F(rng.randint(-99, 99) or 7, rng.randint(1, 9))
        p = random.Random(rng.random()).choice([5, 7, 11, 13, 19, 23])
        if c.numerator % p == 0 or c.denominator % p == 0:
            continue
        assert sum(oracle.factor_mod_p(c, p)) == 8


def test_group_cycle_types_regular_c8():
    c8 = groups.affine_group_mod8([(t, 1) for t in range(8)])
    types = oracle.group_cycle_types(c8)
    assert set(types) == {(1,) * 8, (2,) * 4, (4, 4), (8,)}
    assert F(*types[(8,)]) == F(4, 8)
    assert F(*types[(1,) * 8]) == F(1, 8)


def test_group_cycle_types_pauli_model():
    types = oracle.group_cycle_types(groups.group_models()["Pauli"].model8)
    assert {t: F(*r) for t, r in types.items()} == {
        (4, 4): F(8, 16),
        (2, 2, 2, 2): F(5, 16),
        (2, 2, 1, 1, 1, 1): F(2, 16),
        (1, 1, 1, 1, 1, 1, 1, 1): F(1, 16),
    }
    # the map m -> 3m+1 is a product of two 4-cycles
    assert groups.Perm([(3 * m + 1) % 8 for m in range(8)]).cycle_type() == (4, 4)


def test_group_cycle_types_wrong_degree():
    with pytest.raises(ValueError):
        oracle.group_cycle_types(groups.closure(groups._cycles(16)))  # 16 points


def test_census_bookkeeping():
    cns = oracle.census(F(9), 200)
    good = [p for p in primes_below(200) if p not in (2, 3)]
    assert cns.total == len(good)
    assert cns.skipped == (2, 3)
    assert sum(n for _, n in cns.counts) == cns.total
    with pytest.raises(ValueError):
        oracle.census(F(9), 50)
    with pytest.raises(ValueError, match="at most"):  # before the sieve runs
        oracle.census(F(9), oracle.MAX_CENSUS_BOUND + 1)
    with pytest.raises(ValueError):
        oracle.census(F(0), 1000)


def test_census_golden():
    # census(c, 20000) for eight c, recorded from the distinct-degree
    # factorization that root counting replaced
    table = {}
    for c in ("9", "25", "2", "-2", "3", "16", "-7/5", "12345"):
        cns = oracle.census(F(c), 20000)
        table[c] = {"counts": [["+".join(map(str, t)), n] for t, n in cns.counts],
                    "total": cns.total, "skipped": list(cns.skipped)}
    golden = Path(__file__).parent / "golden" / "census.json"
    assert (json.dumps(table, indent=2) + "\n").encode() == golden.read_bytes()


def test_census_deterministic():
    assert oracle.census(F(2), 1500) == oracle.census(F(2), 1500)


def test_consistent_requires_samples():
    cns = oracle.census(F(9), 1000)  # 167 good primes
    with pytest.raises(ValueError):
        oracle.consistent(cns, oracle.group_cycle_types(groups.group_models()["Pauli"].model8),
                          F(1, 20))


def test_consistent_refuses_a_tolerance_no_deviation_can_exceed():
    # a frequency and a model proportion both lie in [0, 1]
    cns = oracle.census(F(9), 5000)
    model = oracle.model_cycle_types("Pauli")
    for tolerance in (F(1), F(10), F(3, 2)):
        with pytest.raises(ValueError, match="tolerance must be below 1"):
            oracle.consistent(cns, model, tolerance)
    assert oracle.check_tolerance(F(999, 1000)) == F(999, 1000)


def test_consistent_monotone_in_tolerance():
    cns = oracle.census(F(9), 10000)
    model = oracle.group_cycle_types(groups.group_models()["Pauli"].model8)
    verdicts = [oracle.consistent(cns, model, t).passed
                for t in (F(1, 1000), F(1, 100), F(1, 20), F(1, 2))]
    assert verdicts == sorted(verdicts)  # False cannot follow True
    assert verdicts[-1]


# --- metamorphic checks ----------------------------------------------------

_PRIMES_PAST = [p for p in primes_below(30000) if p >= 3000]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.builds(F, st.integers(-10 ** 9, 10 ** 9).filter(bool), st.integers(1, 10 ** 6)),
       st.sampled_from(_PRIMES_PAST), st.booleans())
def test_census_ignores_an_eighth_power_of_a_large_prime(c, q, divide):
    # q^8 is an eighth power mod every prime p < q, so it changes no factor
    # degree, and q >= the bound is no bad prime
    scaled = c / q ** 8 if divide else c * q ** 8
    want, got = oracle.census(c, 3000), oracle.census(scaled, 3000)
    assert (got.counts, got.total, got.skipped) == (want.counts, want.total, want.skipped)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(-10 ** 9, 10 ** 9).filter(bool), st.integers(1, 10 ** 6))
def test_census_of_int_fraction_and_pair_agree(num, den):
    c = F(num, den)
    forms = [c, arith.RationalParts(c.numerator, c.denominator)]
    forms += [c.numerator] if c.denominator == 1 else []
    results = {(cns[1:], cns.as_text())
               for cns in (oracle.census(x, 3000) for x in forms)}
    assert len(results) == 1
    p = next(p for p in primes_below(3000)[1:] if num % p and den % p)
    assert len({oracle.factor_mod_p(x, p) for x in forms}) == 1


# --- the verdict in integer pairs against the verdict in Fractions ----------

_TYPES = sorted({t for counts in oracle.CYCLE_TYPE_COUNTS.values() for t in counts})
_PAULI = oracle.CYCLE_TYPE_COUNTS[binomial.TAG_PAULI]


def _census(counts: dict) -> oracle.Census:
    # a census with the given counts, ordered as `oracle.census` orders them
    return oracle.Census(F(9), 0, tuple(sorted(counts.items(), reverse=True)),
                         sum(counts.values()), ())


def _tied_census(k: int) -> oracle.Census:
    # 20000 primes off the Pauli proportions by k at (4, 4) and (2, 2, 2, 2):
    # for an odd k the worst deviation, k/20000 at 4+4, is a tie at the
    # fourth decimal place
    counts = {t: 20000 * n // 16 for t, n in _PAULI.items()}
    counts[(4, 4)] += k
    counts[(2, 2, 2, 2)] -= k
    return _census(counts)


_CENSUSES = st.one_of(
    st.integers(0, 1999).map(lambda i: _tied_census(2 * i + 1)),
    st.dictionaries(st.sampled_from(_TYPES), st.integers(1, 30000), min_size=1)
    .filter(lambda counts: sum(counts.values()) >= 500).map(_census))
_MODELS = st.one_of(
    st.sampled_from(list(oracle.CYCLE_TYPE_COUNTS)).map(oracle.model_cycle_types),
    st.dictionaries(st.sampled_from(_TYPES), st.integers(1, 50), min_size=1).map(
        lambda w: {t: F(n, sum(w.values())) for t, n in w.items()}))
_TOLERANCES = st.one_of(
    st.sampled_from((F(0), F(1, 20), F(1, 20000), F(3, 20000), F(999, 1000))),
    st.builds(F, st.integers(0, 10 ** 4), st.integers(1, 10 ** 4)).filter(lambda q: q < 1))


def _pair(q) -> tuple:
    # q as the reduced pair `rational_parts` gives
    return arith.RationalParts(q.numerator, q.denominator)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_CENSUSES, _MODELS, _TOLERANCES, st.data())
def test_consistent_matches_the_fraction_verdict(cns, model, tolerance, data):
    # the pair arithmetic of `consistent` and `_decimal` gives the verdict
    # the Fraction arithmetic gave, on Fraction and pair models and
    # tolerances alike, exact ties and a tolerance equal to the worst
    # deviation included
    fractions = {t: F(*_pair(q)) for t, q in model.items()}
    worst = reference.consistent(cns, fractions, F(0))[1]
    if worst < 1 and data.draw(st.booleans()):
        tolerance = worst
    want_passed, _, want_text = reference.consistent(cns, fractions, tolerance)
    for convert in (_pair, lambda q: F(*_pair(q))):
        verdict = oracle.consistent(cns, {t: convert(q) for t, q in model.items()},
                                    convert(tolerance))
        assert (verdict.passed, str(verdict)) == (want_passed, want_text)
        assert F(*verdict.worst_deviation) == worst


@pytest.mark.parametrize("k, text", [(1, "0.0000"), (3, "0.0002"), (5, "0.0002"),
                                     (7, "0.0004"), (3999, "0.2000")])
def test_a_tied_worst_deviation_rounds_half_to_even(k, text):
    worst = F(k, 20000)
    verdict = oracle.consistent(_tied_census(k), oracle.model_cycle_types("Pauli"),
                                _pair(worst))
    assert verdict.passed
    assert str(verdict) == f"PASS; worst deviation {text} (= {worst}) at 4+4"
    assert reference.decimal(worst) == text


def test_census_against_all_models():
    cns = oracle.census(F(9), 20000)
    models = oracle.stock_models()
    for name, model in models.items():
        if model is None:
            assert reference.transitive_8pt_obstruction(name) is not None
            continue
        verdict = oracle.consistent(cns, oracle.group_cycle_types(model), F(1, 20))
        assert verdict.passed == (name == "Pauli"), name


def test_abelian_census_has_uniform_parts():
    cns = oracle.census(F(16), 10000)
    for t, _ in cns.counts:
        assert len(set(t)) == 1, t


def test_stock_models_fingerprints():
    models = oracle.stock_models()
    assert groups.identify(models["K8"]) == "C4xC2"
    assert groups.identify(models["D16"]) == "D16"
    assert groups.identify(models["QD16"]) == "QD16"
    assert groups.identify(models["Pauli"]) == "Pauli"
    assert groups.identify(models["B32"]) == "B32"
    for name in ("C16", "C8xC2", "Q8xC2"):
        assert models[name] is None


def test_model_for_tag():
    tag = binomial.classify_octic(F(2))
    assert groups.identify(oracle.stock_models()[tag.name]) == "D16"
    with pytest.raises(ValueError, match="no transitive model"):
        oracle.model_cycle_types("Reducible")


def test_cycle_type_table_is_the_models():
    # the literal table a request reads, derived from the group engine: the
    # counts of each outcome's 8-point model, summing to its group order
    models = oracle.stock_models()
    tags = [binomial.classify_octic(F(c)) for c in (16, 2, -2, 9, 3)]
    assert [tag.name for tag in tags] == list(oracle.CYCLE_TYPE_COUNTS)
    for tag in tags:
        counts = oracle.CYCLE_TYPE_COUNTS[tag.name]
        order = sum(counts.values())
        assert order == tag.splitting_degree == models[tag.name].order
        want = oracle.group_cycle_types(models[tag.name])
        assert {t: F(n, order) for t, n in counts.items()} == {
            t: F(*r) for t, r in want.items()}
        assert oracle.model_cycle_types(tag.name) == want


def test_obstruction_table():
    # the 14 groups of order 16, then the five classifier tags
    names = ["C16", "C2^2:C4", "C4:C4", "C4xC2xC2", "C4xC4", "C8xC2", "D16",
             "D8xC2", "E16", "M4(2)", "Pauli", "Q16", "Q8xC2", "QD16",
             "K8", "D16", "QD16", "Pauli", "B32"]
    table = {name: reference.transitive_8pt_obstruction(name) for name in names}
    golden = Path(__file__).parent / "golden" / "obstructions.json"
    assert (json.dumps(table, indent=2) + "\n").encode() == golden.read_bytes()
    assert reference.transitive_8pt_obstruction("nonsense") is None


# --- the classifier against Frobenius ----------------------------------------

# k > 0 with a small numerator and denominator, neither a square nor twice one
_PAULI_K = st.builds(F, st.integers(1, 999), st.integers(1, 99)).filter(
    lambda k: lattice.pauli_condition_violation(k) is None)
_D = st.builds(F, st.integers(1, 99), st.integers(1, 20))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_D, _PAULI_K, st.builds(F, st.integers(-10 ** 6, 10 ** 6).filter(bool),
                               st.integers(1, 10 ** 3)))
def test_no_frobenius_outside_the_verdict(d, k, generic):
    # Frobenius at a good prime lies in the Galois group, so a census cycle
    # type outside the verdict's model would disprove the verdict
    built = [(binomial.TAG_REDUCIBLE, -d ** 2), (binomial.TAG_REDUCIBLE, 4 * d ** 4),
             (binomial.TAG_K8, d ** 4), (binomial.TAG_D16, 2 * d ** 2),
             (binomial.TAG_QD16, -2 * d ** 2), (binomial.TAG_PAULI, k ** 2),
             (None, generic)]
    for branch, c in built:
        tag = binomial.classify_octic(c).name
        if branch is not None:
            assert tag == branch, c
        if tag == binomial.TAG_REDUCIBLE:
            continue
        types = {t for t, _ in oracle.census(c, 3000).counts}
        assert types <= set(oracle.CYCLE_TYPE_COUNTS[tag]), (c, tag)
