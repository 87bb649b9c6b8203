"""The mod-p factorization census and its comparison with group models."""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
import reference

from pureoctic import binomial, groups, oracle
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


def test_keyed_degrees_every_residue(monkeypatch):
    # the (p mod 8, ord b) table against Mobius inversion at every nonzero
    # residue of every odd prime below 500; 11 keys occur
    monkeypatch.setattr(oracle, "_DEGREES", {})
    for p in primes_below(500)[1:]:
        for a in range(1, p):
            assert oracle._degrees(a, p) == oracle._frobenius_degrees(a, p), (a, p)
    assert len(oracle._DEGREES) == 11


@pytest.mark.parametrize("c", [F(9), F(-7, 5)])
def test_keyed_degrees_every_good_prime(c):
    for p in primes_below(200000)[1:]:
        if c.numerator % p == 0 or c.denominator % p == 0:
            continue
        a = -c.numerator * pow(c.denominator, -1, p) % p
        assert oracle._degrees(a, p) == oracle._frobenius_degrees(a, p), p


def test_census_fills_the_table_at_most_11_times(monkeypatch):
    calls = []
    frobenius_degrees = oracle._frobenius_degrees

    def counting(a, p):
        calls.append((a, p))
        return frobenius_degrees(a, p)

    monkeypatch.setattr(oracle, "_DEGREES", {})
    monkeypatch.setattr(oracle, "_frobenius_degrees", counting)
    cns = oracle.census(F(9), 200000)
    assert cns.total == len(primes_below(200000)) - 2
    assert 0 < len(calls) <= 11


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
    assert types[(8,)] == F(4, 8)
    assert types[(1,) * 8] == F(1, 8)


def test_group_cycle_types_pauli_model():
    types = oracle.group_cycle_types(groups.pauli_affine_model())
    assert types == {
        (4, 4): F(8, 16),
        (2, 2, 2, 2): F(5, 16),
        (2, 2, 1, 1, 1, 1): F(2, 16),
        (1, 1, 1, 1, 1, 1, 1, 1): F(1, 16),
    }
    # the map m -> 3m+1 is a product of two 4-cycles
    assert groups.Perm([(3 * m + 1) % 8 for m in range(8)]).cycle_type() == (4, 4)


def test_group_cycle_types_wrong_degree():
    with pytest.raises(ValueError):
        oracle.group_cycle_types(groups.pauli_matrix_group())  # 16 points


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
        oracle.consistent(cns, groups.pauli_affine_model(), F(1, 20))


def test_consistent_monotone_in_tolerance():
    cns = oracle.census(F(9), 10000)
    model = groups.pauli_affine_model()
    verdicts = [oracle.consistent(cns, model, t).passed
                for t in (F(1, 1000), F(1, 100), F(1, 20), F(1, 2))]
    assert verdicts == sorted(verdicts)  # False cannot follow True
    assert verdicts[-1]


def test_census_against_all_models():
    cns = oracle.census(F(9), 20000)
    models = oracle.stock_models()
    for name, model in models.items():
        if model is None:
            assert reference.transitive_8pt_obstruction(name) is not None
            continue
        verdict = oracle.consistent(cns, model, F(1, 20))
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
    assert groups.identify(oracle.model_for_tag(tag)) == "D16"
    with pytest.raises(ValueError):
        oracle.model_for_tag("Reducible")


def test_obstruction_table():
    # the 14 groups of order 16, then the five classifier tags
    names = ["C16", "C2^2:C4", "C4:C4", "C4xC2xC2", "C4xC4", "C8xC2", "D16",
             "D8xC2", "E16", "M4(2)", "Pauli", "Q16", "Q8xC2", "QD16",
             "K8", "D16", "QD16", "Pauli", "B32"]
    table = {name: reference.transitive_8pt_obstruction(name) for name in names}
    golden = Path(__file__).parent / "golden" / "obstructions.json"
    assert (json.dumps(table, indent=2) + "\n").encode() == golden.read_bytes()
    assert reference.transitive_8pt_obstruction("nonsense") is None
