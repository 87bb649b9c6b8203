"""Irreducibility and the complete octic classification."""

import random
from fractions import Fraction as F

import pytest
import reference

from pureoctic import arith, binomial, oracle


def test_irreducibility_examples():
    assert reference.is_irreducible_binomial(8, F(9))
    assert not reference.is_irreducible_binomial(8, F(4))      # c = 4*1^4
    assert not reference.is_irreducible_binomial(8, F(-1))     # -c = 1 square
    assert not reference.is_irreducible_binomial(8, F(64))     # c = 4*2^4
    assert reference.is_irreducible_binomial(3, F(2))
    assert not reference.is_irreducible_binomial(3, F(-8))     # -c = 2^3
    with pytest.raises(ValueError):
        reference.is_irreducible_binomial(8, F(0))


def test_pauli_condition():
    assert binomial.pauli_condition_violation(F(3)) is None
    # 12 = 4*3: square part drops out
    assert binomial.pauli_condition_violation(F(12)) is None
    assert binomial.pauli_condition_violation(F(2)) is not None
    assert binomial.pauli_condition_violation(F(9, 4)) is not None
    assert binomial.pauli_condition_violation(F(8)) is not None  # 2 * 2^2
    assert binomial.pauli_condition_violation(F(-3)) == "k must be positive"
    # the classical infinite family: odd prime powers p^(2v+1)
    for p in (3, 5, 7, 11):
        for v in (0, 1):
            assert binomial.pauli_condition_violation(F(p ** (2 * v + 1))) is None


CLASSIFICATION_VECTOR = {
    F(9): "Pauli", F(25): "Pauli", F(36): "Pauli",
    F(16): "K8",
    F(2): "D16", F(-2): "QD16",
    F(3): "B32",
    F(4): "Reducible", F(-1): "Reducible", F(64): "Reducible",
}


def test_classification_vector():
    for c, want in CLASSIFICATION_VECTOR.items():
        tag = binomial.classify_octic(c)
        assert tag.name == want, f"c={c}"


def test_classification_degrees():
    assert binomial.classify_octic(F(9)).splitting_degree == 16
    assert binomial.classify_octic(F(16)).splitting_degree == 8
    assert binomial.classify_octic(F(2)).splitting_degree == 16
    assert binomial.classify_octic(F(-2)).splitting_degree == 16
    assert binomial.classify_octic(F(3)).splitting_degree == 32
    assert binomial.classify_octic(F(4)).splitting_degree is None
    assert binomial.classify_octic(F(4)).group_order is None
    # |Gal| = [E:Q] agrees with the order of the 8-point model of every class
    for c, name in CLASSIFICATION_VECTOR.items():
        tag = binomial.classify_octic(c)
        if name != "Reducible":
            assert tag.group_order == oracle.model_for_tag(tag).order


def test_classify_rejects_zero():
    with pytest.raises(ValueError):
        binomial.classify_octic(F(0))


def test_scaling_by_eighth_powers_fixes_class():
    # replacing a root a by m*a scales c by m^8 and fixes the splitting field
    rng = random.Random(77)
    for _ in range(120):
        c = F(rng.randint(1, 60) * rng.choice([1, -1]), rng.randint(1, 20))
        m = F(rng.randint(1, 6), rng.randint(1, 6))
        assert binomial.classify_octic(c).name == \
            binomial.classify_octic(c * m ** 8).name


def test_pauli_iff_condition_on_k():
    rng = random.Random(31)
    seen_pauli = 0
    for _ in range(200):
        k = F(rng.randint(1, 400), rng.randint(1, 40))
        is_pauli = binomial.classify_octic(k * k).name == "Pauli"
        assert is_pauli == (binomial.pauli_condition_violation(k) is None)
        seen_pauli += is_pauli
    assert seen_pauli > 100  # the condition is generic


def test_branch_exclusivity_on_grid():
    # no c satisfies two of the square-class predicates simultaneously
    for num in range(-60, 61):
        for den in (1, 2, 3, 4):
            if num == 0:
                continue
            c = F(num, den)
            hits = sum([
                reference.is_fourth_power(c),
                arith.is_square(c / 2),
                arith.is_square(-c / 2),
                not reference.is_fourth_power(c) and arith.is_square(c),
            ])
            assert hits <= 1, f"c={c}"


def test_schinzel_abelian():
    assert reference.schinzel_abelian(8, F(16))    # 16^2 = 2^8
    assert not reference.schinzel_abelian(8, F(9))
    assert reference.schinzel_abelian(4, F(-4))    # 16 = 2^4
    assert reference.schinzel_abelian(2, F(5))     # c^2 always a square
    with pytest.raises(ValueError):
        reference.schinzel_abelian(8, F(0))


def test_schinzel_implies_k8_for_irreducible_octics():
    rng = random.Random(5)
    found = 0
    for _ in range(400):
        c = F(rng.randint(1, 12) ** 4, rng.randint(1, 5) ** 4)
        if not reference.is_irreducible_binomial(8, c):
            continue
        assert reference.schinzel_abelian(8, c)
        assert binomial.classify_octic(c).name == "K8"
        found += 1
    assert found > 50


def irreducibility_report(c):
    """Clause-by-clause irreducibility diagnosis for X^8 + c."""
    mu = arith.nth_root(-c, 2)
    lam = arith.nth_root(c / 4, 4)
    return {
        "square_root_of_minus_c": mu,     # criterion (a) witness, q = 2
        "lambda_with_c_eq_4lambda4": lam,  # criterion (b) witness
        "irreducible": mu is None and lam is None,
    }


def test_irreducibility_report():
    rep = irreducibility_report(F(4))
    assert rep["lambda_with_c_eq_4lambda4"] == 1 and not rep["irreducible"]
    rep = irreducibility_report(F(-9))
    assert rep["square_root_of_minus_c"] == 3
    rep = irreducibility_report(F(9))
    assert rep["irreducible"]
