"""Exact arithmetic substrate: factorization, square classes, symbols."""

import math
import random
from fractions import Fraction as F

import pytest
import reference

from pureoctic import arith


def test_factor_hand_examples():
    assert arith.factor(1) == arith.Factorization(1, ())
    assert arith.factor(-12) == arith.Factorization(-1, ((2, 2), (3, 1)))
    assert arith.factor(2 * 3 ** 2) == arith.Factorization(1, ((2, 1), (3, 2)))


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        arith.factor(0)


def test_factor_roundtrip_random():
    rng = random.Random(12345)
    for _ in range(500):
        n = rng.randint(1, 10 ** 9) * rng.choice([1, -1])
        f = arith.factor(n)
        assert f.sign * math.prod(p ** e for p, e in f.exponents) == n
        assert all(arith.is_prime(p) for p, _ in f.exponents)
        assert all(e != 0 for _, e in f.exponents)
        primes = [p for p, _ in f.exponents]
        assert primes == sorted(primes)


def test_factor_large_semiprime():
    p, q = 1000003, 1000033
    f = arith.factor(p * q)
    assert dict(f.exponents) == {p: 1, q: 1}


def test_is_prime_beyond_proven_small_base_range():
    m89 = 2 ** 89 - 1  # Mersenne prime, above the 12-base proven bound
    assert arith.is_prime(m89)
    assert not arith.is_prime(m89 * m89)
    assert not arith.is_prime(m89 + 2)


def test_squarefree_part_examples():
    assert arith.squarefree_part(F(9)).representative == 1
    assert arith.squarefree_part(F(-2)).representative == -2
    assert arith.squarefree_part(F(8, 25)).representative == 2


def test_squarefree_part_properties_random():
    rng = random.Random(999)
    for _ in range(500):
        q = F(rng.randint(1, 5000) * rng.choice([1, -1]), rng.randint(1, 5000))
        t = arith.squarefree_part(q).representative
        # q / t is a square and t is square-free
        assert arith.is_square(q / t)
        assert all(e == 1 for _, e in arith.factor(abs(t)).exponents) or abs(t) == 1
        m = rng.randint(1, 60)
        assert arith.squarefree_part(q * m * m).representative == t


def test_is_square_iff_trivial_class():
    rng = random.Random(4)
    for _ in range(200):
        q = F(rng.randint(1, 2000), rng.randint(1, 2000))
        assert arith.is_square(q) == (arith.squarefree_part(q).representative == 1)


def test_square_and_fourth_power_examples():
    assert arith.is_square(F(16)) and reference.is_fourth_power(F(16))
    assert arith.is_square(F(4)) and not reference.is_fourth_power(F(4))
    assert not arith.is_square(F(2, 9)) and not reference.is_fourth_power(F(2, 9))
    assert arith.is_square(F(0))
    assert not arith.is_square(F(-4))
    assert arith.nth_root(F(-8, 27), 3) == F(-2, 3)


def test_valuation():
    assert reference.valuation(F(12), 2) == 2
    assert reference.valuation(F(12), 3) == 1
    assert reference.valuation(F(5, 8), 2) == -3
    with pytest.raises(ValueError):
        reference.valuation(F(12), 4)
    with pytest.raises(ValueError):
        reference.valuation(F(0), 2)


def test_legendre_against_enumeration():
    # oracle: enumerate the squares mod p directly
    for p in (3, 5, 7, 11, 13, 17, 19):
        squares = {x * x % p for x in range(1, p)}
        for a in range(-30, 31):
            want = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert arith.legendre(a, p) == want
    assert arith.legendre(2, 3) == -1
    assert arith.legendre(5, 3) == -1
    with pytest.raises(ValueError):
        arith.legendre(1, 2)


def test_primes_below():
    assert arith.primes_below(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(arith.primes_below(50000)) == 5133


def test_primes_below_against_trial_division():
    by_trial = [n for n in range(2, 2000)
                if all(n % d for d in range(2, math.isqrt(n) + 1))]
    for bound in range(2001):  # 0, 1, 2, 3, 4 and every bound up to 2000
        assert arith.primes_below(bound) == [p for p in by_trial if p < bound]


def test_parse_rational():
    assert arith.parse_rational("-3/4") == F(-3, 4)
    assert arith.parse_rational("17") == F(17)
    with pytest.raises(ValueError):
        arith.parse_rational("x")
    with pytest.raises(ValueError):
        arith.parse_rational("1/0")
    for literal in ("1e3", "0.5", "1."):
        with pytest.raises(ValueError):
            arith.parse_rational(literal)
    assert arith.parse_rational("1_000") == 1000
    assert arith.parse_rational("-1_2/3_0") == F(-2, 5)
    for literal in ("1__0", "_1"):
        with pytest.raises(ValueError, match="not a rational number"):
            arith.parse_rational(literal)


@pytest.mark.parametrize("k", [3, 4, 5, 8])
def test_iroot_floor_up_to_1e1000(k):
    rng = random.Random(k)
    values = [10 ** e + d for e in (20, 120, 308, 309, 400, 1000) for d in (-1, 0, 1)]
    values += [(10 ** 30 + 12345) ** k + d for d in (-1, 0, 1)]
    values += [rng.randrange(10 ** 999, 10 ** 1000) for _ in range(10)]
    values += [r ** k + d for r in (2, 3, rng.randrange(10 ** 150)) for d in (-1, 0, 1)]
    for n in values:
        r, exact = arith._iroot(n, k)
        assert r ** k <= n < (r + 1) ** k
        assert exact == (r ** k == n)
    # nth_root round-trips signed fractions whose k-th powers reach 10^1000
    bound = 10 ** (1000 // k)
    fractions = [F(bound), F(-1, bound), F(bound - 1, bound), F(-bound, bound - 1)]
    fractions += [F(rng.choice((1, -1)) * rng.randint(1, bound), rng.randint(1, bound))
                  for _ in range(20)]
    for x in fractions:
        assert arith.nth_root(x ** k, k) == (x if k % 2 else abs(x))
        if k % 2 == 0:
            assert arith.nth_root(-(x ** k), k) is None


def test_linalg_solve_and_span():
    from fractions import Fraction
    from pureoctic import linalg
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.rank(rows) == 1
    assert linalg.in_span([(Fraction(1), Fraction(0))], (Fraction(5), Fraction(0)))
    assert not linalg.in_span([(Fraction(1), Fraction(0))], (Fraction(0), Fraction(1)))
    assert linalg.nullspace([[Fraction(1), Fraction(1)]], 2) == \
        [(Fraction(-1), Fraction(1))]


def test_factor_brent_rho_past_trial_division():
    for p, q in ((1000000007, 1000000009), (274177, 67280421310721)):
        assert dict(arith.factor(p * q).exponents) == {p: 1, q: 1}


def test_factor_budget_raises_a_value_error():
    # 2^61 - 1 is far beyond what rho finds within its budget
    with pytest.raises(arith.FactoringError, match="cannot factor"):
        arith.factor((2 ** 61 - 1) * (2 ** 89 - 1))
    assert issubclass(arith.FactoringError, ValueError)


def test_factor_splits_two_13_digit_primes():
    # rho needs about 7 * 10^7 of its 2 * 10^8 budget units here
    p, q = 3896947605673, 4174304656513
    assert dict(arith.factor(p * q).exponents) == {p: 1, q: 1}


def test_square_class_product_needs_no_factoring(monkeypatch):
    six, m10_3 = arith.squarefree_part(F(6)), arith.squarefree_part(F(-10, 3))
    assert (six.representative, six.primes) == (6, (2, 3))
    monkeypatch.setattr(arith, "factor", None)
    basis = arith.PrimeBasis([six, m10_3])
    prod = basis.vectors[0] ^ basis.vectors[1]
    assert basis.representative(prod) == -5
    assert basis.vector(F(-5)) == prod
    assert prod ^ prod == 0


def test_prime_basis_vectors():
    basis = arith.PrimeBasis(map(arith.squarefree_part, [F(-12, 5), F(50), F(9, 49)]))
    assert basis.primes == (2, 3, 5)
    # bit 0 the sign, then 2, 3, 5
    assert basis.vectors == (0b1101, 0b0010, 0)
    assert [basis.representative(v) for v in basis.vectors] == [-15, 2, 1]
    assert basis.representative(basis.vectors[0] ^ basis.vectors[1]) == -30
    assert arith.f2_rank(basis.vectors) == 2
    # a class in the span is found by dividing by the basis primes alone
    assert basis.vector(F(-12, 5) * 50 * 49) == basis.vectors[0] ^ basis.vectors[1]
    assert basis.vector(F(-45, 4)) == 0b1001
    with pytest.raises(ValueError, match="outside the basis"):
        basis.vector(F(14))
    with pytest.raises(ValueError, match="0 has no square-free part"):
        basis.vector(F(0))
