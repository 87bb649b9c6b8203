"""The quaternion-embedding machinery over Q(sqrt(-2)): the explicit
change-of-basis matrix and the square-root generator of E over L."""

from fractions import Fraction as F

import pytest
import reference

from pureoctic.groups import affine_map
from pureoctic.splitting import SplittingField, witt_beta_rho


@pytest.mark.parametrize("k", [F(3), F(5), F(7), F(12), F(5, 3)])
def test_matrix_identities(k):
    cert = witt_beta_rho(SplittingField(k))
    assert cert.det_is_one
    assert cert.congruence_is_identity


def test_matrix_rejects_bad_k():
    with pytest.raises(ValueError):
        SplittingField(F(4))
    with pytest.raises(ValueError):
        SplittingField(F(8))


@pytest.mark.parametrize("k", [F(3), F(5)])
def test_beta_rho_certificate(k):
    field = SplittingField(k)
    cert = witt_beta_rho(field)
    assert cert.factorization_holds
    assert cert.beta_matches_matrix_diagonal
    assert cert.a_minus_abar_nonzero
    assert cert.generates_E_over_L
    assert reference.all_hold(cert)
    # rho = -4k * sqrt(-2)
    assert cert.rho == -4 * k
    # the square root changes sign under the L-fixing involution, so it
    # cannot lie in the fixed subspace of Gal(E/L)
    flip = field.apply(affine_map(4, 1), cert.sqrt_rho_beta)
    assert flip == -cert.sqrt_rho_beta and not cert.sqrt_rho_beta.is_zero()


def test_beta_explicit_expansion():
    # beta = 1 - (1/2)sqrt2 - (K/2k)sqrtk + (K/2k)sqrt2k for k = 3, K = 7/2
    field = SplittingField(F(3))
    cert = witt_beta_rho(field)
    K = F(7, 2)
    expected = (field.one() - F(1, 2) * field.r - (K / 6) * field.v2
                + (K / 6) * (field.r * field.v2))
    assert cert.beta == expected
