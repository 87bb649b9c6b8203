"""The quaternion-embedding machinery over Q(sqrt(-2)): the explicit
change-of-basis matrix and the square-root generator of E over L."""

from fractions import Fraction as F

import pytest
import reference

from pureoctic.groups import affine_map
from pureoctic.splitting import (
    QuadExtElt,
    SplittingField,
    witt_T,
    witt_beta_rho,
    witt_matrix_identities,
)


def test_quad_ext_arithmetic():
    s = QuadExtElt.of(0, 1)          # sqrt(-2)
    assert s * s == QuadExtElt.of(-2)
    u = QuadExtElt.of(F(1, 2), F(-3))
    assert u * QuadExtElt(u.x, -u.y) == QuadExtElt.of(F(1, 4) + 2 * 9)
    assert (u - u) == QuadExtElt.of(0)
    assert str(s) == "1*sqrt(-2)"


@pytest.mark.parametrize("k", [F(3), F(5), F(7), F(12), F(5, 3)])
def test_matrix_identities(k):
    checks = witt_matrix_identities(k)
    assert checks["det_is_one"]
    assert checks["congruence_is_identity"]


def test_matrix_rejects_bad_k():
    with pytest.raises(ValueError):
        witt_T(F(4))
    with pytest.raises(ValueError):
        witt_T(F(8))


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
    assert cert.rho == QuadExtElt.of(0, -4 * k)
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
