"""
Long-run MA structure: sum operator, the two-sided decomposition into a
permanent loading plus differenced remainder, and the covariance check.
The attractor/cointegration duality is checked here on a fixed long-run
operator and on represent's output in the CLI suite.
"""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grjkit.cointegration import (
    MaRepresentation,
    annihilators,
    beveridge_nelson,
    positive_definite_check,
)
from grjkit.numfield import range_basis


def geometric_ma(rho=0.5, terms=7, dim=2):
    coeffs = [rho ** j * np.eye(dim) for j in range(terms)]
    return MaRepresentation(coeffs=coeffs)


def test_sum_operator():
    ma = geometric_ma()
    expected = sum(0.5 ** j for j in range(7))
    assert_allclose(ma.sum_operator, expected * np.eye(2), atol=1e-14)


def test_bn_geometric_closed_form():
    """For a_j = rho^j I, j = 0..J, the decomposition is exact:
    A = sum_j a_j and atilde_j = -(rho^j - rho^J) I."""
    rho, last = 0.5, 6
    ma = geometric_ma()
    bn = beveridge_nelson(ma)
    assert_allclose(bn.a_operator, ma.sum_operator, atol=1e-14)
    for j, tilde in enumerate(bn.tilde_coeffs):
        target = -(rho ** j - rho ** last)
        assert_allclose(tilde, target * np.eye(2), atol=1e-13)


def test_bn_generating_function_identity():
    """a(z) = A + (1 - z) atilde(z): the convention-free statement."""
    ma = geometric_ma()
    bn = beveridge_nelson(ma)
    for z in (0.0, 0.3, -0.8, 0.37 + 0.21j, 1.0):
        a_z = sum(c * z ** j for j, c in enumerate(ma.coeffs))
        t_z = sum(c * z ** j for j, c in enumerate(bn.tilde_coeffs))
        assert_allclose(a_z, bn.a_operator + (1 - z) * t_z, atol=1e-12)


def test_bn_tilde_telescopes_partial_sums():
    ma = geometric_ma()
    bn = beveridge_nelson(ma)
    # atilde_j = -(sum of a_k for k > j) for a summable family
    for j in range(len(bn.tilde_coeffs)):
        tail = sum(ma.coeffs[j + 1:], start=np.zeros((2, 2)))
        assert_allclose(bn.tilde_coeffs[j], -tail, atol=1e-13)


def test_positive_definite_check():
    assert positive_definite_check(np.eye(3))
    assert not positive_definite_check(np.diag([1.0, 0.0, 2.0]))
    with pytest.warns(UserWarning):
        ok = positive_definite_check(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert ok        # symmetrized part is positive definite


def test_attractor_cointegration_duality():
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    a[1, 0] = 2.0          # rank-1 long-run operator
    ma = MaRepresentation([a])
    attractor = range_basis(ma.sum_operator)
    cointegrating = annihilators(ma.sum_operator)
    assert attractor.dim == 1
    assert cointegrating.dim == 3
    # every cointegrating functional annihilates the attractor (bilinear pairing)
    gaps = cointegrating.basis.T @ attractor.basis
    assert np.max(np.abs(gaps)) < 1e-12
    assert np.max(np.abs(cointegrating.basis.T @ ma.sum_operator)) < 1e-12
