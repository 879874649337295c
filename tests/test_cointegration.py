"""
Long-run MA structure: sum operator, the two-sided decomposition into a
permanent loading plus differenced remainder, attractor/cointegration
duality, and the integration verdict.
"""
from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grjkit.cointegration import (MaRepresentation, NotProjection, beveridge_nelson,
                                  classify_integration, cointegration_report,
                                  extend_functional, positive_definite_check)
from grjkit.numfield import Subspace


def geometric_ma(rho=0.5, terms=7, dim=2):
    coeffs = [rho ** j * np.eye(dim) for j in range(terms)]
    return MaRepresentation(coeffs=coeffs, innovation_cov=np.eye(dim))


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


def test_attractor_cointegration_duality():
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    a[1, 0] = 2.0          # rank-1 long-run operator
    ma = MaRepresentation([a], np.eye(4))
    rep = cointegration_report(ma)
    assert rep.dims["attractor"] == 1
    assert rep.dims["cointegrating"] == 3
    # every cointegrating functional annihilates the attractor
    gaps = rep.cointegrating.basis.conj().T @ rep.attractor.basis
    assert np.max(np.abs(gaps)) < 1e-12
    assert rep.assumption_ok


def test_long_run_covariance():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    ma = MaRepresentation([a], 2.0 * np.eye(2))
    rep = cointegration_report(ma)
    assert_allclose(rep.long_run_cov, a @ (2.0 * np.eye(2)) @ a.T, atol=1e-12)


def test_extend_functional_agrees_on_subspace():
    v = Subspace.from_columns(np.eye(4)[:, :2])
    p_v = np.diag([1.0, 1.0, 0.0, 0.0])
    f_on_v = np.array([3.0, -1.0])
    f = extend_functional(f_on_v, p_v, v=v)
    assert_allclose(f[:2], f_on_v, atol=1e-12)
    assert_allclose(f[2:], 0.0, atol=1e-12)


def test_extend_functional_rejects_non_projection():
    v = Subspace.from_columns(np.eye(3)[:, :1])
    with pytest.raises(NotProjection):
        extend_functional(np.ones(1), np.full((3, 3), 0.5), v=v)


def test_positive_definite_check():
    assert positive_definite_check(np.eye(3))
    assert not positive_definite_check(np.diag([1.0, 0.0, 2.0]))
    with pytest.warns(UserWarning):
        ok = positive_definite_check(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert ok        # symmetrized part is positive definite


def test_classify_integration():
    alive = classify_integration(geometric_ma())
    assert alive.i0 and "nonzero" in alive.reason
    dead = classify_integration(
        MaRepresentation([np.eye(2), -np.eye(2)], np.eye(2)))
    assert not dead.i0
