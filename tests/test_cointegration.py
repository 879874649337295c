"""
The covariance check and the attractor/cointegration duality.  The
duality is checked here on a fixed long-run operator and on represent's
output in the CLI suite.
"""
from __future__ import annotations

import numpy as np
import pytest

from grjkit.cointegration import annihilators, positive_definite_check
from grjkit.numfield import range_basis


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
    attractor = range_basis(a)
    cointegrating = annihilators(a)
    assert attractor.shape[1] == 1
    assert cointegrating.shape[1] == 3
    # every cointegrating functional annihilates the attractor (bilinear pairing)
    gaps = cointegrating.T @ attractor
    assert np.max(np.abs(gaps)) < 1e-12
    assert np.max(np.abs(cointegrating.T @ a)) < 1e-12
