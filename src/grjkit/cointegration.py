"""Cointegrating functionals of a solution and the covariance check.

annihilators gives the functionals that vanish on the ranges of given
long-run operators -- the cointegrating space of an order-one solution,
and both tiers of an order-two one.  Functionals are bilinear throughout
-- f(x) = sum_i f_i x_i with no conjugation -- so annihilators are
plain-transpose null spaces.  positive_definite_check tests an
innovation covariance.
"""

from __future__ import annotations

import warnings

import numpy as np

from .numfield import as_operator, kernel_basis, operator_norm, within


def annihilators(*loadings) -> np.ndarray:
    """Functionals vanishing on the range of every loading: an orthonormal
    basis (columns) of the null space of the stacked plain transposes."""
    return kernel_basis(np.vstack([np.asarray(load).T for load in loadings]))


def positive_definite_check(c) -> bool:
    """Is the (symmetrized) covariance strictly positive definite?

    True iff the smallest eigenvalue exceeds the "covariance definiteness"
    cut-off times the largest.  Asymmetry above the "covariance asymmetry"
    cut-off (relative to the norm, at least 1) is reported as a warning,
    not an error.
    """
    c = as_operator(c, square=True)
    asym = within("covariance asymmetry", operator_norm(c - c.T), max(1.0, operator_norm(c)))
    if not asym.holds:
        warnings.warn(f"covariance asymmetry {asym.value:.2e}; symmetrizing", stacklevel=2)
    sym = (c + c.T) / 2.0
    eigs = np.linalg.eigvalsh((sym + sym.conj().T) / 2.0)
    largest = float(eigs[-1])
    if largest <= 0:
        return False
    return not within("covariance definiteness", float(eigs[0]), largest).holds
