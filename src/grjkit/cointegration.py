"""Moving-average structure of a solution and its cointegrating functionals.

MaRepresentation is a truncated MA form: coefficients A_0..A_J and the
long-run operator A = sum_k A_k, whose range is the attractor (the
directions carrying the stochastic trend).
beveridge_nelson splits A from the differenced stationary remainder.
annihilators gives the functionals that vanish on the ranges of given
long-run operators -- the cointegrating space of an order-one solution,
and both tiers of an order-two one.  Functionals are bilinear throughout
-- f(x) = sum_i f_i x_i with no conjugation -- so annihilators are
plain-transpose null spaces.  positive_definite_check tests an
innovation covariance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .numfield import (
    RANK_REL,
    RESIDUAL_ABS,
    Subspace,
    as_operator,
    kernel_basis,
    matrix_to_json,
    operator_norm,
)


@dataclass(frozen=True, eq=False)
class MaRepresentation:
    """Truncated MA model: coefficients A_0..A_J.

    ``sum_operator`` (the long-run operator A) is derived on construction.
    """

    coeffs: list
    sum_operator: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least one MA coefficient")
        mats = [as_operator(c, square=True) for c in self.coeffs]
        n = mats[0].shape[0]
        if any(m.shape != (n, n) for m in mats):
            raise ValueError("MA coefficients must share one square shape")
        object.__setattr__(self, "coeffs", mats)
        object.__setattr__(self, "sum_operator", sum(mats[1:], start=mats[0].copy()))


def annihilators(*loadings) -> Subspace:
    """Functionals vanishing on the range of every loading: the null
    space of the stacked plain transposes."""
    return kernel_basis(np.vstack([np.asarray(load).T for load in loadings]))


def positive_definite_check(c) -> bool:
    """Is the (symmetrized) covariance strictly positive definite?

    True iff the smallest eigenvalue exceeds RANK_REL times the largest
    (the fixed rank cut-off).  Asymmetry above 10 x RESIDUAL_ABS
    (relative to the norm, at least 1) is reported as a warning, not an
    error.
    """
    c = as_operator(c, square=True)
    asym = operator_norm(c - c.T)
    if asym > 10 * RESIDUAL_ABS * max(1.0, operator_norm(c)):
        warnings.warn(f"covariance asymmetry {asym:.2e}; symmetrizing", stacklevel=2)
    sym = (c + c.T) / 2.0
    eigs = np.linalg.eigvalsh((sym + sym.conj().T) / 2.0)
    largest = float(eigs[-1])
    if largest <= 0:
        return False
    return float(eigs[0]) > RANK_REL * largest


@dataclass(frozen=True, eq=False)
class BeveridgeNelson:
    """Long-run sum A plus the telescoped remainder coefficients.

    tilde_coeffs[k] = -sum_{j>k} A_j, so A_0 = A + tilde_0 and
    A_k = tilde_k - tilde_{k-1} for k >= 1 reconstruct the input exactly
    up to rounding.
    """

    a_operator: np.ndarray
    tilde_coeffs: list

    def to_json(self) -> dict:
        return {"A": matrix_to_json(self.a_operator),
                "tilde_coeffs": [matrix_to_json(c) for c in self.tilde_coeffs]}


def beveridge_nelson(ma: MaRepresentation) -> BeveridgeNelson:
    """Split the MA operator sum from the stationary remainder.

    Reverse cumulative sums give tilde_k = -sum_{j>k} A_j in one pass.
    """
    stacked = np.stack(ma.coeffs)  # (J+1, n, n)
    # reverse-cumsum over the coefficient index, shifted so entry k sums j>k
    suffix = np.zeros_like(stacked)
    if stacked.shape[0] > 1:
        suffix[:-1] = np.cumsum(stacked[:0:-1], axis=0)[::-1]
    tilde = [-suffix[k] for k in range(stacked.shape[0])]
    return BeveridgeNelson(a_operator=ma.sum_operator, tilde_coeffs=tilde)

