"""Attractor/cointegration analysis of truncated moving-average models.

A linear process is described here by a finite list of MA coefficients
A_0..A_J and a real innovation covariance.  The long-run operator is the
plain coefficient sum A = sum_k A_k; its range is the attractor (the
directions carrying the stochastic trend) and the functionals
annihilating that range form the cointegrating space.  Functionals are
bilinear throughout -- f(x) = sum_i f_i x_i with no conjugation -- so
annihilators are plain-transpose null spaces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .numfield import (
    DEFAULT_TOL,
    RANK_REL,
    Subspace,
    Tolerance,
    as_operator,
    kernel_basis,
    matrix_to_json,
    operator_norm,
    range_basis,
)


class NotProjection(ValueError):
    """The supplied operator is not (numerically) idempotent."""


@dataclass(frozen=True, eq=False)
class MaRepresentation:
    """Truncated MA model: coefficients A_0..A_J plus innovation covariance.

    ``sum_operator`` (the long-run operator A) is derived on construction.
    """

    coeffs: list
    innovation_cov: np.ndarray
    sum_operator: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least one MA coefficient")
        mats = [as_operator(c, square=True) for c in self.coeffs]
        n = mats[0].shape[0]
        if any(m.shape != (n, n) for m in mats):
            raise ValueError("MA coefficients must share one square shape")
        cov = as_operator(self.innovation_cov, square=True)
        if cov.shape != (n, n):
            raise ValueError("innovation covariance shape does not match coefficients")
        object.__setattr__(self, "coeffs", mats)
        object.__setattr__(self, "innovation_cov", cov)
        object.__setattr__(self, "sum_operator", sum(mats[1:], start=mats[0].copy()))

    @property
    def dim(self) -> int:
        return self.sum_operator.shape[0]


def positive_definite_check(c, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Is the (symmetrized) covariance strictly positive definite?

    True iff the smallest eigenvalue exceeds RANK_REL times the largest
    (the fixed rank cut-off).  Asymmetry above 10 x tol.residual_abs
    (relative to the norm, at least 1) is reported as a warning, not an
    error.
    """
    c = as_operator(c, square=True)
    asym = operator_norm(c - c.T)
    if asym > 10 * tol.residual_abs * max(1.0, operator_norm(c)):
        warnings.warn(f"covariance asymmetry {asym:.2e}; symmetrizing", stacklevel=2)
    sym = (c + c.T) / 2.0
    eigs = np.linalg.eigvalsh((sym + sym.conj().T) / 2.0)
    largest = float(eigs[-1])
    if largest <= 0:
        return False
    return float(eigs[0]) > RANK_REL * largest


@dataclass(frozen=True, eq=False)
class CointegrationReport:
    attractor: Subspace
    cointegrating: Subspace
    dims: dict
    long_run_cov: np.ndarray
    assumption_ok: bool


def cointegration_report(ma: MaRepresentation,
                         tol: Tolerance = DEFAULT_TOL) -> CointegrationReport:
    """Attractor and cointegrating spaces of the long-run operator.

    attractor = ran A; cointegrating = functionals with f A = 0, i.e. the
    null space of the plain transpose; long-run covariance A C A^T.  A
    degenerate innovation covariance does not stop the computation, it
    just marks the report.
    """
    a = ma.sum_operator
    n = ma.dim
    attractor = range_basis(a)
    cointegrating = kernel_basis(a.T)
    return CointegrationReport(
        attractor=attractor,
        cointegrating=cointegrating,
        dims={"attractor": attractor.dim, "cointegrating": cointegrating.dim,
              "defect": n - attractor.dim - cointegrating.dim},
        long_run_cov=a @ ma.innovation_cov @ a.T,
        assumption_ok=positive_definite_check(ma.innovation_cov, tol),
    )


def extend_functional(f_on_v, p_v, tol: Tolerance = DEFAULT_TOL,
                      v: Subspace | None = None) -> np.ndarray:
    """Extend a functional given on a subspace to the ambient space.

    ``f_on_v`` holds coordinates with respect to the (orthonormalized)
    basis of V; the extension acts by x |-> f(P_V x), so it annihilates
    ker P_V by construction.  V defaults to the numerical range of P_V.
    """
    p_v = as_operator(p_v, square=True)
    idem = operator_norm(p_v @ p_v - p_v)
    if idem > 10 * tol.residual_abs * max(1.0, operator_norm(p_v)):
        raise NotProjection(f"operator is not idempotent (residual {idem:.2e})")
    if v is None:
        v = range_basis(p_v)
    f = np.asarray(f_on_v, dtype=np.complex128).ravel()
    if f.size != v.dim:
        raise ValueError(f"functional has {f.size} coordinates for a {v.dim}-dim subspace")
    if v.dim == 0:
        return np.zeros(p_v.shape[0], dtype=np.complex128)
    # coordinates of P_V x in the basis are basis^H P_V x (orthonormal columns)
    return (f @ v.basis.conj().T) @ p_v


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


@dataclass(frozen=True)
class IntegrationVerdict:
    i0: bool
    reason: str


def classify_integration(ma: MaRepresentation,
                         tol: Tolerance = DEFAULT_TOL) -> IntegrationVerdict:
    """I(0) verdict for the linear process: nonzero long-run covariance."""
    lrc_norm = operator_norm(ma.sum_operator @ ma.innovation_cov @ ma.sum_operator.T)
    if lrc_norm > tol.residual_abs:
        return IntegrationVerdict(True, f"long-run covariance norm {lrc_norm:.3e} is nonzero")
    return IntegrationVerdict(False, f"long-run covariance norm {lrc_norm:.3e} vanishes")
