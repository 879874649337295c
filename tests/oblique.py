"""Oblique projections and the generalized inverse relative to chosen
complements: the test oracle for the order-two projection.

grjkit builds the order-two projection P for the orthogonal complements
of ran M and ker M only, where the generalized inverse
M^g = (I - P_ker) M^+ P_ran is M^+ itself.  The paper's P does not depend
on that choice.  These helpers build P for any pair of complements, by
the route of the paper, so the tests can compare it with the library's P
and with the contour's N_{-1} + N_{-2}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from grjkit.numfield import (NotComplementary, checked_projection, operator_norm,
                             range_basis, within)


@dataclass(frozen=True)
class DirectSumResult:
    holds: bool
    defect: int


def direct_sum_check(u, w) -> DirectSumResult:
    """Does the ambient space decompose as U (+) W (bases u, w)?

    holds iff dim U + dim W = ambient and the concatenated basis has full
    numerical rank; defect = ambient - rank(concatenation).
    """
    if u.shape[0] != w.shape[0]:
        raise ValueError("ambient dimensions differ")
    n = u.shape[0]
    concat = np.hstack([u, w])
    rank = range_basis(concat).shape[1] if concat.shape[1] else 0
    return DirectSumResult(holds=(concat.shape[1] == n and rank == n), defect=n - rank)


def oblique_projection(onto, along) -> np.ndarray:
    """The unique projection with range ``onto`` and kernel ``along``.

    With B = [U W] invertible (U, W the two bases), P = B diag(I_k, 0) B^{-1}.
    """
    check = direct_sum_check(onto, along)
    (n, k), dim_along = onto.shape, along.shape[1]
    if not check.holds:
        raise NotComplementary(
            f"subspaces do not decompose C^{n}: "
            f"dims {k}+{dim_along}, defect {check.defect}")
    if k == 0:
        return np.zeros((n, n), dtype=np.complex128)
    if k == n:
        return np.eye(n, dtype=np.complex128)
    b = np.hstack([onto, along])
    binv = np.linalg.solve(b, np.eye(n, dtype=np.complex128))
    return checked_projection(onto @ binv[:k])


def generalized_inverse(m, split, p_ker, p_ran) -> np.ndarray:
    """G = (I - P_ker) M^+ P_ran, with M^+ = V_r diag(1/s_r) U_r^H read off
    split = kernel_and_range(m), checked against G M = I - P_ker and
    M G = P_ran within CUTOFFS["guard"] (else NotComplementary)."""
    _, ran, ker_perp, _, s_r = split
    ginv = (ker_perp / s_r) @ (ran.conj().T @ p_ran)
    ginv -= p_ker @ ginv
    res1 = operator_norm(ginv @ m - (np.eye(m.shape[0]) - p_ker))
    res2 = operator_norm(m @ ginv - p_ran)
    if not within("guard", max(res1, res2)).holds:
        raise NotComplementary(
            f"generalized-inverse identities violated (residuals {res1:.2e}, {res2:.2e})")
    return ginv


def order_two_projection(cp, n_minus2, ran_complement=None, ker_complement=None):
    """The order-two projection P of the pencil ``cp`` for complements of
    ran M and ker M (by default the orthogonal ones): P_ran, P_ker and
    M^g = (I - P_ker) M^+ P_ran depend on them, and a supplied complement
    that fails raises NotComplementary, naming its pair.  The graft
    Q^g = cp.coupling_inverse does not depend on them.  The Gamma assembly
    is grj._order_two_projection's, summand for summand."""
    eye = cp.identity
    ran_c = cp.unit_range_complement if ran_complement is None else ran_complement
    ker_c = cp.unit_kernel_complement if ker_complement is None else ker_complement
    p_ran = oblique_projection(cp.unit_range, ran_c)
    gen_inverse = generalized_inverse(cp.m, cp._kernel_and_range,
                                      oblique_projection(cp.unit_kernel, ker_c), p_ran)
    gamma_l, gamma_r = gen_inverse @ n_minus2, n_minus2 @ gen_inverse
    q_g = cp.coupling_inverse
    return gamma_r + (eye - gamma_r) @ (q_g + (eye - q_g) @ gamma_l)
