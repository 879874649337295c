"""Integration-order verdicts and closed-form representation components.

Order one (simple pole) is a geometry statement about M = I - B on the
companion space: the ambient space splits as ran M (+) ker M if and only
if the coupling C = alpha_perp^H beta_perp of orthonormal bases of
(ran M)^perp and ker M is nonsingular, and the long-run projection is
then beta_perp C^{-1} alpha_perp^H.  Order two splits the space as
(ran M + ker M) (+) M^g K, K = beta_perp null(C): with
Y = alpha_perp null(C^H) = (ran M + ker M)^perp this holds if and only if
K is nontrivial and the dim K x dim K matrix J = Y^H M^+ K is nonsingular
(Johansen, Econometric Theory 8, 1992), and then N_{-2} = K J^{-1} Y^H.

The verdicts (check_i1, check_i2) read these integers off the pencil and
build no operator.  The component functions (i1_components,
i2_components) build the class's operators and cross-check them against
one contour quadrature at 1 (the residual is in the report); h_j follows
from P in closed form, and the Taylor-route h check (taylor_h_gap) is a
separate route that verify runs.

The order-two projection grafts with Q^g = beta_perp C^+ alpha_perp^H.
It does not depend on the complements of ran M and ker M that the paper's
generalized inverse M^g is taken for, so it takes the orthogonal ones,
where M^g is M^+, read off the pencil's one SVD of M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .numfield import checked_projection, operator_norm
from .laurent import DEFAULT_NODES, circle_coefficients, contour_coefficients, require_unit_root
from .pencil import CompanionPencil, resolvent, spectrum_report

H_TAYLOR_RADIUS = 0.9  # circle around 0 on which the Taylor route samples
H_TAYLOR_NODES = 512
# highest --jmax the CLI takes: verify folds every h_j up to j_max into an I(1)
# p-cross-check on the Taylor circle, which at 200 no longer settles (ex-evenodd)
H_TAYLOR_JMAX = 128


class NotI1(ArithmeticError):
    """Requested order-one components for a model that is not order one."""


class NotI2(ArithmeticError):
    """Requested order-two components for a model that is not order two."""


# ---------------------------------------------------------------------------
# order one
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class I1Report:
    """check_i1's verdict (the operators None) or i1_components' report."""
    order: ClassVar[int] = 1  # pole order at z = 1 of the class the report certifies
    holds: bool
    ker_dim: int
    ran_dim: int
    defect: int
    p_operator: np.ndarray | None
    long_run: np.ndarray | None
    h_coeffs: list
    cross_check_residual: float

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "ker_dim": self.ker_dim,
            "ran_dim": self.ran_dim,
            "defect": self.defect,
        }


def check_i1(cp: CompanionPencil, spectrum=None) -> I1Report:
    """Decide the order-one condition, the split ran M (+) ker M: it holds
    iff K = cp.unit_intersection is {0}, with defect dim K.  It reads these
    integers off the pencil and builds no operator.  ``spectrum`` may be
    the spectrum_report of this same cp; without it one is computed here.
    """
    require_unit_root(spectrum if spectrum is not None else spectrum_report(cp))
    k_dim = cp.unit_intersection.shape[1]
    return I1Report(holds=not k_dim, ker_dim=cp.unit_kernel.shape[1],
                    ran_dim=cp.unit_range.shape[1], defect=k_dim, p_operator=None,
                    long_run=None, h_coeffs=[], cross_check_residual=math.inf)


def taylor_h_coefficients(cp: CompanionPencil, j_max: int, principal: dict):
    """Taylor coefficients (around 0) of the observable holomorphic part.

    ``principal`` maps negative exponents to the pole coefficients N_j;
    the sampled function is the resolvent with the corresponding
    principal part added back, compressed to the observable block, which
    is analytic on the closed sampling disk (radius H_TAYLOR_RADIUS,
    H_TAYLOR_NODES start nodes) whenever the unit root is the only
    spectrum point inside D_{1+eta}.  This route never uses the
    closed-form components, so it is a genuine cross-check for them.
    """
    items = sorted(principal.items())

    def holomorphic(z):
        out = resolvent(cp, z)
        for j, coeff in items:
            out += coeff * (z - 1.0) ** j  # out is resolvent's own array
        return out[:cp.dim, :cp.dim]

    coeffs, _, _ = circle_coefficients(holomorphic, range(j_max + 1), center=0.0,
                                       radius=H_TAYLOR_RADIUS, nodes=H_TAYLOR_NODES)
    return [coeffs[j] for j in range(j_max + 1)]


def taylor_h_gap(cp: CompanionPencil, closed: list, order: int,
                 nodes: int = DEFAULT_NODES) -> float:
    """Largest gap, in the model's reporting norm, between the closed-form
    h_0 .. h_J (``closed``) and their Taylor-route counterparts.

    The principal part N_{-order} .. N_{-1} comes from a fresh contour
    quadrature around 1 (``nodes`` as in contour_coefficients), so the
    check never reads the closed forms it tests.  Only grj verify calls it.
    """
    principal = contour_coefficients(cp, list(range(-order, 0)), nodes=nodes)
    taylor = taylor_h_coefficients(cp, len(closed) - 1, principal)
    return max(operator_norm(np.asarray(c) - t, cp.norm)
               for c, t in zip(closed, taylor))


def _h_closed_form(cp: CompanionPencil, p_op, j_max: int):
    """Observable coefficients h_j from the closed form B^j (I - P).

    simkit.verify_representation builds its rows as (I - P) B^j instead:
    both equal h_j when P is the spectral projection, but B^j (I - P)
    makes the unrolled recursion an identity for every projection onto
    ker M, so a check built on it could not tell a wrong P."""
    out = []
    power = cp.identity() - p_op
    for _ in range(j_max + 1):
        out.append(power[:cp.dim, :cp.dim])
        power = cp.a1 @ power
    return out


def i1_components(cp: CompanionPencil, j_max: int) -> I1Report:
    """Assemble the order-one representation operators: the projection onto
    ker M along ran M, cp.coupling_inverse = beta_perp C^{-1} alpha_perp^H
    (NotComplementary unless it is idempotent within the guard), its
    observable long-run block and the closed-form h_j = [B^j (I - P)]_obs,
    which on order one (B^j P = P) adds nothing for a quadrature to check.
    P is cross-checked against the contour residue N_{-1}.
    """
    rep = require_unit_root(spectrum_report(cp))
    base = check_i1(cp, spectrum=rep)
    if not base.holds:
        raise NotI1(
            f"range/kernel split fails with defect {base.defect} "
            f"(ker dim {base.ker_dim}, ran dim {base.ran_dim})")
    p_op = checked_projection(cp.coupling_inverse)
    residue = contour_coefficients(cp, [-1], spectrum=rep)[-1]
    return replace(base, p_operator=p_op, long_run=p_op[:cp.dim, :cp.dim],
                   h_coeffs=_h_closed_form(cp, p_op, j_max),
                   cross_check_residual=operator_norm(p_op - residue, cp.norm))


# ---------------------------------------------------------------------------
# order two
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class I2Report:
    """check_i2's verdict (the operators None) or i2_components' report."""
    order: ClassVar[int] = 2
    holds: bool
    defect: int  # of the split (ran M + ker M) (+) M^g K: dim K - rank J
    k_dim: int
    w_dim: int
    n_minus2: np.ndarray | None
    p_operator: np.ndarray | None
    long_run2: np.ndarray | None
    long_run1: np.ndarray | None
    h_coeffs: list
    cross_check_residual: float

    def to_json(self) -> dict:
        return {"holds": self.holds, "k_dim": self.k_dim,
                "w_dim": self.w_dim, "defect": self.defect}


def check_i2(cp: CompanionPencil, spectrum=None) -> I2Report:
    """Decide the order-two condition, the split (ran M + ker M) (+) M^g K:
    it holds iff dim K > 0 and rank J = dim K (J = cp.order_two_coupling),
    with defect dim K - rank J.  It reads these integers and dim W off the
    pencil and builds no operator.  ``spectrum`` may be the spectrum_report
    of this same cp; without it one is computed here.
    """
    require_unit_root(spectrum if spectrum is not None else spectrum_report(cp))
    k_dim, rank = cp.unit_intersection.shape[1], cp.order_two_coupling[3]
    return I2Report(holds=k_dim > 0 and rank == k_dim, defect=k_dim - rank, k_dim=k_dim,
                    w_dim=cp.unit_intersection_complement.shape[1], n_minus2=None,
                    p_operator=None, long_run2=None, long_run1=None,
                    h_coeffs=[], cross_check_residual=math.inf)


def _order_two_projection(cp: CompanionPencil, n_minus2) -> np.ndarray:
    """The order-two projection P from N_{-2}, the graft Q^g =
    cp.coupling_inverse and M^g for the orthogonal complements of ran M
    and ker M, which is M^+ = V_r diag(1/s_r) U_r^H off the pencil's SVD
    of M."""
    eye = cp.identity()
    _, ran, ker_perp, _, s_r = cp._kernel_and_range
    m_plus = (ker_perp / s_r) @ ran.conj().T
    gamma_l, gamma_r = m_plus @ n_minus2, n_minus2 @ m_plus
    # Assemble the spectral projection from gamma_r, the graft Q^g (Q^g P_ran = 0, as
    # alpha_perp^H kills ran M) and gamma_l.  The summand order matters: with the correction
    # factors applied from the left, the sum is independent of the complement choices,
    # though no factor is, so the orthogonal ones give the paper's P.
    q_g = cp.coupling_inverse
    return gamma_r + (eye - gamma_r) @ (q_g + (eye - q_g) @ gamma_l)


def i2_components(cp: CompanionPencil, j_max: int) -> I2Report:
    """Assemble the order-two representation operators: N_{-2} = K J^{-1} Y^H
    from the SVD of J that decided check_i2, then the projection from the
    Gamma operators of M^+ and the graft Q^g = cp.coupling_inverse.  Both
    are cross-checked against contour coefficients.
    """
    rep = require_unit_root(spectrum_report(cp))
    base = check_i2(cp, spectrum=rep)
    if not base.holds:
        raise NotI2(f"order-two geometry fails: K dim {base.k_dim}, "
                    f"split defect {base.defect}")
    u, s, vh, _ = cp.order_two_coupling
    n_minus2 = ((cp.unit_intersection @ (vh.conj().T / s))
                @ (cp.unit_sum_complement @ u).conj().T)
    p_op = _order_two_projection(cp, n_minus2)

    contour = contour_coefficients(cp, [-2, -1], spectrum=rep)
    residual = max(operator_norm(n_minus2 - contour[-2], cp.norm),
                   operator_norm(n_minus2 + p_op - contour[-1], cp.norm))

    h_coeffs = _h_closed_form(cp, p_op, j_max)
    long_run2 = n_minus2[:cp.dim, :cp.dim]
    long_run1 = (n_minus2 + p_op)[:cp.dim, :cp.dim]
    return replace(base, n_minus2=n_minus2,
                   p_operator=p_op, long_run2=long_run2, long_run1=long_run1,
                   h_coeffs=h_coeffs, cross_check_residual=residual)
