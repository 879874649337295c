"""Laurent analysis of the inverse pencil around the unit root.

The inverse of the linearized pencil admits a Laurent expansion in a
punctured neighborhood of z = 1.  We write it as

    (I - z*B)^{-1} = - sum_j  N_j (z - 1)^j ,

and compute the coefficients N_j by trapezoidal quadrature of the
contour integral over a circle centered at 1.  Sign and orientation
conventions differ across sources; here they are pinned down by two
ground-truth identities on validation models:

  * N_{-1} B is the spectral projection associated with the unit
    eigenvalue group (and N_{-1} = that projection when the pole is
    simple: B = diag(1, 0.5) must give N_{-1} = diag(1, 0));
  * the coefficient algebra N_j B N_k = (1 - e_j - e_k) N_{j+k+1},
    with e_j = 1 for j >= 0 and 0 otherwise.

Concretely: with the circle parametrized counterclockwise,
N_j = -(1/M) sum_m R(z_m) (r e^{i theta_m})^{-j}, which the engine
evaluates for the requested j only, as one weighted sum of the resolvent
samples with twiddles read from a table of the M-th roots of unity.

The pole order is decided structurally.  Writing P for the spectral
projection and G = (I - B) P for the quasi-nilpotent part, the order
equals the nilpotency index of G with the convention G^0 = P.  The
index is read by the staircase of Golub & Wilkinson (SIAM Rev. 18,
1976), which deflates the kernel of G by unitary compressions and never
forms a power, and is cross-checked against the Jordan ascent, which the
same loop (numfield._staircase) reads off the pencil's SVD of I - B.
On the LU kernel the contour integrates R(z) V for an n x L probe block V
instead of R(z) itself: N_{-1} V spans ran P, on which G is an r x r
matrix (Beyn, Linear Algebra Appl. 436, 2012; Guettel & Tisseur, Acta
Numer. 26, 2017).
Ranks or norms of the powers G^k are no route: honest powers of
triangular quadrature models drop below any cut-off long before they
vanish, and a semisimple root leaves a G of rounding size whose
relative rank is rounding too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numfield import (CUTOFFS, _staircase, fit_geometric_decay, operator_norm, range_basis,
                       within)
from .pencil import (CompanionPencil, SpectrumReport, from_coordinates, probe_block, resolvent,
                     spectrum_report)

DEFAULT_NODES = 256
MIN_NODES = 16
MAX_NODES = 4096  # node doubling stops here; a start must lie below it
SAMPLE_BLOCK_BYTES = 2 << 20  # samples and twiddle columns held at once per level;
                              # a block holds >= 1 node
TWIDDLE_BYTES_PER_INDEX = 32  # per node and index: a complex weight and two int64 exponents
PROBE_OVERSAMPLING = 8  # pole_order's probe columns beyond the multiplicity at 1


class NoUnitRoot(ArithmeticError):
    """z = 1 is no usable unit root: not in the pencil spectrum, or not
    isolated enough for contour analysis."""


def require_unit_root(rep: SpectrumReport) -> SpectrumReport:
    """``rep`` itself when its unit root is usable, else NoUnitRoot."""
    if not rep.unit_root_present:
        raise NoUnitRoot("1 is not in the pencil spectrum")
    if not rep.unit_root_ok:
        raise NoUnitRoot(
            "unit root is not isolated enough for contour analysis "
            f"(nearest other spectrum point at distance {rep.nearest_other:.3g})")
    return rep


class ContourNotConverged(ArithmeticError):
    """Node doubling hit the cap without the quadrature settling."""


def pick_radius(report: SpectrumReport) -> float:
    """Radius of the contour around 1: min(0.5, 0.4 * distance to the
    rest of the spectrum)."""
    if np.isfinite(report.nearest_other):
        return min(0.5, 0.4 * report.nearest_other)
    return 0.5


def circle_coefficients(fn, js, center=1.0, radius=0.5, nodes=DEFAULT_NODES):
    """Laurent coefficients a_j of an array-valued analytic function.

    Standard convention here: fn(z) = sum_j a_j (z - center)^j, with fn's
    samples of any one shape.  The trapezoid rule on the circle
    |z - center| = radius is spectrally accurate; node count doubles from
    ``nodes`` (in [MIN_NODES, MAX_NODES)) until successive results differ by
    at most CUTOFFS["quadrature"], else ContourNotConverged at MAX_NODES.
    The change between levels is the spectral norm of the difference for a
    matrix, and max |difference| for a vector, the spectral norm of the
    diagonal operator it holds (contour_coefficients' eigen-coordinates).
    Returns (coeffs, nodes, last_change).  Each refinement level reads the
    requested j as the weighted sum W @ samples, W[i, m] = e^{-i j_i theta_m};
    the exponent j_i m is reduced mod M and looked up in a table of the
    M-th roots of unity, so large |j| costs no accuracy.

    Samples stream through one block of at most SAMPLE_BLOCK_BYTES (at
    least one node), and each node in a block is charged its sample plus
    its column of W (TWIDDLE_BYTES_PER_INDEX per index: the complex
    weight and the int64 exponent temporaries).  Each block builds only
    its own columns of W and adds its share of W @ samples to the J =
    len(js) running sums, so a level holds at most SAMPLE_BLOCK_BYTES (or
    one node, if larger) plus J sample-sized sums at once, never all M
    samples or the J x M table.  A level that fits in one block is one
    product and rounds as if unblocked.
    """
    js = list(js)
    if not MIN_NODES <= nodes < MAX_NODES:
        raise ValueError(f"start node count must be in [{MIN_NODES}, {MAX_NODES})")
    if radius <= 0:
        raise ValueError("radius must be positive")

    def evaluate(m_nodes):
        theta = 2.0 * np.pi * np.arange(m_nodes) / m_nodes
        zs = center + radius * np.exp(1j * theta)
        roots = np.exp(-1j * theta)  # e^{-i theta_k} = e^{-2 pi i k / M}
        first = np.asarray(fn(zs[0]), dtype=np.complex128)
        node_bytes = first.nbytes + TWIDDLE_BYTES_PER_INDEX * len(js)
        per_block = min(m_nodes, max(1, SAMPLE_BLOCK_BYTES // max(node_bytes, 1)))
        block = np.empty((per_block,) + first.shape, dtype=np.complex128)
        block[0] = first
        sums = None
        for start in range(0, m_nodes, per_block):
            stop = min(start + per_block, m_nodes)
            for k in range(max(start, 1), stop):
                block[k - start] = fn(zs[k])
            # this block's columns of W, freed once the product is taken
            part = (roots[np.outer(js, np.arange(start, stop)) % m_nodes]
                    @ block[:stop - start].reshape(stop - start, -1))
            # the first block's product is the sum itself, so a level that
            # fits in one block rounds exactly as an unblocked product
            if sums is None:
                sums = part
            else:
                sums += part
        sums = sums.reshape((len(js),) + first.shape)
        return {j: sums[i] / (m_nodes * radius ** j) for i, j in enumerate(js)}

    current = evaluate(nodes)
    m = nodes
    while m < MAX_NODES:
        m *= 2
        refined = evaluate(m)
        change = within("quadrature", max(_spectral_norm(refined[j] - current[j]) for j in js))
        current = refined
        if change.holds:
            break
    if not change.holds:
        raise ContourNotConverged(
            f"quadrature change {change.value:.2e} above {change.bound:.0e} at {m} nodes")
    return current, m, change.value


def _spectral_norm(a) -> float:
    """||a||_2 of a matrix, or of diag(a) for a vector."""
    return float(np.max(np.abs(a))) if a.ndim == 1 else operator_norm(a)


def contour_coefficients(cp: CompanionPencil, js, nodes=DEFAULT_NODES, spectrum=None):
    """Pencil Laurent coefficients {j: N_j} for every j in js (shared samples).

    Integrates on the circle of radius pick_radius around 1, which keeps
    the rest of the spectrum at least 2.5 radii away, and applies the
    pencil sign convention N_j = -a_j to the standard circle
    coefficients of the resolvent.  A unit root that is present but not
    usable raises NoUnitRoot (require_unit_root): that is any report with
    unit_root_ok false, so a unit cluster scattered wider than
    CUTOFFS["cluster scatter"] or another pencil root in the closed disk of
    radius 1 + eta is refused even when pick_radius would be positive.
    Without a unit root the integrand is analytic and the principal
    coefficients vanish.

    Each node is one resolvent call in the kernel's own coordinates
    (coordinates=True): on a Hermitian pencil the eigen-coordinates
    1/(1 - z lam), n numbers, after resolvent's a-priori residual bound, and
    the inverse itself on LU.  The circle integrates those samples into c_j,
    and N_j = from_coordinates(cp, -c_j), one product per index on a
    Hermitian pencil.  The nodes, levels and stopping rule are the same on
    both kernels: a vector's level change max |c_j - c_j'| is the spectral
    norm of diag(c_j - c_j').
    """
    rep = spectrum if spectrum is not None else spectrum_report(cp)
    if rep.unit_root_present:
        require_unit_root(rep)
    coeffs, _, _ = circle_coefficients(
        lambda z: resolvent(cp, z, coordinates=True), js, center=1.0,
        radius=pick_radius(rep), nodes=nodes)
    return {j: from_coordinates(cp, -coeffs[j]) for j in js}


@dataclass(frozen=True)
class PoleOrderReport:
    order: int
    essential_flag: bool
    ascent: int
    routes_agree: bool

    def to_json(self) -> dict:
        return {"order": self.order, "essential_flag": self.essential_flag,
                "ascent": self.ascent, "routes_agree": self.routes_agree}


def _nilpotency_index_by_rank(proj, g) -> int:
    """Smallest k >= 0 with G^k numerically zero, counting G^0 = P.

    G is nilpotent (on ran P; it vanishes off ran P), so its index is the
    number of staircase steps (numfield._staircase) that deflate all of
    C^n, with no power formed, every step cut at CUTOFFS["rank"] * ||P||_2
    * max(1, ||G||_2); 0 when P = 0, and n if the staircase stops short.
    """
    n, norm_p = proj.shape[0], operator_norm(proj)
    if norm_p == 0:
        return 0
    weyr = _staircase(g, lambda norm_g: CUTOFFS["rank"] * norm_p * max(1, norm_g))
    return len(weyr) if sum(weyr) == n else n


def _probed_index(cp: CompanionPencil, rep: SpectrumReport):
    """Nilpotency index of G = (I - B) P from a probe of the contour, or None
    at the cap.

    With m = cp.kernel_chain[-1] and L = m + PROBE_OVERSAMPLING, each node
    solves against the n x L probe_block V, and one circle_coefficients call
    (the default circle, nodes and stopping rule) integrates Y = N_{-1} V;
    its level change ||dN_{-1} V||_2 <= ||dN_{-1}||_2, so it settles no
    later than the full samples would.  Y spans ran P, so with Q =
    range_basis(Y), of rank r, G on ran P is the r x r matrix Q^H (I - B) Q,
    whose index the staircase reads, every step cut at CUTOFFS["rank"] *
    max(1, ||.||_2); n if it stops short.  r = L may miss part of ran P, so
    L doubles; None once L reaches n, where V would be I."""
    n = cp.big_dim
    width = cp.kernel_chain[-1] + PROBE_OVERSAMPLING
    while width < n:
        probe = probe_block(n, width)
        coeffs, _, _ = circle_coefficients(
            lambda z: resolvent(cp, z, probe=probe), [-1], center=1.0,
            radius=pick_radius(rep))
        basis = range_basis(coeffs[-1])
        rank = basis.shape[1]
        if rank < width:
            weyr = _staircase(basis.conj().T @ cp.m @ basis,
                              lambda norm_g: CUTOFFS["rank"] * max(1, norm_g))
            return len(weyr) if sum(weyr) == rank else n
        width *= 2
    return None


def pole_order(cp: CompanionPencil, spectrum=None) -> PoleOrderReport:
    """Pole order of the inverse pencil at z = 1.

    Structural route: nilpotency index of G = (I - B) P by the staircase
    (order = index, with G^0 = P), cross-checked against
    the Jordan-ascent oracle, which the spectrum report carries.
    essential_flag on a single model marks the order hitting the ambient
    ceiling; sweeps across truncation dimensions refine it (see
    essential_from_sweep).  Raises NoUnitRoot unless z = 1 is a usable
    unit root (require_unit_root).

    G comes from one contour quadrature on the default circle, the only one
    grj analyze runs: check_i1 and check_i2 read integers off the pencil.
    On the LU kernel with m + PROBE_OVERSAMPLING < n the nodes solve
    against an n x L probe block and G is read on ran P as an r x r matrix
    (_probed_index).  A Hermitian pencil, whose nodes are O(n)
    eigen-coordinates already, and the cap (m + PROBE_OVERSAMPLING >= n)
    read the Riesz projection P = N_{-1} B and G = (I - B) P in full.
    ``spectrum`` may be the spectrum_report of this same cp; without it one
    is computed here.
    """
    rep = require_unit_root(spectrum if spectrum is not None else spectrum_report(cp))
    index = _probed_index(cp, rep) if cp.hermitian_nodes is None else None
    if index is None:
        proj = contour_coefficients(cp, [-1], spectrum=rep)[-1] @ cp.a1
        index = _nilpotency_index_by_rank(proj, cp.m @ proj)
    return PoleOrderReport(
        order=index,
        essential_flag=index >= cp.big_dim,
        ascent=rep.ascent,
        routes_agree=(index == rep.ascent),
    )


def essential_from_sweep(dims, orders) -> bool:
    """Truncation-sweep heuristic: a finite section can never exhibit a
    true essential singularity, but a pole order growing linearly with
    the truncation dimension is the desk-scale signature of one."""
    dims = list(dims)
    orders = list(orders)
    if len(set(dims)) < 2 or len(dims) != len(orders):
        raise ValueError("need matching sweeps of at least two different dimensions")
    pairs = sorted(zip(dims, orders))
    ds = [d for d, _ in pairs]
    os = [o for _, o in pairs]
    if any(b < a for a, b in zip(os, os[1:])):
        return False
    return within("sweep slope", (os[-1] - os[0]) / (ds[-1] - ds[0])).holds


def laurent_algebra_gap(cp: CompanionPencil) -> float:
    """Worst scaled gap of the coefficient algebra of the expansion at z = 1.

    With R(z) = -sum_j N_j (z-1)^j the resolvent-style identity forces
    N_j B N_k = (1 - s_j - s_k) N_{j+k+1} with s_j = [j >= 0], and the
    defining equation forces B N_{j-1} - (I - B) N_j = [j == 0] I.  Both
    are checked on N_j for j in [-order, 2], from one contour on the
    default circle, and each gap is divided by max(1, max_j ||N_j||).

    Raises NoUnitRoot unless z = 1 is a usable unit root.  Before the
    algebra, guards the coefficients themselves with ContourNotConverged:
    N_{-1} B must be idempotent and commute with B, and the truncated
    series must match the resolvent at three held-out points on a circle
    of half the contour radius, within a tail bound fitted from the
    decay of ||N_0||, ||N_1||, ||N_2||.
    """
    j_max = 2
    rep = spectrum_report(cp)
    order = pole_order(cp, spectrum=rep).order
    js = list(range(-order, j_max + 1))
    # the residue N_{-1} is computed even without a pole, for the projection
    coeffs = contour_coefficients(cp, list(range(min(-order, -1), j_max + 1)), spectrum=rep)
    b, norm = cp.a1, cp.norm
    p_op = coeffs[-1] @ b
    res_idem = operator_norm(p_op @ p_op - p_op, norm)
    res_comm = operator_norm(p_op @ b - b @ p_op, norm)
    if not within("guard", max(res_idem, res_comm)).holds:
        raise ContourNotConverged(
            f"projection residuals too large (idempotency {res_idem:.2e}, "
            f"commutation {res_comm:.2e})")

    # held-out reconstruction on the half-radius circle
    r_eval = pick_radius(rep) / 2.0
    c_fit, rho_fit = fit_geometric_decay(
        operator_norm(coeffs[j], norm) for j in range(0, j_max + 1))
    decay = rho_fit * r_eval
    if 0 < decay < 1:
        tail = c_fit * decay ** (j_max + 1) / (1.0 - decay)
    else:
        tail = c_fit * max(decay, 1.0) ** (j_max + 1)
    for theta in (0.3, 2.1, 4.0):
        z = 1.0 + r_eval * np.exp(1j * theta)
        series = -sum(coeffs[j] * (z - 1.0) ** j for j in js)
        err = within("reconstruction", operator_norm(series - resolvent(cp, z), norm), tail)
        if not err.holds:
            raise ContourNotConverged(f"reconstruction error {err.value:.2e} above tail "
                                      f"bound {err.bound:.2e} at z={z:.3f}")

    zero = np.zeros_like(b)

    def n_at(j):
        return coeffs[j] if j >= -order else zero

    scale = max(1.0, max(operator_norm(coeffs[j]) for j in js))
    worst = 0.0
    for j in range(max(-order, -2), 2):
        for k in range(max(-order, -2), 2):
            if j + k + 1 > 2:
                continue
            sign = 1 - (j >= 0) - (k >= 0)
            gap = operator_norm(n_at(j) @ b @ n_at(k) - sign * n_at(j + k + 1))
            worst = max(worst, gap / scale)
    for j in range(-2, 1):
        target = cp.identity if j == 0 else zero
        gap = operator_norm(b @ n_at(j - 1) - cp.m @ n_at(j) - target)
        worst = max(worst, gap / scale)
    return worst
