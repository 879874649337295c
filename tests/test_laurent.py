"""
Contour-quadrature Laurent coefficients against closed forms, plus the
coefficient algebra that pins down signs and index conventions once and
for all.  Convention under test: R(z) = -(sum_j N_j (z-1)^j).
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grjkit import laurent
from grjkit.laurent import (MAX_NODES, ContourNotConverged, NoUnitRoot,
                            circle_coefficients, contour_coefficients,
                            essential_from_sweep, laurent_algebra_gap,
                            pick_radius, pole_order, riesz_projection)
from grjkit.models import evenodd_model, volterra_model
from grjkit.numfield import ascent_at_one, operator_norm
from grjkit.pencil import ArPencil, SingularAt, linearize, resolvent, spectrum_report
from test_pencil import HERMITIAN_CIRCLES


def diag_fixture():
    """a1 = diag(1, 1/2): every Laurent coefficient is known exactly.

    1/(1-z)   = -(z-1)^{-1}            -> N_{-1} = diag(1, 0)
    1/(1-z/2) = 2 sum_k (z-1)^k ... -> N_k[1,1] = -2 for k >= 0
    """
    return linearize(ArPencil(1, 2, [np.diag([1.0, 0.5])]))


def j2_fixture():
    """Single 2-block at 1: N_{-2} = [[0,-1],[0,0]], N_{-1} = [[1,-1],[0,1]]."""
    a1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    return linearize(ArPencil(1, 2, [a1]))


def test_diagonal_closed_forms():
    cp = diag_fixture()
    coeffs = contour_coefficients(cp, [-2, -1, 0, 1, 2])
    assert_allclose(coeffs[-2], np.zeros((2, 2)), atol=1e-12)
    assert_allclose(coeffs[-1], np.diag([1.0, 0.0]), atol=1e-12)
    for j in (0, 1, 2):
        assert_allclose(coeffs[j], np.diag([0.0, -2.0]), atol=1e-10)


def test_jordan_block_closed_forms():
    coeffs = contour_coefficients(j2_fixture(), [-3, -2, -1])
    assert_allclose(coeffs[-3], np.zeros((2, 2)), atol=1e-12)
    assert_allclose(coeffs[-2], [[0.0, -1.0], [0.0, 0.0]], atol=1e-12)
    assert_allclose(coeffs[-1], [[1.0, -1.0], [0.0, 1.0]], atol=1e-12)


def test_riesz_projection_idempotent_and_commuting():
    for cp in (diag_fixture(), j2_fixture()):
        p = riesz_projection(cp)
        assert operator_norm(p @ p - p) < 1e-10
        assert operator_norm(p @ cp.a1 - cp.a1 @ p) < 1e-10


def test_riesz_equals_residue_for_simple_pole():
    cp = diag_fixture()
    coeffs = contour_coefficients(cp, [-1])
    n_minus1 = coeffs[-1]
    assert_allclose(riesz_projection(cp), n_minus1, atol=1e-12)
    assert operator_norm(n_minus1 @ n_minus1 - n_minus1) < 1e-10


def coefficient_table(cp, lo, hi):
    coeffs = contour_coefficients(cp, list(range(lo, hi + 1)))
    return coeffs


@pytest.mark.parametrize("make", [diag_fixture, j2_fixture])
def test_product_law(make):
    """N_j B N_k = (1 - s_j - s_k) N_{j+k+1} with s_j = [j >= 0]."""
    cp = make()
    coeffs = coefficient_table(cp, -4, 3)
    scale = max(operator_norm(c) for c in coeffs.values())
    for j in (-2, -1, 0, 1):
        for k in (-2, -1, 0, 1):
            left = coeffs[j] @ cp.a1 @ coeffs[k]
            factor = 1.0 - (j >= 0) - (k >= 0)
            right = factor * coeffs[j + k + 1]
            assert operator_norm(left - right) <= 1e-7 * scale


@pytest.mark.parametrize("make", [diag_fixture, j2_fixture])
def test_identity_expansion(make):
    """B N_{j-1} - (I - B) N_j = [j == 0] I, for j in {-2, -1, 0}."""
    cp = make()
    coeffs = coefficient_table(cp, -4, 1)
    m = cp.identity() - cp.a1
    for j in (-2, -1, 0):
        lhs = cp.a1 @ coeffs[j - 1] - m @ coeffs[j]
        rhs = cp.identity() if j == 0 else np.zeros_like(lhs)
        assert operator_norm(lhs - rhs) < 1e-7


def test_generalized_resolvent_equation(shift8_cp):
    """R(z) - R(w) = (z - w) R(z) B R(w) away from the spectrum."""
    from grjkit.pencil import resolvent
    cp = shift8_cp
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 10:
        z, w = (0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
        try:
            rz, rw = resolvent(cp, z), resolvent(cp, w)
        except Exception:
            continue
        gap = rz - rw - (z - w) * (rz @ cp.a1 @ rw)
        assert operator_norm(gap) < 1e-8
        checked += 1


def test_pole_order_routes_agree(shift8_cp, jordan2_cp, evenodd_cp):
    # two random walks and a stationary AR(1): G = (I - B) P is rounding,
    # of lower relative rank than P, and still order 1
    walks_and_ar1 = linearize(ArPencil(1, 3, [np.diag([1.0, 1.0, 0.5])]))
    for cp, expected in ((shift8_cp, 2), (jordan2_cp, 2), (evenodd_cp, 1), (walks_and_ar1, 1)):
        rep = pole_order(cp)
        assert rep.order == expected
        assert rep.routes_agree
        assert rep.ascent == ascent_at_one(cp.a1)
        assert rep.order == rep.ascent


def test_volterra_order_equals_dimension():
    cp = linearize(volterra_model(16))
    rep = pole_order(cp)
    assert rep.order == 16
    assert rep.ascent == 16


def test_staircase_reads_planted_nilpotent_indices():
    """P = S (I_m + 0) S^-1 and G = S (J + 0) S^-1, cond(S) = 10, J nilpotent
    with Jordan blocks of sizes 1 to 4 scaled by 1e-2 to 1e2: the index is
    the largest block, and P = 0 gives 0."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(1, 5, size=rng.integers(1, 4))
        m = int(blocks.sum())
        n = m + int(rng.integers(0, 4))
        chain = np.ones(n - 1)
        chain[np.cumsum(blocks)[:-1] - 1] = 0.0  # no link across blocks
        chain[m - 1:] = 0.0
        j = np.diag(chain * rng.uniform(0.5, 2.0, n - 1), 1) * 10 ** rng.uniform(-2, 2)
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = q1 @ np.diag(np.logspace(0, 1, n)) @ q2
        s_inv = np.linalg.inv(s)
        proj = s[:, :m] @ s_inv[:m]
        index = laurent._nilpotency_index_by_rank(proj, s @ j @ s_inv)
        assert index == blocks.max(), (seed, blocks)
    assert laurent._nilpotency_index_by_rank(np.zeros((3, 3)), np.zeros((3, 3))) == 0


def test_essential_from_sweep():
    assert essential_from_sweep([4, 8, 16], [4, 8, 16])
    assert not essential_from_sweep([4, 8, 16], [2, 2, 2])
    assert not essential_from_sweep([4, 8, 16], [3, 2, 5])  # orders not monotone


@pytest.mark.parametrize("dims, orders", [([4, 4], [1, 1]), ([8], [8]), ([4, 8], [4])])
def test_essential_from_sweep_rejects_a_degenerate_sweep(dims, orders):
    with pytest.raises(ValueError):
        essential_from_sweep(dims, orders)


def test_no_unit_root_raises():
    cp = linearize(ArPencil(1, 2, [np.diag([0.5, 0.2])]))
    with pytest.raises(NoUnitRoot):
        pole_order(cp)
    # the raw quadrature is defined regardless; it just sees an analytic
    # integrand and returns vanishing principal coefficients
    coeffs = contour_coefficients(cp, [-2, -1])
    assert operator_norm(coeffs[-1]) < 1e-10
    assert operator_norm(coeffs[-2]) < 1e-10


def test_non_isolated_unit_root_raises():
    # B = diag(1, -1): the unit root is present, but a second root at -1
    # lies on the unit circle, so no contour fits; every entry point says
    # so instead of failing in the quadrature
    cp = linearize(ArPencil(1, 2, [np.diag([1.0, -1.0])]))
    rep = spectrum_report(cp)
    assert rep.unit_root_present and not rep.unit_root_ok
    with pytest.raises(NoUnitRoot, match="not isolated"):
        pole_order(cp)
    with pytest.raises(NoUnitRoot, match="not isolated"):
        laurent_algebra_gap(cp)
    # the raw contour entry points too, with or without a report handed in
    with pytest.raises(NoUnitRoot, match="not isolated"):
        contour_coefficients(cp, [-1])
    with pytest.raises(NoUnitRoot, match="not isolated"):
        contour_coefficients(cp, [-1], spectrum=rep)
    with pytest.raises(NoUnitRoot, match="not isolated"):
        riesz_projection(cp)


def test_pole_order_computes_the_kernel_chain_once(monkeypatch, shift8):
    # every spectrum report and the pole order read the pencil's one
    # kernel chain (a fresh pencil: a fixture pencil keeps its caches from
    # test to test): M = I - B is decomposed once, so is D_1 = V_r^H U_r S_r,
    # the block the staircase continues on, and no power of M is formed
    cp = linearize(shift8)
    m = cp.identity() - cp.a1
    powers = [m @ m, m @ m @ m]
    svd = np.linalg.svd
    inputs = []

    def counted(a, *args, **kwargs):
        inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for _ in range(3):
        assert spectrum_report(cp).ascent == 2
    assert pole_order(cp).ascent == 2
    _, ran, kernel_complement, _, kept = cp._kernel_and_range
    d1 = (kernel_complement.conj().T @ ran) * kept

    def decomposed(matrix):
        return sum(a.shape == matrix.shape and np.array_equal(a, matrix) for a in inputs)

    assert decomposed(m) == 1
    assert decomposed(d1) == 1
    assert not any(a.shape == power.shape
                   and np.allclose(a / np.max(np.abs(a)), power / np.max(np.abs(power)))
                   for a in inputs for power in powers)


def test_radius_guard():
    cp = diag_fixture()      # nearest other pencil root at |2 - 1| = 1
    rep = spectrum_report(cp)
    assert pick_radius(rep) == pytest.approx(0.4)
    # the picked circle keeps the rest of the spectrum 2.5 radii away
    assert rep.nearest_other >= 2.5 * pick_radius(rep)


def test_quadrature_converges_on_analytic_function():
    target = np.array([[2.0, 1.0], [0.0, 3.0]])
    coeffs, nodes, change = circle_coefficients(
        lambda z: target * np.exp(z - 1.0), [0, 1, 2], radius=0.3)
    assert_allclose(coeffs[0], target, atol=1e-10)
    assert_allclose(coeffs[1], target, atol=1e-10)
    assert_allclose(coeffs[2], target / 2.0, atol=1e-10)
    assert change < 1e-10


def _fft_reference(fn, js, center, radius, m_nodes):
    """Circle coefficients read from a full FFT of the m_nodes samples."""
    zs = center + radius * np.exp(2j * np.pi * np.arange(m_nodes) / m_nodes)
    spectrum = np.fft.fft(np.stack([fn(z) for z in zs]), axis=0)
    return {j: spectrum[j % m_nodes] / (m_nodes * radius ** j) for j in js}


def _random_polynomial():
    """Degree-5 polynomial with random 3 x 4 complex coefficients around 0.3."""
    rng = np.random.default_rng(3)
    poly = rng.standard_normal((6, 3, 4)) + 1j * rng.standard_normal((6, 3, 4))
    center = 0.3

    def fn(z):
        return sum(c * (z - center) ** k for k, c in enumerate(poly))

    return poly, fn, center


@pytest.mark.parametrize("js", [[-3, -1, 0, 2, 5, 64], range(-64, 97, 32)],
                         ids=["list", "range"])
def test_per_index_sums_match_the_fft(js):
    # negative, zero and positive j, and j at or beyond the final node
    # count (wrap-around)
    poly, fn, center = _random_polynomial()
    radius = 1.0
    coeffs, m_nodes, _ = circle_coefficients(fn, js, center=center, radius=radius,
                                             nodes=16)
    reference = _fft_reference(fn, js, center, radius, m_nodes)
    assert sorted(coeffs) == sorted(js)
    assert max(js) >= m_nodes
    for j in js:
        assert_allclose(coeffs[j], reference[j], rtol=0, atol=1e-13)
    for j in set(js) & set(range(len(poly))):
        assert_allclose(coeffs[j], poly[j], rtol=0, atol=1e-13)


def test_sums_over_ragged_node_blocks_match_one_block(monkeypatch):
    poly, fn, center = _random_polynomial()
    js = [-3, -1, 0, 2, 5, 64]
    one_block, m_nodes, _ = circle_coefficients(fn, js, center=center, radius=1.0,
                                                nodes=16)
    per_block = 7  # 16 nodes: blocks of 7, 7, 2; 32 nodes: 7, 7, 7, 7, 4
    node_bytes = fn(center).nbytes + laurent.TWIDDLE_BYTES_PER_INDEX * len(js)
    monkeypatch.setattr(laurent, "SAMPLE_BLOCK_BYTES", per_block * node_bytes)
    coeffs, blocked_nodes, _ = circle_coefficients(fn, js, center=center, radius=1.0,
                                                   nodes=16)
    assert blocked_nodes == m_nodes > 2 * per_block and m_nodes % per_block
    reference = _fft_reference(fn, js, center, 1.0, m_nodes)
    for j in js:
        assert_allclose(coeffs[j], reference[j], rtol=0, atol=1e-13)
        assert_allclose(coeffs[j], one_block[j], rtol=0, atol=1e-13)


def test_singular_node_in_a_later_block_propagates(monkeypatch):
    _, fn, center = _random_polynomial()
    js = [0, 1]
    node_bytes = fn(center).nbytes + laurent.TWIDDLE_BYTES_PER_INDEX * len(js)
    monkeypatch.setattr(laurent, "SAMPLE_BLOCK_BYTES", 4 * node_bytes)  # 4 nodes a block
    raised, calls = SingularAt(0.0), []

    def integrand(z):
        calls.append(z)
        if len(calls) == 11:  # third block of the 16-node level
            raise raised
        return fn(z)

    with pytest.raises(SingularAt) as info:
        circle_coefficients(integrand, js, center=center, nodes=16)
    assert info.value is raised
    assert len(calls) == 11


def test_level_memory_is_bounded_by_the_sample_block():
    cp = linearize(evenodd_model(96))
    radius = pick_radius(spectrum_report(cp))
    js = [-1, 0, 1]
    tracemalloc.start()
    try:
        _, m_nodes, _ = circle_coefficients(lambda z: resolvent(cp, z), js,
                                            radius=radius, nodes=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m_nodes == 512  # two levels, each several blocks long
    sample = cp.big_dim ** 2 * 16
    assert 512 * sample > 8 * laurent.SAMPLE_BLOCK_BYTES
    assert peak < 2 * laurent.SAMPLE_BLOCK_BYTES + len(js) * sample


def test_level_memory_counts_the_twiddle_columns():
    # many indices on a tiny integrand: the J x M weights, not the
    # samples, are what a level must not hold at once
    js = range(129)
    sample = 2 * 2 * 16

    def fn(z):
        return np.array([[1.0, z], [z * z, 2.0]], dtype=np.complex128)

    tracemalloc.start()
    try:
        coeffs, m_nodes, _ = circle_coefficients(fn, js, radius=1.0, nodes=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m_nodes == 4096
    assert len(js) * m_nodes * 16 > 2 * laurent.SAMPLE_BLOCK_BYTES
    assert peak < 2 * laurent.SAMPLE_BLOCK_BYTES + len(js) * sample
    assert_allclose(coeffs[2], [[0, 0], [1, 0]], rtol=0, atol=1e-13)
    assert_allclose(coeffs[128], np.zeros((2, 2)), rtol=0, atol=1e-13)


def test_quadrature_start_at_the_cap_is_rejected():
    # a start at MAX_NODES could never refine, so it is refused up front
    with pytest.raises(ValueError, match="start node count"):
        circle_coefficients(lambda z: np.eye(2) * z, [0], nodes=MAX_NODES)


def test_quadrature_that_never_settles_raises_at_the_cap():
    # |Im z| has a kink on the circle, so the trapezoid error decays only
    # algebraically and node doubling runs out at MAX_NODES
    with pytest.raises(ContourNotConverged, match=f"at {MAX_NODES} nodes"):
        circle_coefficients(lambda z: np.array([[abs(z.imag)]]), [0], center=0.0,
                            radius=1.0, nodes=16)


def test_laurent_algebra_gap_is_rounding_small(shift8_cp, evenodd_cp):
    assert laurent_algebra_gap(shift8_cp) < 1e-14
    assert laurent_algebra_gap(evenodd_cp) < 1e-14


def test_laurent_algebra_guards_a_residue_that_is_no_projection(evenodd_cp, perturb_coefficient):
    perturb_coefficient(-1)
    with pytest.raises(ContourNotConverged, match="projection residuals too large"):
        laurent_algebra_gap(evenodd_cp)


def test_laurent_algebra_guards_the_held_out_reconstruction(evenodd_cp, perturb_coefficient):
    perturb_coefficient(2)
    with pytest.raises(ContourNotConverged,
                       match="reconstruction error 1.00e-05 above tail bound 1.00e-06"):
        laurent_algebra_gap(evenodd_cp)


def test_laurent_algebra_gap_sees_a_perturbed_coefficient(shift8_cp, perturb_coefficient):
    # on the order-two shift the fitted tail bound admits the fault, so
    # the algebra itself has to catch it
    perturb_coefficient(2)
    assert laurent_algebra_gap(shift8_cp) == pytest.approx(4e-5, rel=1e-3)


def _on_the_lu_kernel(cp):
    """The same pencil with no eigenbasis, so every node is an LU inverse."""
    lu = linearize(cp.ar)
    lu.__dict__["hermitian_basis"] = None  # cached_property: the instance entry wins
    return lu


@pytest.mark.parametrize("make", HERMITIAN_CIRCLES.values(), ids=HERMITIAN_CIRCLES.keys())
def test_eigen_coordinate_contour_matches_the_lu_kernel(monkeypatch, make):
    cp = linearize(make())
    assert cp.hermitian_basis is not None
    levels, circle = [], laurent.circle_coefficients

    def counted(*args, **kwargs):
        out = circle(*args, **kwargs)
        levels.append(out[1])
        return out

    monkeypatch.setattr(laurent, "circle_coefficients", counted)
    js = [-2, -1, 0, 1, 2]
    coords = contour_coefficients(cp, js)
    full = contour_coefficients(_on_the_lu_kernel(cp), js)
    assert len(levels) == 2 and levels[0] == levels[1]
    for j in js:
        scale = max(1.0, operator_norm(full[j]))
        assert np.max(np.abs(coords[j] - full[j])) <= 1e-13 * scale, j


@pytest.mark.parametrize("make", HERMITIAN_CIRCLES.values(), ids=HERMITIAN_CIRCLES.keys())
def test_hermitian_contour_nodes_sample_eigen_coordinates(monkeypatch, make):
    cp = linearize(make())
    shapes, sample = [], laurent.resolvent

    def spied(*args, **kwargs):
        out = sample(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(laurent, "resolvent", spied)
    contour_coefficients(cp, [-2, -1, 0, 1, 2])
    pole_order(cp)
    # two circles of at least 256 + 512 nodes, and every node a length-n
    # vector: no per-node n x n product
    assert len(shapes) >= 2 * 768 and set(shapes) == {(cp.big_dim,)}
