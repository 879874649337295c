"""
Companion linearization and spectrum tests.  The load-bearing fact is the
block-inverse identity: the ambient inverse of the lag polynomial equals
the top-left block of the companion resolvent, so everything downstream
may work purely on the companion space.
"""
from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grjkit import laurent, pencil
from grjkit.laurent import pick_radius
from grjkit.models import (build_example, ill_conditioned_model, jordan_model,
                           random_walk_model, volterra_model)
from grjkit.numfield import CUTOFFS
from grjkit.pencil import ArPencil, SingularAt, linearize, resolvent, spectrum_report
from reference import eval_poly


def two_lag_fixture():
    a1 = np.array([[0.2, 0.1], [0.0, 0.3]])
    a2 = np.array([[0.8, -0.1], [0.0, 0.7]])
    return ArPencil(2, 2, [a1, a2])


def test_companion_layout():
    ar = two_lag_fixture()
    cp = linearize(ar)
    assert cp.big_dim == 4
    assert_allclose(cp.a1[:2, :2], ar.coeffs[0])
    assert_allclose(cp.a1[:2, 2:], ar.coeffs[1])
    assert_allclose(cp.a1[2:, :2], np.eye(2))      # shift row
    assert_allclose(cp.a1[2:, 2:], 0.0)


def test_eval_poly():
    ar = two_lag_fixture()
    z = 0.3 - 0.2j
    direct = np.eye(2) - z * ar.coeffs[0] - z ** 2 * ar.coeffs[1]
    assert_allclose(eval_poly(ar, z), direct, atol=1e-14)


def test_identity_is_one_read_only_array_per_pencil():
    cp = linearize(two_lag_fixture())
    eye = cp.identity
    assert eye is cp.identity
    assert_allclose(eye, np.eye(4))
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0
    # resolvent solves against it and leaves it as it was
    resolvent(cp, 0.3 + 0.1j)
    assert_allclose(cp.identity, np.eye(4), rtol=0, atol=0)


def test_block_inverse_identity():
    """Ambient A(z)^-1 equals the observable block of the companion resolvent."""
    ar = two_lag_fixture()
    cp = linearize(ar)
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = 0.8 * (rng.standard_normal() + 1j * rng.standard_normal())
        if abs(np.linalg.det(eval_poly(ar, z))) < 1e-6:
            continue
        ambient = np.linalg.inv(eval_poly(ar, z))
        lifted = resolvent(cp, z)[:ar.dim, :ar.dim]
        assert np.max(np.abs(ambient - lifted)) < 1e-8


def test_resolvent_is_the_inverse():
    cp = linearize(two_lag_fixture())
    z = 0.4 + 0.1j
    r = resolvent(cp, z)
    assert_allclose((cp.identity - z * cp.a1) @ r, cp.identity, atol=1e-12)


@pytest.mark.parametrize("n", [3, 12, 64])
@pytest.mark.parametrize("complex_coeffs", [False, True], ids=["real", "complex"])
def test_resolvent_matches_solve_against_identity_to_the_bit(n, complex_coeffs):
    rng = np.random.default_rng(n)
    a = 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    if complex_coeffs:
        a = a + 0.3j * rng.standard_normal((n, n)) / np.sqrt(n)
    cp = linearize(ArPencil(1, n, [a]))
    nodes = np.exp(2j * np.pi * np.arange(16) / 16)
    # the contour circle around 1 and the Taylor circle around 0
    for z in np.concatenate([1.0 + 0.5 * nodes, 0.9 * nodes]):
        lhs = cp.identity - z * cp.a1
        assert np.array_equal(resolvent(cp, z), np.linalg.solve(lhs, cp.identity))


def test_resolvent_singular_point_raises():
    # the Hermitian kernel meets an exact zero 1 - z lam on the first two,
    # and the LU solve of a Jordan block fails at its pole
    for ar, z in ((random_walk_model(2), 1.0), (ArPencil(1, 3, [np.diag([1.0, 1.0, 0.5])]), 2.0),
                  (ArPencil(1, 2, [np.array([[1.0, 1.0], [0.0, 1.0]])]), 1.0)):
        with pytest.raises(SingularAt):
            resolvent(linearize(ar), z)


def _hermitian_part(a):
    return (a + a.conj().T) / 2


# one dense 12 x 12 coefficient per resolvent kernel: LU, and the eigenbasis
# kernel on a real and on a complex basis
SCREEN_COEFFS = {
    "general": lambda g, h: g,
    "real_symmetric": lambda g, h: _hermitian_part(g),
    "complex_hermitian": lambda g, h: _hermitian_part(g + 1j * h),
}
SCREEN_Z = 0.8 + 0.3j


def _screen_pencil(kind):
    rng = np.random.default_rng(7)
    g, h = 0.3 * rng.standard_normal((2, 12, 12))
    cp = linearize(ArPencil(1, 12, [SCREEN_COEFFS[kind](g, h)]))
    assert (cp.hermitian_nodes is None) == (kind == "general")
    return cp


def _spy_svd_norms(monkeypatch):
    """List that gets a copy of the residual of each pencil.operator_norm call."""
    seen, real = [], pencil.operator_norm
    monkeypatch.setattr(pencil, "operator_norm", lambda res: seen.append(res.copy()) or real(res))
    return seen


def _screen_case(kind, monkeypatch):
    """A dense pencil of one kind, a regular point and the spectral and
    Frobenius norms of the residual resolvent computes there, read off the
    spectral-norm fallback that a zero cut-off forces."""
    cp, z = _screen_pencil(kind), SCREEN_Z
    with monkeypatch.context() as m:
        m.setitem(CUTOFFS, "residual", 0.0)
        seen = _spy_svd_norms(m)
        with pytest.raises(SingularAt):
            resolvent(cp, z)
    [res] = seen
    two, fro = np.linalg.norm(res, 2), np.linalg.norm(res)
    assert 0 < two < fro  # rounding residual of rank > 1: the screen can miss
    return cp, z, two, fro


def _node_bound(cp, z):
    """The residual bound resolvent checks at z on a Hermitian pencil, as its
    docstring folds it: c0 + (c2 + |z| c1) / min_k |1 - z lam_k|, inf when
    some 1 - z lam_k is exactly zero."""
    lam, _, _, c0, c1, c2 = cp.hermitian_nodes
    low = float(np.min(np.abs(1.0 - z * lam)))
    return c0 + (c2 + abs(z) * c1) / low if low else np.inf


def _eigh_of(cp):
    """(b, lam, Q, Q^H): a1 as the pencil reads it (float64 when real) and
    the eigh of its Hermitian part, matched bit for bit against the lam and
    Q that cp.hermitian_nodes keeps."""
    b = cp.a1 if cp.a1.imag.any() else cp.a1.real
    lam, q = np.linalg.eigh(_hermitian_part(b))
    assert np.array_equal(lam, cp.hermitian_nodes[0])
    assert np.array_equal(q, cp.hermitian_nodes[1])
    return b, lam, q, q.conj().T


def test_resolvent_screen_accepts_without_an_svd(monkeypatch):
    for kind in SCREEN_COEFFS:
        with monkeypatch.context() as m:
            if kind == "general":
                cp, z, _, _ = _screen_case(kind, m)
            else:
                # the Hermitian kernel's a-priori bound accepts on its own
                cp, z = _screen_pencil(kind), SCREEN_Z
                assert 0 < _node_bound(cp, z) <= CUTOFFS["residual"]
            calls = _spy_svd_norms(m)
            out = resolvent(cp, z)
            assert calls == [], kind
            assert_allclose((cp.identity - z * cp.a1) @ out, cp.identity, atol=1e-12)


def _planted_basis_error(monkeypatch, kind):
    """Every later eigh returns Q + 1e-6 W (W of the basis' dtype, unit
    normal entries), a basis error far above the rounding of an eigh."""
    real_eigh, rng = np.linalg.eigh, np.random.default_rng(3)

    def planted(a):
        lam, q = real_eigh(a)
        noise = rng.standard_normal(q.shape)
        if kind == "complex_hermitian":
            noise = noise + 1j * rng.standard_normal(q.shape)
        return lam, q + 1e-6 * noise

    monkeypatch.setattr(np.linalg, "eigh", planted)


def test_resolvent_screen_falls_back_to_the_spectral_norm(monkeypatch):
    for kind in SCREEN_COEFFS:
        with monkeypatch.context() as m:
            if kind != "general":
                # no fallback on the Hermitian kernel: a planted basis error
                # lifts the bound above the cut, and the first node of the
                # default circle raises SingularAt without an SVD
                _planted_basis_error(m, kind)
                cp = _screen_pencil(kind)
                z = 1.0 + pick_radius(spectrum_report(cp))
                assert _node_bound(cp, z) > CUTOFFS["residual"]
                calls, nodes, sample = _spy_svd_norms(m), [], laurent.resolvent
                m.setattr(laurent, "resolvent",
                          lambda c, z, **kw: nodes.append(z) or sample(c, z, **kw))
                with pytest.raises(SingularAt) as err:
                    laurent.contour_coefficients(cp, [-1])
                assert nodes == [z] and err.value.z == z and calls == [], kind
                continue
            cp, z, two, fro = _screen_case(kind, m)
            default = resolvent(cp, z)
            calls = _spy_svd_norms(m)
            # ||R||_2 <= cut < ||R||_F: the screen misses, the exact test accepts
            m.setitem(CUTOFFS, "residual", (two + fro) / 2)
            out = resolvent(cp, z)
            assert len(calls) == 1, kind
            assert np.array_equal(out, default)
            # cut < ||R||_2: the exact test rejects
            m.setitem(CUTOFFS, "residual", 0.5 * two)
            with pytest.raises(SingularAt):
                resolvent(cp, z)


# z B overflows on every contour around 1, so the residual is not finite
OVERFLOW_COEFF = np.array([[1.0, 1.7e308], [0.0, 0.5]])


def test_resolvent_with_a_non_finite_residual_is_singular():
    cp = linearize(ArPencil(1, 2, [OVERFLOW_COEFF]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SingularAt):
        resolvent(cp, 1.4)


def complex_hermitian_model(n, seed):
    """B = U diag(1, lam) U^H, U a random unitary and lam in [-0.8, 0.8]:
    a complex Hermitian B with a simple unit root."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    lam = np.concatenate([[1.0], rng.uniform(-0.8, 0.8, n - 1)])
    return ArPencil(1, n, [_hermitian_part((u * lam) @ u.conj().T)])


HERMITIAN = {
    **{f"evenodd{n}": lambda n=n: build_example("ex-evenodd", n=n)[0]
       for n in (8, 16, 32, 64, 128)},
    **{f"selfadjoint{n}-{seed}": lambda n=n, seed=seed: build_example(
        "ex-selfadjoint", n=n, seed=seed)[0] for n in (8, 32, 128) for seed in range(6)},
    "identity": lambda: random_walk_model(2),
    "walks_and_ar1": lambda: ArPencil(1, 3, [np.diag([1.0, 1.0, 0.5])]),
    "complex": lambda: ArPencil(1, 2, [np.array([[1.0, 0.5j], [-0.5j, 0.3]])]),
    "complex32": lambda: complex_hermitian_model(32, 0),
}
NOT_HERMITIAN = {
    "c0": lambda: build_example("ex-c0")[0],
    "c0-32": lambda: build_example("ex-c0", n=32)[0],
    "volterra": lambda: build_example("ex-volterra")[0],
    **{f"jordan{seed}": lambda seed=seed: jordan_model(seed)[0] for seed in range(4)},
    "jordan2,1": lambda: jordan_model(5, blocks_at_one=[2, 1])[0],
    "overflow": lambda: ArPencil(1, 2, [OVERFLOW_COEFF]),
    "two_lags": two_lag_fixture,
}


@pytest.mark.parametrize("make", HERMITIAN.values(), ids=HERMITIAN.keys())
def test_hermitian_operator_is_sampled_in_its_eigenbasis(monkeypatch, make):
    cp = linearize(make())
    real = not cp.a1.imag.any()
    reads, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: reads.append(a.dtype) or eigh(a))
    nodes = cp.hermitian_nodes
    assert nodes is cp.hermitian_nodes  # one eigh per pencil
    # a real a1 is read as float64, so its basis has no imaginary part
    assert reads == [np.float64 if real else np.complex128]
    lam, q, qh = nodes[:3]
    assert_allclose((q * lam) @ qh, cp.a1, rtol=0, atol=1e-13)
    assert not (real and q.imag.any())
    # the nodes read one complex copy of the basis, built once per pencil
    assert lam.dtype == np.float64 and not lam.flags.writeable
    for copy in (q, qh):
        assert copy.dtype == np.complex128 and not copy.flags.writeable
    assert np.array_equal(qh, q.conj().T)
    assert all(type(c) is float for c in nodes[3:])
    resolvent(cp, 0.5j)
    assert cp.hermitian_nodes is nodes and len(reads) == 1


@pytest.mark.parametrize("make", HERMITIAN.values(), ids=HERMITIAN.keys())
def test_residual_bound_is_no_looser_than_the_measured_residual(make):
    # on 32 nodes of the default circle: measured ||(I - zB)X - I||_2 <= bound <= cut
    cp = linearize(make())
    radius = pick_radius(spectrum_report(cp))
    for z in 1.0 + radius * np.exp(2j * np.pi * np.arange(32) / 32):
        measured = np.linalg.norm((cp.identity - z * cp.a1) @ resolvent(cp, z) - cp.identity, 2)
        assert measured <= _node_bound(cp, z) <= CUTOFFS["residual"], z


def _expanded_bound(cp, z):
    """resolvent's Hermitian bound term by term, unfolded, as its docstring
    writes it."""
    e, f, a, q_fro2, gamma = pencil._eigh_error(*_eigh_of(cp))
    s, g = abs(z), 1.0 / np.min(np.abs(1.0 - z * cp.hermitian_nodes[0]))
    return (f + (1 + f) * (gamma * (1 + s * a * g) + s * g * (a * f + e))
            + (1 + s * ((1 + f) * a + e)) * gamma * q_fro2 * g)


@pytest.mark.parametrize("make", HERMITIAN.values(), ids=HERMITIAN.keys())
def test_folded_residual_bound_is_the_documented_bound(monkeypatch, make):
    # the same 32 nodes as above; folding regroups the sum, so only rounding moves
    cp = linearize(make())
    radius = pick_radius(spectrum_report(cp))
    for z in 1.0 + radius * np.exp(2j * np.pi * np.arange(32) / 32):
        expanded, bound = _expanded_bound(cp, z), _node_bound(cp, z)
        assert abs(bound - expanded) <= 4 * np.spacing(expanded), z
        # resolvent decides by exactly this bound: a cut at it accepts, one
        # ulp below refuses
        with monkeypatch.context() as m:
            m.setitem(CUTOFFS, "residual", bound)
            resolvent(cp, z)
            m.setitem(CUTOFFS, "residual", np.nextafter(bound, 0.0))
            with pytest.raises(SingularAt):
                resolvent(cp, z)


def test_residual_bound_is_not_finite_off_the_regular_points(monkeypatch):
    cp = linearize(random_walk_model(2))
    assert _node_bound(cp, 1.0) == np.inf  # 1 - z lam is exactly zero
    # no finite cut accepts these nodes
    monkeypatch.setitem(CUTOFFS, "residual", np.finfo(np.float64).max)
    with np.errstate(invalid="ignore"):
        for z in (complex(np.nan), complex(np.inf)):
            assert not np.isfinite(_node_bound(cp, z)), z
        for z in (1.0, complex(np.nan), complex(np.inf)):
            with pytest.raises(SingularAt):
                resolvent(cp, z)


@pytest.mark.parametrize("kind", SCREEN_COEFFS)
def test_resolvent_is_singular_at_nan_and_inf(kind):
    cp = _screen_pencil(kind)
    for z in (complex(np.nan), complex(np.inf)):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SingularAt):
            resolvent(cp, z)


def test_eigh_error_bounds_the_backward_error():
    rng = np.random.default_rng(0)
    b = complex_hermitian_model(16, 2).coeffs[0]
    skew = rng.standard_normal((16, 16))
    # an anti-Hermitian part below the Hermitian cut-off: e is measured
    # against a1 itself, not against the Hermitian part that eigh reads
    for a1 in (b, b + 1e-16 * (skew - skew.T)):
        cp = linearize(ArPencil(1, 16, [a1]))
        b_read, lam, q, qh = _eigh_of(cp)
        assert b_read is cp.a1
        e, f, lam_max, q_fro2, _ = pencil._eigh_error(b_read, lam, q, qh)
        assert np.linalg.norm(cp.a1 - (q * lam) @ qh, 2) <= e < 1e-12
        assert np.linalg.norm(qh @ q - np.eye(16), 2) <= f < 1e-12
        assert lam_max == np.max(np.abs(lam)) and q_fro2 >= np.linalg.norm(q) ** 2


@pytest.mark.parametrize("make", NOT_HERMITIAN.values(), ids=NOT_HERMITIAN.keys())
def test_other_operators_keep_the_lu_kernel(make):
    cp = linearize(make())
    assert cp.hermitian_nodes is None
    # the LU kernel's coordinates are the sample itself, at a regular point
    # (z a1 has entries of modulus at most 1/2, so the overflow model has one)
    z = 0.5j / np.max(np.abs(cp.a1))
    sample = resolvent(cp, z)
    assert np.array_equal(resolvent(cp, z, coordinates=True), sample)
    assert pencil.from_coordinates(cp, sample) is sample


@pytest.mark.parametrize("make", NOT_HERMITIAN.values(), ids=NOT_HERMITIAN.keys())
def test_identity_probe_is_the_full_sample_to_the_bit(make):
    cp = linearize(make())
    scale = np.max(np.abs(cp.a1))
    for z in (0.5j / scale, -0.4 / scale, (0.3 + 0.2j) / scale):
        assert np.array_equal(resolvent(cp, z, probe=cp.identity), resolvent(cp, z))


def _probe_case():
    """ex-c0 at n = 32, a unit root of multiplicity 2 on the LU kernel, its
    probe block (L = 2 + 8) and the first node of its default circle."""
    cp = linearize(build_example("ex-c0", n=32)[0])
    probe = pencil.probe_block(cp.big_dim, cp.kernel_chain[-1] + laurent.PROBE_OVERSAMPLING)
    return cp, probe, 1.0 + pick_radius(spectrum_report(cp))


def test_probe_node_checks_its_residual(monkeypatch):
    cp, probe, z = _probe_case()
    out = resolvent(cp, z, probe=probe)
    assert out.shape == probe.shape
    two = np.linalg.norm((cp.identity - z * cp.a1) @ out - probe, 2)
    assert 0 < two <= CUTOFFS["residual"]
    nodes, sample = [], laurent.resolvent
    monkeypatch.setattr(laurent, "resolvent",
                        lambda c, z, **kw: nodes.append(kw["probe"].shape) or sample(c, z, **kw))
    # a cut just below the measured residual: pole_order's first probe node
    # raises, and no second node is sampled
    with monkeypatch.context() as m:
        m.setitem(CUTOFFS, "residual", 0.99 * two)
        with pytest.raises(SingularAt) as err:
            laurent.pole_order(cp)
    assert nodes == [probe.shape] and err.value.z == z
    # just above it, the same node passes
    monkeypatch.setitem(CUTOFFS, "residual", 1.01 * two)
    assert np.array_equal(resolvent(cp, z, probe=probe), out)


def test_probe_node_is_refused_at_the_unit_root_and_on_a_hermitian_pencil():
    cp, probe, _ = _probe_case()
    with pytest.raises(SingularAt) as err:
        resolvent(cp, 1.0, probe=probe)
    assert err.value.z == 1.0
    # a Hermitian pencil's nodes take no probe
    with pytest.raises(ValueError, match="probe"):
        resolvent(linearize(random_walk_model(2)), 0.5, probe=np.eye(2))


def test_probe_block_is_orthonormal_read_only_and_fixed():
    np.random.random()  # off the start of any seed, which a reseed would restore
    state = np.random.get_state()
    pencil.probe_block.cache_clear()
    block = pencil.probe_block(32, 10)
    assert block.shape == (32, 10) and block.dtype == np.complex128
    assert np.linalg.norm(block.conj().T @ block - np.eye(10), 2) < 1e-14
    assert pencil.probe_block(32, 10) is block
    with pytest.raises(ValueError):
        block[0, 0] = 0.0
    pencil.probe_block.cache_clear()
    assert np.array_equal(pencil.probe_block(32, 10), block)  # a fresh draw, the same bytes
    after = np.random.get_state()
    assert state[0] == after[0] and np.array_equal(state[1], after[1])
    assert state[2:] == after[2:]


HERMITIAN_CIRCLES = {
    "ex-evenodd": lambda: build_example("ex-evenodd")[0],
    "ex-selfadjoint": lambda: build_example("ex-selfadjoint")[0],
    "ex-evenodd-128": lambda: build_example("ex-evenodd", n=128)[0],
    "ex-selfadjoint-128": lambda: build_example("ex-selfadjoint", n=128)[0],
    "complex32": lambda: complex_hermitian_model(32, 0),
}


@pytest.mark.parametrize("make", HERMITIAN_CIRCLES.values(), ids=HERMITIAN_CIRCLES.keys())
def test_hermitian_kernel_matches_the_lu_inverse_on_the_default_circle(monkeypatch, make):
    cp = linearize(make())
    radius = pick_radius(spectrum_report(cp))
    zs = 1.0 + radius * np.exp(2j * np.pi * np.arange(32) / 32)
    expected = [np.linalg.inv(cp.identity - z * cp.a1) for z in zs]
    lu_calls, real_inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda *a: lu_calls.append(1) or real_inv(*a))
    for z, inv in zip(zs, expected):
        assert np.max(np.abs(resolvent(cp, z) - inv)) <= 1e-13
    assert lu_calls == []


def test_repeat_reports_of_one_pencil_share_one_eigvals(monkeypatch):
    cp = linearize(build_example("ex-c0")[0])
    calls, real = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or real(a))
    first, second = spectrum_report(cp), spectrum_report(cp)
    assert calls == [1]
    assert second.eigenvalues is first.eigenvalues is cp.eigenvalues
    assert not cp.eigenvalues.flags.writeable
    assert first.to_json() == second.to_json()


def test_spectrum_unit_root_detected():
    cp = linearize(random_walk_model(3))
    rep = spectrum_report(cp)
    assert rep.unit_root_present and rep.unit_root_ok
    assert rep.nearest_other == pytest.approx(float("inf"))


def test_spectrum_flags_other_root_inside_disk():
    # pencil roots at 1 and 0.9: the second disqualifies the unit root
    ar = ArPencil(1, 2, [np.diag([1.0, 1.0 / 0.9])])
    rep = spectrum_report(linearize(ar))
    assert rep.unit_root_present
    assert not rep.unit_root_ok
    assert rep.nearest_other == pytest.approx(0.1, rel=1e-6)


def test_spectrum_no_unit_root():
    ar = ArPencil(1, 2, [np.diag([0.5, 0.2])])
    rep = spectrum_report(linearize(ar))
    assert not rep.unit_root_present


def test_defective_root_clusters_by_multiplicity():
    """Eigenvalues of a planted 3-block scatter like eps**(1/3) around 1;
    the report must still count them as one unit root of multiplicity 3."""
    ar, info = jordan_model(0, blocks_at_one=[3])
    assert info["block_sizes"] == [3]
    rep = spectrum_report(linearize(ar))
    assert rep.unit_root_present and rep.unit_root_ok
    scatter = max(abs(z - 1.0) for z in rep.pencil_spectrum
                  if abs(z - 1.0) < 0.05)
    assert scatter > 1e-7        # genuinely beyond any honest merge radius


def test_volterra_spectrum_is_a_single_point():
    cp = linearize(volterra_model(8))
    rep = spectrum_report(cp)
    assert rep.unit_root_ok
    assert all(abs(z - 1.0) < 1e-6 for z in rep.pencil_spectrum)


def _planted_models(family):
    """(label, model, block sizes planted at the unit root) of one family."""
    if family == "jordan":
        for seed in range(200):
            ar, info = jordan_model(seed)
            yield seed, ar, info["block_sizes"]
    elif family == "volterra":  # one Jordan block of size n
        for n in (8, 16, 32, 64, 128):
            yield n, volterra_model(n), [n]
    else:  # a simple unit root whose kernel and range of I - B nearly touch
        for k, seed in itertools.product((7, 8), range(20)):
            yield (k, seed), ill_conditioned_model(k, seed), [1]


@pytest.mark.parametrize("family", ["jordan", "volterra", "ill_conditioned"])
def test_kernel_chain_matches_planted_weyr_numbers(family):
    """dim ker (I - B)^k = sum over the planted blocks b of min(b, k), up
    to the largest block, and the chain never falls."""
    wrong = []
    for label, ar, blocks in _planted_models(family):
        chain = linearize(ar).kernel_chain
        planted = tuple(sum(min(b, k) for b in blocks) for k in range(max(blocks) + 1))
        if chain != planted or any(b < a for a, b in zip(chain, chain[1:])):
            wrong.append((label, chain))
    assert not wrong


def test_save_load_round_trip(tmp_path):
    ar = two_lag_fixture()
    path = tmp_path / "model.json"
    ar.save(path)
    back = ArPencil.load(path)
    assert back.p == ar.p and back.dim == ar.dim
    for a, b in zip(back.coeffs, ar.coeffs):
        assert np.array_equal(a, b)
    # serialization itself is canonical: a second save is byte-identical
    first = path.read_bytes()
    ar.save(path)
    assert path.read_bytes() == first


@pytest.mark.parametrize("ar", [two_lag_fixture(), ArPencil(1, 2, [np.diag([1.0, 0.5j])])],
                         ids=["real-ar2", "complex"])
def test_save_writes_the_canonical_encoding(tmp_path, ar):
    path = tmp_path / "model.json"
    ar.save(path)
    eager = json.dumps(ar.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_bytes() == eager.encode("utf-8")


def test_pencil_rejects_mismatched_blocks():
    with pytest.raises(ValueError):
        ArPencil(2, 2, [np.eye(2)])
    with pytest.raises(ValueError):
        ArPencil(1, 2, [np.eye(3)])
