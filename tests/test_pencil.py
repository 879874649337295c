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

from grjkit import pencil
from grjkit.laurent import pick_radius
from grjkit.models import (build_example, ill_conditioned_model, jordan_model,
                           random_walk_model, volterra_model)
from grjkit.numfield import CUTOFFS
from grjkit.pencil import (ArPencil, SingularAt, eval_poly, linearize,
                           resolvent, spectrum_report)


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
    eye = cp.identity()
    assert eye is cp.identity()
    assert_allclose(eye, np.eye(4))
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0
    # resolvent solves against it and leaves it as it was
    resolvent(cp, 0.3 + 0.1j)
    assert_allclose(cp.identity(), np.eye(4), rtol=0, atol=0)


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
    assert_allclose((cp.identity() - z * cp.a1) @ r, cp.identity(), atol=1e-12)


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
        lhs = cp.identity() - z * cp.a1
        assert np.array_equal(resolvent(cp, z), np.linalg.solve(lhs, cp.identity()))


def test_resolvent_singular_point_raises():
    # the Hermitian kernel meets an exact zero 1 - z lam on the first two,
    # and the LU solve of a Jordan block fails at its pole
    for ar, z in ((random_walk_model(2), 1.0), (ArPencil(1, 3, [np.diag([1.0, 1.0, 0.5])]), 2.0),
                  (ArPencil(1, 2, [np.array([[1.0, 1.0], [0.0, 1.0]])]), 1.0)):
        with pytest.raises(SingularAt):
            resolvent(linearize(ar), z)


def _screen_case():
    """A dense pencil, a regular point and the residual resolvent computes there."""
    rng = np.random.default_rng(7)
    cp = linearize(ArPencil(1, 12, [0.3 * rng.standard_normal((12, 12))]))
    z = 0.8 + 0.3j
    lhs = cp.identity() - z * cp.a1
    res = lhs @ np.linalg.solve(lhs, cp.identity()) - cp.identity()
    two, fro = np.linalg.norm(res, 2), np.linalg.norm(res)
    assert 0 < two < fro  # rounding residual of rank > 1: the screen can miss
    return cp, z, two, fro


def _count_svd_norms(monkeypatch):
    """List that grows by one per pencil.operator_norm call."""
    calls, real = [], pencil.operator_norm
    monkeypatch.setattr(pencil, "operator_norm", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_resolvent_screen_accepts_without_an_svd(monkeypatch):
    cp, z, _, _ = _screen_case()
    calls = _count_svd_norms(monkeypatch)
    out = resolvent(cp, z)
    assert calls == []
    assert_allclose((cp.identity() - z * cp.a1) @ out, cp.identity(), atol=1e-12)


def test_resolvent_screen_falls_back_to_the_spectral_norm(monkeypatch):
    cp, z, two, fro = _screen_case()
    default = resolvent(cp, z)
    calls = _count_svd_norms(monkeypatch)
    # ||R||_2 <= cut < ||R||_F: the screen misses, the exact test accepts
    monkeypatch.setitem(CUTOFFS, "residual", (two + fro) / 2)
    out = resolvent(cp, z)
    assert calls == [1]
    assert np.array_equal(out, default)
    # cut < ||R||_2: the exact test rejects
    monkeypatch.setitem(CUTOFFS, "residual", 0.5 * two)
    with pytest.raises(SingularAt):
        resolvent(cp, z)


# z B overflows on every contour around 1, so the residual is not finite
OVERFLOW_COEFF = np.array([[1.0, 1.7e308], [0.0, 0.5]])


def test_resolvent_with_a_non_finite_residual_is_singular():
    cp = linearize(ArPencil(1, 2, [OVERFLOW_COEFF]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SingularAt):
        resolvent(cp, 1.4)


HERMITIAN = {
    **{f"evenodd{n}": lambda n=n: build_example("ex-evenodd", n=n)[0]
       for n in (8, 16, 32, 64, 128)},
    **{f"selfadjoint{n}-{seed}": lambda n=n, seed=seed: build_example(
        "ex-selfadjoint", n=n, seed=seed)[0] for n in (8, 32, 128) for seed in range(6)},
    "identity": lambda: random_walk_model(2),
    "walks_and_ar1": lambda: ArPencil(1, 3, [np.diag([1.0, 1.0, 0.5])]),
    "complex": lambda: ArPencil(1, 2, [np.array([[1.0, 0.5j], [-0.5j, 0.3]])]),
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
def test_hermitian_operator_is_sampled_in_its_eigenbasis(make):
    cp = linearize(make())
    lam, q, qh = cp.hermitian_eig
    assert q.dtype == (np.float64 if not cp.a1.imag.any() else np.complex128)
    assert_allclose((q * lam) @ qh, cp.a1, rtol=0, atol=1e-13)
    assert cp.hermitian_eig is cp.hermitian_eig  # one eigh per pencil


@pytest.mark.parametrize("make", NOT_HERMITIAN.values(), ids=NOT_HERMITIAN.keys())
def test_other_operators_keep_the_lu_kernel(make):
    assert linearize(make()).hermitian_eig is None


@pytest.mark.parametrize("name", ["ex-evenodd", "ex-selfadjoint"])
def test_hermitian_kernel_matches_the_lu_inverse_on_the_default_circle(monkeypatch, name):
    cp = linearize(build_example(name)[0])
    radius = pick_radius(spectrum_report(cp))
    zs = 1.0 + radius * np.exp(2j * np.pi * np.arange(32) / 32)
    expected = [np.linalg.inv(cp.identity() - z * cp.a1) for z in zs]
    lu_calls, real_inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda *a: lu_calls.append(1) or real_inv(*a))
    for z, inv in zip(zs, expected):
        assert np.max(np.abs(resolvent(cp, z) - inv)) <= 1e-13
    assert lu_calls == []


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
