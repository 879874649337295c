"""
Simulator determinism, the filtering identity, representation checks on
small horizons, and the Monte Carlo stationarity machinery.  (The full
T=500 representation sweep lives in the acceptance suite.)
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grjkit.grj import i1_components, i2_components
from grjkit.models import (ar2_double_root_model, ar2_unit_root_model, build_example,
                           jordan_model, oblique_ar1_model, random_walk_model)
from grjkit.numfield import operator_norm
from grjkit.pencil import linearize
from grjkit.simkit import (ClassMismatch, SamplePath, recursion_residual, simulate_ar,
                           simulate_ensemble, stationarity_slope, verify_representation)
from oblique import oblique_projection
from reference import ar3_unit_root_model


def test_same_seed_same_bytes():
    ar = random_walk_model(2)
    a = simulate_ar(ar, np.eye(2), horizon=50, seed=9)
    b = simulate_ar(ar, np.eye(2), horizon=50, seed=9)
    assert a.to_csv_text() == b.to_csv_text()
    assert np.array_equal(a.states, b.states)
    c = simulate_ar(ar, np.eye(2), horizon=50, seed=10)
    assert not np.array_equal(a.states, c.states)


def test_recursion_residual_is_machine_small(shift8):
    path = simulate_ar(shift8, np.eye(8), horizon=80, seed=3)
    assert recursion_residual(shift8, path) < 1e-12


def test_recursion_residual_detects_tampering(shift8):
    path = simulate_ar(shift8, np.eye(8), horizon=80, seed=3)
    states = path.states.copy()
    states[40, 2] += 1e-3
    broken = SamplePath(path.model_id, path.seed, path.horizon, states,
                        path.innovations, path.initial)
    assert recursion_residual(shift8, broken) > 1e-6


@pytest.mark.parametrize("t", [1, 21])
def test_recursion_residual_is_not_finite_on_a_nan_state(shift8, t):
    # one NaN state must not hide behind the finite steps around it
    path = simulate_ar(shift8, np.eye(8), horizon=80, seed=3)
    states = path.states.copy()
    states[t - 1, 2] = np.nan
    broken = dataclasses.replace(path, states=states)
    assert not np.isfinite(recursion_residual(shift8, broken))


def test_recursion_residual_keeps_step_rounding_on_a_fast_growing_path():
    # a triple root reaches |X| ~ 4e7 by t = 1000, where a product that
    # regroups each step's sums rounds by ~1e-16 |A| |X|: above verify's 1e-8
    ar, _ = jordan_model(0, blocks_at_one=[3])
    path = simulate_ar(ar, np.eye(ar.dim), horizon=1000, seed=0)
    assert np.max(np.abs(path.states)) > 1e7
    assert recursion_residual(ar, path) <= 1e-12


def _stepwise_residual(ar, path):
    """max |X_t - eps_t - sum_j A_j X_{t-j}|, one step at a time."""
    coeffs = [np.asarray(c).real for c in ar.coeffs]
    worst = 0.0
    for t in range(1, path.horizon + 1):
        acc = path.states[t - 1] - path.innovations[t - 1]
        for j, a in enumerate(coeffs, start=1):
            acc = acc - a @ (path.states[t - j - 1] if t > j else path.initial[j - t])
        worst = max(worst, float(np.max(np.abs(acc))))
    return worst


@pytest.mark.parametrize("build", [ar2_unit_root_model, ar3_unit_root_model,
                                   ar2_double_root_model])
def test_recursion_residual_reads_every_lag_of_the_initial_state(build):
    ar = build()
    assert ar.p > 1
    # row i of initial is X_{-i}
    init = np.random.default_rng(ar.p * 10 + ar.dim).standard_normal((ar.p, ar.dim))
    path = simulate_ar(ar, np.eye(ar.dim), horizon=120, seed=5, initial=init)
    residual = recursion_residual(ar, path)
    assert residual <= 1e-12
    # both are rounding errors: they agree to a few ulps of the largest level
    ulp = np.finfo(float).eps * np.max(np.abs(path.states))
    assert abs(residual - _stepwise_residual(ar, path)) <= 4 * ulp
    shifted = dataclasses.replace(path, initial=init + 1e-3)
    assert recursion_residual(ar, shifted) > 1e-4


def test_csv_format():
    ar = random_walk_model(2)
    path = simulate_ar(ar, np.eye(2), horizon=4, seed=0)
    lines = path.to_csv_text().splitlines()
    assert lines[0] == "t,coord_0,coord_1"
    assert len(lines) == 5
    assert lines[1].startswith("1,")


def test_csv_rows_keep_the_shortest_round_trip_repr():
    values = [-0.0, 5e-324, 1e16, 1e-5, 0.1, -123.456]
    states = np.array(values).reshape(3, 2)
    path = SamplePath(model_id="", seed=0, horizon=3, states=states,
                      innovations=np.zeros((3, 2)), initial=np.zeros((1, 2)))
    # the per-element formatting that to_csv_text must reproduce byte for byte
    lines = ["t,coord_0,coord_1"] + [
        str(t) + "," + ",".join(repr(float(v)) for v in states[t - 1])
        for t in range(1, 4)]
    assert path.to_csv_text() == "\n".join(lines) + "\n"
    assert path.to_csv_text().splitlines()[1] == "1,-0.0,5e-324"


def test_ensemble_slice_equals_single_run():
    ar = oblique_ar1_model()
    ens = simulate_ensemble(ar, np.eye(ar.dim), horizon=40, seed=5,
                            replications=70)
    for r in (0, 33, 69):
        single = simulate_ar(ar, np.eye(ar.dim), horizon=40, seed=5,
                             replication=r)
        assert np.array_equal(ens[r], single.states)


def test_ensemble_thread_count_does_not_change_bytes():
    ar = oblique_ar1_model()
    serial = simulate_ensemble(ar, np.eye(ar.dim), horizon=30, seed=6,
                               replications=70, threads=1)
    threaded = simulate_ensemble(ar, np.eye(ar.dim), horizon=30, seed=6,
                                 replications=70, threads=4)
    assert np.array_equal(serial, threaded)


def test_ar2_ensemble_with_correlated_innovations_matches_single_paths():
    ar = ar2_unit_root_model()
    cov = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.5]])
    serial = simulate_ensemble(ar, cov, horizon=200, seed=4, replications=9, threads=1)
    threaded = simulate_ensemble(ar, cov, horizon=200, seed=4, replications=9, threads=3)
    assert serial.shape == (9, 200, 3)
    assert serial.tobytes() == threaded.tobytes()
    assert serial.tobytes() == np.ascontiguousarray(serial).tobytes()
    for r in range(9):
        single = simulate_ar(ar, cov, horizon=200, seed=4, replication=r).states
        gap = float(np.max(np.abs(serial[r] - single)))
        assert gap <= 1e-12 * (1.0 + float(np.max(np.abs(single))))


@pytest.mark.parametrize("bad", [{"horizon": 0}, {"replications": 0}, {"threads": 0},
                                 {"threads": -1}])
def test_ensemble_rejects_empty_sizes_and_thread_counts(bad):
    ar = oblique_ar1_model()
    args = {"horizon": 10, "seed": 0, "replications": 4, "threads": 1} | bad
    with pytest.raises(ValueError):
        simulate_ensemble(ar, np.eye(ar.dim), **args)


@pytest.mark.parametrize("call", [
    lambda cov: simulate_ar(oblique_ar1_model(), cov, 10, 0),
    lambda cov: simulate_ensemble(oblique_ar1_model(), cov, 10, 0, 4),
], ids=["simulate_ar", "simulate_ensemble"])
def test_covariance_of_the_wrong_dimension_is_refused(call):
    # every model here is 2-dimensional
    with pytest.raises(ValueError, match="covariance dimension does not match the model"):
        call(np.eye(3))


def _bound(path):
    return 1e-6 * (1.0 + float(np.max(np.abs(path.states))))


def test_representation_random_walk_exact():
    ar = random_walk_model(2)
    rep = i1_components(linearize(ar), j_max=16)
    init = np.array([[3.0, -1.5]])
    path = simulate_ar(ar, np.eye(2), horizon=120, seed=7, initial=init)
    check = verify_representation(ar, path, rep)
    assert check.max_residual <= _bound(path)
    assert check.rep_class == "I1"
    assert_allclose(check.tau0, init[0], atol=1e-12)  # P = I: the level is the start
    assert_allclose(check.tau1, 0.0, atol=1e-12)


def test_representation_shift_model(shift8, shift8_cp):
    rep = i2_components(shift8_cp, j_max=40)
    init = np.random.default_rng(11).standard_normal((1, 8))
    path = simulate_ar(shift8, np.eye(8), horizon=150, seed=11, initial=init)
    check = verify_representation(shift8, path, rep)
    assert check.max_residual <= _bound(path)
    assert check.rep_class == "I2"


# label -> (model builder, pole order at z = 1)
REPRESENTATION_MODELS = {
    "oblique-ar1": (oblique_ar1_model, 1),
    "ar2-unit": (lambda: ar2_unit_root_model(seed=11), 1),
    "ar3-unit": (lambda: ar3_unit_root_model(seed=17), 1),
    "ex-c0": (lambda: build_example("ex-c0", n=8)[0], 2),
    "ar2-double": (lambda: ar2_double_root_model(seed=13), 2),
    "jordan-[2,1]": (lambda: jordan_model(0, blocks_at_one=[2, 1])[0], 2),
}


@pytest.mark.parametrize("label", list(REPRESENTATION_MODELS))
def test_representation_exact_from_a_random_initial_state(label):
    build, order = REPRESENTATION_MODELS[label]
    ar = build()
    cp = linearize(ar)
    rep = i1_components(cp, j_max=4) if order == 1 else i2_components(cp, j_max=4)
    init = np.random.default_rng(sum(map(ord, label))).standard_normal((ar.p, ar.dim))
    path = simulate_ar(ar, np.eye(ar.dim), horizon=200, seed=3, initial=init)
    check = verify_representation(ar, path, rep)
    assert check.max_residual <= _bound(path)
    assert check.rep_class == f"I{order}"
    # the levels are predicted from the start: [P x0]_obs and [D x0]_obs
    # with D = -N_{-2}, which vanishes for a simple root
    start = init.reshape(-1)
    assert_allclose(check.tau0, (rep.p_operator @ start)[:ar.dim].real, atol=1e-12)
    tau1 = 0.0 if order == 1 else -(rep.n_minus2 @ start)[:ar.dim].real
    assert_allclose(check.tau1, tau1, atol=1e-12)
    if order == 2:
        assert np.linalg.norm(check.tau1) > 0.05  # the trend is really exercised
    assert 0.0 <= check.transient < 1e-9


def _per_lag_representation(ar, path, p_operator):
    """Reference for verify_representation: the stationary sum added one
    lag at a time, T products in all, with the transient R_t Xtilde_0 read
    off the row recursion.  Returns (max_residual, transient)."""
    cp = linearize(ar)
    b, p_op = cp.a1.real, np.asarray(p_operator).real
    n, t_count = ar.dim, path.horizon
    d_op = (b - np.eye(cp.big_dim)) @ p_op
    start = path.initial.reshape(-1)
    eps = path.innovations
    xi = np.cumsum(eps, axis=0)
    times = np.arange(1, t_count + 1, dtype=float)[:, None]
    predicted = ((p_op @ start)[:n] + times * (d_op @ start)[:n] + xi @ p_op[:n, :n].T
                 + (np.cumsum(xi, axis=0) - xi) @ d_op[:n, :n].T)
    rows = np.eye(n, cp.big_dim) - p_op[:n]
    for j in range(t_count):
        predicted[j:] += eps[:t_count - j] @ rows[:, :n].T
        rows = rows @ b
        predicted[j] += rows @ start
    return float(np.max(np.linalg.norm(path.states - predicted, axis=1))), operator_norm(rows)


def test_companion_pass_matches_the_per_lag_sum():
    # the check adds the stationary sum in one pass over t; the per-lag
    # form above is the same identity in T^2 time
    ar, _ = build_example("ex-c0", n=16)
    rep = i2_components(linearize(ar), j_max=4)
    init = np.random.default_rng(23).standard_normal((ar.p, ar.dim))
    path = simulate_ar(ar, np.eye(ar.dim), horizon=2000, seed=9, initial=init)
    check = verify_representation(ar, path, rep)
    residual, transient = _per_lag_representation(ar, path, rep.p_operator)
    assert check.max_residual <= _bound(path)
    assert check.max_residual == pytest.approx(residual, rel=1e-2)
    assert check.transient == transient


def test_wrong_complement_fails_the_check():
    # P onto ker M along (ker M)^perp instead of ran M: still a projection
    # onto ker M, but one that does not commute with B
    ar, _ = jordan_model(5, blocks_at_one=[1])
    cp = linearize(ar)
    rep = i1_components(cp, j_max=4)
    wrong = oblique_projection(cp.unit_kernel, cp.unit_kernel_complement)
    assert operator_norm(wrong - rep.p_operator) > 1.0
    path = simulate_ar(ar, np.eye(ar.dim), horizon=300, seed=5)
    assert verify_representation(ar, path, rep).max_residual <= _bound(path)
    bad = verify_representation(ar, path, dataclasses.replace(rep, p_operator=wrong))
    assert bad.max_residual > 1.0


def test_perturbed_order_two_projection_fails_the_check():
    ar, _ = jordan_model(3, blocks_at_one=[2, 1])
    cp = linearize(ar)
    rep = i2_components(cp, j_max=4)
    noise = np.random.default_rng(0).standard_normal(rep.p_operator.shape)
    path = simulate_ar(ar, np.eye(ar.dim), horizon=300, seed=3)
    assert verify_representation(ar, path, rep).max_residual <= _bound(path)
    bad = dataclasses.replace(rep, p_operator=rep.p_operator + 1e-2 * noise)
    assert verify_representation(ar, path, bad).max_residual > 1.0


def test_class_mismatch_raises(shift8, shift8_cp, evenodd_cp):
    i1 = i1_components(evenodd_cp, j_max=16)
    path = simulate_ar(shift8, np.eye(8), horizon=60, seed=1)
    with pytest.raises(ClassMismatch):
        verify_representation(shift8, path, i1)


def test_stationarity_slope_white_noise():
    rng = np.random.default_rng(12)
    series = rng.standard_normal((150, 400))
    rep = stationarity_slope(series)
    assert rep.stationary
    assert abs(rep.slope) < 0.01


def test_stationarity_slope_random_walk():
    rng = np.random.default_rng(13)
    walks = np.cumsum(rng.standard_normal((150, 400)), axis=1)
    rep = stationarity_slope(walks)
    assert not rep.stationary
    assert rep.slope == pytest.approx(1.0, rel=0.25)     # Var(X_t) = t


def test_stationarity_slope_needs_replications():
    with pytest.raises(ValueError):
        stationarity_slope(np.zeros((3, 100)))


def test_rank_deficient_covariance_warns():
    ar = random_walk_model(2)
    with pytest.warns(UserWarning):
        simulate_ar(ar, np.diag([1.0, 0.0]), horizon=10, seed=0)
