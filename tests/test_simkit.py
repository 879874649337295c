"""
Simulator determinism, the filtering identity, representation checks on
small horizons, and the Monte Carlo stationarity machinery.  (The full
T=500 representation sweep lives in the acceptance suite.)
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grjkit.cointegration import beveridge_nelson
from grjkit.grj import i1_components, i2_components
from grjkit.models import ar2_unit_root_model, oblique_ar1_model, random_walk_model
from grjkit.numfield import operator_norm
from grjkit.pencil import linearize
from grjkit.simkit import (PRESAMPLE, ClassMismatch, SamplePath, consistent_initial,
                           differenced_ma, polynomial_cointegration_probe,
                           recursion_residual, simulate_ar, simulate_ensemble,
                           stationarity_slope, verify_representation)


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
                        path.innovations, path.initial, path.presample)
    assert recursion_residual(shift8, broken) > 1e-6


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
                      innovations=np.zeros((3, 2)), initial=np.zeros((1, 2)),
                      presample=np.zeros((0, 2)))
    # the per-element formatting that to_csv_text must reproduce byte for byte
    lines = ["t,coord_0,coord_1"] + [
        str(t) + "," + ",".join(repr(float(v)) for v in states[t - 1])
        for t in range(1, 4)]
    assert path.to_csv_text() == "\n".join(lines) + "\n"
    assert path.to_csv_text().splitlines()[1] == "1,-0.0,5e-324"


def test_extended_innovations_order():
    ar = random_walk_model(2)
    path = simulate_ar(ar, np.eye(2), horizon=5, seed=2)
    ext = path.extended_innovations()
    assert ext.shape == (PRESAMPLE + 5, 2)
    assert np.array_equal(ext[PRESAMPLE:], path.innovations)
    assert np.array_equal(ext[:PRESAMPLE], path.presample)


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
    lambda cov: consistent_initial(random_walk_model(2), np.eye(2), cov, seed=0),
], ids=["simulate_ar", "simulate_ensemble", "consistent_initial"])
def test_covariance_of_the_wrong_dimension_is_refused(call):
    # every model here is 2-dimensional
    with pytest.raises(ValueError, match="covariance dimension does not match the model"):
        call(np.eye(3))


def test_representation_random_walk_exact():
    ar = random_walk_model(2)
    cp = linearize(ar)
    rep = i1_components(cp, j_max=16)
    init = consistent_initial(ar, rep.p_operator, np.eye(2), seed=7)
    path = simulate_ar(ar, np.eye(2), horizon=120, seed=7, initial=init)
    check = verify_representation(path, rep, j_max=8, ar=ar)
    bound = 1e-6 * (1.0 + float(np.max(np.abs(path.states))))
    assert check.max_residual <= bound
    assert check.rep_class == "I1"
    assert_allclose(check.tau1, 0.0, atol=1e-12)


def test_representation_shift_model(shift8, shift8_cp):
    rep = i2_components(shift8_cp, j_max=40)
    init = consistent_initial(shift8, rep.p_operator, np.eye(8), seed=11)
    path = simulate_ar(shift8, np.eye(8), horizon=150, seed=11, initial=init)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        check = verify_representation(path, rep, j_max=32, ar=shift8)
    bound = 1e-6 * (1.0 + float(np.max(np.abs(path.states))))
    assert check.max_residual <= bound
    assert check.rep_class == "I2"


def test_class_mismatch_raises(shift8, shift8_cp, evenodd_cp):
    i1 = i1_components(evenodd_cp, j_max=16)
    path = simulate_ar(shift8, np.eye(8), horizon=60, seed=1)
    with pytest.raises(ClassMismatch):
        verify_representation(path, i1, j_max=8, ar=shift8)


def test_consistent_initial_rejects_level_outside_range(shift8, shift8_cp):
    rep = i2_components(shift8_cp, j_max=4)
    bad = np.ones(shift8_cp.big_dim)
    assert np.linalg.norm(rep.p_operator @ bad - bad) > 1e-3  # plainly not in ran P
    with pytest.raises(ValueError):
        consistent_initial(shift8, rep.p_operator, np.eye(8), seed=0, level=bad)


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


def test_differenced_ma_long_run_matches_projection(evenodd_cp):
    """The permanent loading of the differenced series equals the ambient
    compression of the spectral projection."""
    i1 = i1_components(evenodd_cp, j_max=60)
    ma = differenced_ma(i1)
    bn = beveridge_nelson(ma)
    assert operator_norm(bn.a_operator - i1.long_run) < 1e-7


def test_probe_rejects_non_i2_report(evenodd_cp):
    from grjkit.grj import NotI2
    i1 = i1_components(evenodd_cp, j_max=8)
    with pytest.raises((NotI2, TypeError, AttributeError)):
        polynomial_cointegration_probe(np.zeros((120, 50, 16)), i1)


def test_rank_deficient_covariance_warns():
    ar = random_walk_model(2)
    with pytest.warns(UserWarning):
        simulate_ar(ar, np.diag([1.0, 0.0]), horizon=10, seed=0)
