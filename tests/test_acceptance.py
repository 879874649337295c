"""
End-to-end acceptance: eight criteria, one printed PASS/FAIL line each.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; tolerances and seeds are pinned, not tuned per run.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from grjkit.cli import main as cli_main
from grjkit.cointegration import annihilators
from grjkit.grj import check_i1, check_i2, i1_components, i2_components, \
    taylor_h_coefficients
from grjkit.laurent import (contour_coefficients, essential_from_sweep, pole_order,
                            riesz_projection)
from grjkit.models import (ar2_double_root_model, ar2_unit_root_model, build_example,
                           jordan_model, oblique_ar1_model, random_walk_model,
                           volterra_model)
from grjkit.numfield import kernel_basis, operator_norm, range_basis
from grjkit.pencil import linearize, resolvent
from grjkit.laurent import circle_coefficients
from grjkit.simkit import (simulate_ar, simulate_ensemble, stationarity_slope,
                           verify_representation)
from oblique import order_two_projection
from reference import ar3_unit_root_model, eval_poly

pytestmark = pytest.mark.acceptance


def verdict(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# -- fixture model collections -------------------------------------------

def i1_model_set():
    ev, _ = build_example("ex-evenodd", n=16)
    sa, _ = build_example("ex-selfadjoint")
    return [("ex-evenodd", ev), ("ex-selfadjoint", sa),
            ("random-walk", random_walk_model(2)),
            ("oblique-ar1", oblique_ar1_model()),
            ("ar2-unit", ar2_unit_root_model(seed=11)),
            ("ar3-unit", ar3_unit_root_model(seed=17))]


def i2_model_set():
    c0, _ = build_example("ex-c0", n=8)
    j2, _ = jordan_model(2, blocks_at_one=[2])
    j21, _ = jordan_model(0, blocks_at_one=[2, 1])
    return [("ex-c0", c0), ("jordan-[2]", j2), ("jordan-[2,1]", j21),
            ("ar2-double", ar2_double_root_model(seed=13))]


# -- criterion 1: worked-example verdicts --------------------------------

def test_criterion_1_example_verdicts():
    start = time.monotonic()
    failures = []

    c0, _ = build_example("ex-c0", n=8, lam=0.5)
    cp = linearize(c0)
    if pole_order(cp).order != 2:
        failures.append("ex-c0 order")
    if check_i1(cp).holds or not check_i2(cp).holds:
        failures.append("ex-c0 class")

    ev, _ = build_example("ex-evenodd", n=16)
    cp = linearize(ev)
    if pole_order(cp).order != 1:
        failures.append("ex-evenodd order")
    if operator_norm(riesz_projection(cp) - cp.a1) > 1e-8:
        failures.append("ex-evenodd projection != generator")

    sa, _ = build_example("ex-selfadjoint")
    if pole_order(linearize(sa)).order != 1:
        failures.append("ex-selfadjoint order")

    dims, orders = [4, 8, 16], []
    for n in dims:
        orders.append(pole_order(linearize(volterra_model(n))).order)
    if orders != dims:
        failures.append(f"volterra orders {orders}")
    if not essential_from_sweep(dims, orders):
        failures.append("volterra essential flag")

    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    verdict(1, not failures,
            f"example verdicts in {elapsed:.2f}s"
            + (f"; failures: {failures}" if failures else ""))


# -- criterion 2: planted Jordan structure oracle ------------------------

def test_criterion_2_jordan_oracle():
    start = time.monotonic()
    bad = []
    for seed in range(200):
        ar, info = jordan_model(seed)
        if info["cond"] > 1e3:
            bad.append((seed, "conditioning"))
            continue
        cp = linearize(ar)
        biggest = max(info["block_sizes"])
        rep = pole_order(cp)
        if rep.order != biggest:
            bad.append((seed, f"order {rep.order} != {biggest}"))
            continue
        if check_i1(cp).holds != (biggest == 1):
            bad.append((seed, "I(1) verdict"))
        elif check_i2(cp).holds != (biggest == 2):
            bad.append((seed, "I(2) verdict"))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 30.0
    verdict(2, ok, f"200 planted models in {elapsed:.1f}s"
            + (f"; mismatches: {bad[:5]}" if bad else ""))


# -- criterion 3: closed forms against the contour -----------------------

def skewed(space, perp, rng):
    """A complement of ``space`` tilted off its orthogonal complement ``perp``."""
    mix = 0.5 * rng.standard_normal((space.shape[1], perp.shape[1]))
    return range_basis(perp + space @ mix)


def test_criterion_3_closed_vs_contour():
    rng = np.random.default_rng(99)
    worst_i1, worst_h, worst_i2 = 0.0, 0.0, 0.0
    for name, ar in i1_model_set():
        cp = linearize(ar)
        closed = i1_components(cp, j_max=20)
        contour = contour_coefficients(cp, [-1])
        worst_i1 = max(worst_i1, operator_norm(closed.p_operator - contour[-1]))
        quad = taylor_h_coefficients(cp, 20, contour)
        for a, b in zip(closed.h_coeffs, quad):
            worst_h = max(worst_h, operator_norm(a - b))
    for name, ar in i2_model_set():
        cp = linearize(ar)
        contour = contour_coefficients(cp, [-2, -1])
        rep = i2_components(cp, j_max=2)
        worst_i2 = max(worst_i2, operator_norm(rep.n_minus2 - contour[-2]))
        # the library's P, then the oracle's for two skewed complement pairs
        for trial in range(3):
            p_op = rep.p_operator if trial == 0 else order_two_projection(
                cp, rep.n_minus2, skewed(cp.unit_range, cp.unit_range_complement, rng),
                skewed(cp.unit_kernel, cp.unit_kernel_complement, rng))
            worst_i2 = max(worst_i2, operator_norm(rep.n_minus2 + p_op - contour[-1]))
    ok = worst_i1 <= 1e-7 and worst_h <= 1e-6 and worst_i2 <= 1e-6
    verdict(3, ok, f"projection gap {worst_i1:.2e}, h gap {worst_h:.2e}, "
                   f"order-2 gap {worst_i2:.2e} over 3 complement choices")


# -- criterion 4: coefficient algebra ------------------------------------

def algebra_fixtures():
    models = [ar for _, ar in i1_model_set()] + [ar for _, ar in i2_model_set()]
    models.append(volterra_model(4))
    return models


def test_criterion_4_laurent_algebra():
    worst = 0.0
    rng = np.random.default_rng(17)
    for ar in algebra_fixtures():
        cp = linearize(ar)
        order = pole_order(cp).order
        lo = -order - 3
        js = list(range(lo, 4))
        coeffs = contour_coefficients(cp, js)
        scale = max(operator_norm(c) for c in coeffs.values())
        for j in (-2, -1, 0, 1):
            for k in (-2, -1, 0, 1):
                left = coeffs[j] @ cp.a1 @ coeffs[k]
                right = (1.0 - (j >= 0) - (k >= 0)) * coeffs[j + k + 1]
                worst = max(worst, operator_norm(left - right) / scale)
        m = cp.identity() - cp.a1
        for j in (-2, -1, 0):
            lhs = cp.a1 @ coeffs[j - 1] - m @ coeffs[j]
            rhs = cp.identity() if j == 0 else np.zeros_like(lhs)
            worst = max(worst, operator_norm(lhs - rhs) / max(scale, 1.0))
        checked = 0
        while checked < 10:
            z, w = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            try:
                rz, rw = resolvent(cp, z), resolvent(cp, w)
            except ArithmeticError:
                continue
            gap = rz - rw - (z - w) * (rz @ cp.a1 @ rw)
            denom = max(operator_norm(rz), 1.0)
            worst = max(worst, operator_norm(gap) / denom)
            checked += 1
        p = riesz_projection(cp)
        worst = max(worst, operator_norm(p @ p - p) / max(operator_norm(p), 1.0))
        worst = max(worst, operator_norm(p @ cp.a1 - cp.a1 @ p))
    verdict(4, worst <= 1e-7, f"worst scaled algebra residual {worst:.2e}")


# -- criterion 5: representation exactness over T = 500 ------------------

def test_criterion_5_representation_exactness():
    # the check predicts every path exactly from its own initial state, so
    # each model starts from a seeded random state, not from rest
    horizon = 500
    details = []
    ok = True

    def check(label, ar, rep, seed, start=None, want_trend=False):
        nonlocal ok
        if start is None:
            start = np.random.default_rng(seed).standard_normal(ar.p * ar.dim)
        path = simulate_ar(ar, np.eye(ar.dim), horizon=horizon, seed=seed,
                           initial=start.reshape(ar.p, ar.dim))
        chk = verify_representation(ar, path, rep)
        bound = 1e-6 * (1.0 + float(np.max(np.abs(path.states))))
        good = chk.max_residual <= bound
        if want_trend:
            good = good and np.linalg.norm(chk.tau1) > 0.1
        ok = ok and good
        details.append(f"{label} {chk.max_residual:.1e}")

    for label, ar, seed in (("random-walk", random_walk_model(2), 1),
                            ("oblique-ar1", oblique_ar1_model(), 2),
                            ("ar2-unit", ar2_unit_root_model(seed=11), 4)):
        check(label, ar, i1_components(linearize(ar), j_max=8), seed)

    c0, _ = build_example("ex-c0", n=8)
    check("ex-c0", c0, i2_components(linearize(c0), j_max=8), seed=3)

    # a start along the top right singular vector of D = -N_{-2}, so the
    # predicted trend tau1 = [D x0]_obs is plainly nonzero
    j2, _ = jordan_model(2, blocks_at_one=[2])
    rep = i2_components(linearize(j2), j_max=8)
    _, _, vt = np.linalg.svd(rep.n_minus2.real)
    check("jordan-J2+trend", j2, rep, seed=5, start=3.0 * vt[0], want_trend=True)

    verdict(5, ok, "residuals: " + ", ".join(details))


# -- criterion 6: cointegration in simulation ----------------------------

def loaded_functionals(a_op, dim):
    u, _, _ = np.linalg.svd(a_op)
    funcs = [u[:, 0].real]
    row_norms = np.linalg.norm(a_op, axis=1)
    for i in np.argsort(row_norms)[::-1][:2]:
        if row_norms[i] > 0.3 * row_norms.max():
            e = np.zeros(dim)
            e[i] = 1.0
            funcs.append(e)
    return funcs


def test_criterion_6_cointegration_simulation():
    start = time.monotonic()
    reps, horizon = 200, 2000
    problems = []
    for label, ar, seed in (("oblique-ar1", oblique_ar1_model(), 22),
                            ("ar2-unit", ar2_unit_root_model(seed=11), 20)):
        cp = linearize(ar)
        rep = i1_components(cp, j_max=24)
        a_op = rep.long_run.real
        cov = np.eye(ar.dim)
        ens = simulate_ensemble(ar, cov, horizon=horizon, seed=seed,
                                replications=reps, threads=4)
        coint = kernel_basis(a_op.T)
        if coint.shape[1] == 0:
            problems.append(f"{label}: no cointegrating space")
        for i in range(coint.shape[1]):
            f = coint[:, i].real
            if not stationarity_slope(ens @ f).stationary:
                problems.append(f"{label}: cointegrating functional {i}")
        for k, f in enumerate(loaded_functionals(a_op, ar.dim)):
            predicted = float(f @ a_op @ cov @ a_op.T @ f)
            slope_rep = stationarity_slope(ens @ f)
            rel = abs(slope_rep.slope - predicted) / predicted
            if slope_rep.stationary or rel > 0.15:
                problems.append(f"{label}: loaded functional {k} rel {rel:.1%}")

    # two tiers on ex-c0: functionals killing the second-order loading make
    # the differences stationary, those also killing the first-order one the
    # levels; the leading left singular vector of the second-order loading
    # is the negative control
    c0, _ = build_example("ex-c0", n=8)
    i2 = i2_components(linearize(c0), j_max=24)
    ens = simulate_ensemble(c0, np.eye(8), horizon=1200, seed=23,
                            replications=160, threads=4)
    lr2, lr1 = i2.long_run2.real, i2.long_run1.real
    diffs = np.diff(ens, axis=1)
    for tier, series, ann in ((1, diffs, annihilators(lr2)),
                              (2, ens, annihilators(lr2, lr1 - lr2))):
        for k in range(ann.shape[1]):
            if not stationarity_slope(series @ ann[:, k].real).stationary:
                problems.append(f"ex-c0 tier-{tier} functional {k}")
    if stationarity_slope(diffs @ np.linalg.svd(lr2)[0][:, 0]).stationary:
        problems.append("ex-c0 negative control")

    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    verdict(6, not problems, f"variance law and two-tier probe in "
            f"{elapsed:.1f}s" + (f"; issues: {problems}" if problems else ""))


# -- criterion 7: companion vs direct ambient fit -------------------------

def test_criterion_7_schur_consistency():
    details = []
    ok = True
    for label, ar in (("ar2-unit", ar2_unit_root_model(seed=11)),
                      ("ar2-double", ar2_double_root_model(seed=13)),
                      ("ar3-unit", ar3_unit_root_model(seed=17))):
        companion = pole_order(linearize(ar)).order
        js = list(range(-4, 1))
        coeffs, _, _ = circle_coefficients(
            lambda z: np.linalg.inv(eval_poly(ar, z)), js, radius=0.25)
        peak = max(operator_norm(coeffs[j]) for j in js)
        direct = max((-j for j in js if j < 0
                      and operator_norm(coeffs[j]) > 1e-8 * peak), default=0)
        ok = ok and companion == direct
        details.append(f"{label} {companion}/{direct}")
    verdict(7, ok, "companion/direct orders: " + ", ".join(details))


# -- criterion 8: byte stability ------------------------------------------

def test_criterion_8_byte_stability(tmp_path, capsys):
    pairs = []
    for stem, argv in (
            ("analyze", ["analyze", "ex-c0", "--n", "8"]),
            ("represent", ["represent", "ex-evenodd"]),
            ("simulate", ["simulate", "ex-c0", "--n", "8", "--horizon", "80",
                          "--seed", "13"])):
        a = tmp_path / f"{stem}_a"
        b = tmp_path / f"{stem}_b"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        pairs.append((stem, a.read_bytes() == b.read_bytes()))
    capsys.readouterr()
    ok = all(same for _, same in pairs)
    verdict(8, ok, "byte-identical outputs: "
            + ", ".join(f"{stem}={'yes' if same else 'NO'}"
                        for stem, same in pairs))
