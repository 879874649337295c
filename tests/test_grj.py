"""
Closed-form representation components.  The strongest checks are exact:
a model built by similarity from a known canonical form has known
N_{-2}, N_{-1}, and spectral projection, and the closed-form route has
to reproduce them through the similarity.
"""
from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grjkit import laurent
from grjkit.grj import (I1Report, NotI1, NotI2, _order_two_projection, check_i1, check_i2,
                        i1_components, i2_components, taylor_h_coefficients, taylor_h_gap)
from grjkit.laurent import NoUnitRoot, contour_coefficients, pole_order, riesz_projection
from grjkit.models import (ar2_double_root_model, ar2_unit_root_model, build_example,
                           jordan_model, oblique_ar1_model)
from grjkit.numfield import CUTOFFS, NotComplementary, kernel_basis, operator_norm, range_basis
from grjkit.pencil import ArPencil, linearize, spectrum_report
from oblique import direct_sum_check, oblique_projection, order_two_projection
from reference import ar3_unit_root_model


def similarity_fixture():
    """B = S (J_2(1) (+) 1/2) S^{-1} with integer S: exact targets."""
    s = np.array([[1.0, 1.0, 0.0],
                  [0.0, 1.0, 2.0],
                  [1.0, 0.0, 1.0]])
    s_inv = np.linalg.inv(s)
    canon = np.array([[1.0, 1.0, 0.0],
                      [0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.5]])
    b = s @ canon @ s_inv
    n2_canon = np.array([[0.0, -1.0, 0.0],
                         [0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0]])
    p_canon = np.diag([1.0, 1.0, 0.0])
    return (linearize(ArPencil(1, 3, [b])),
            s @ n2_canon @ s_inv, s @ p_canon @ s_inv)


def test_order_two_components_match_similarity_oracle():
    cp, n2_target, p_target = similarity_fixture()
    rep = i2_components(cp, j_max=8)
    assert rep.holds
    assert_allclose(rep.n_minus2, n2_target, atol=1e-10)
    assert_allclose(rep.p_operator, p_target, atol=1e-10)
    assert rep.cross_check_residual < 1e-8


def test_shift_model_second_order_operator(shift8_cp):
    """The ambient second-order long-run operator of the truncated shift
    model concentrates on a single matrix entry."""
    rep = i2_components(shift8_cp, j_max=4)
    expected = np.zeros((8, 8))
    expected[1, 0] = -1.0
    assert_allclose(rep.long_run2, expected, atol=1e-10)


def skewed(space, perp, rng):
    """A complement of ``space`` tilted off its orthogonal complement ``perp``."""
    mix = 0.5 * rng.standard_normal((space.shape[1], perp.shape[1]))
    return range_basis(perp + space @ mix)


def test_components_are_complement_independent(shift8_cp, mixed21_cp):
    """The paper's P does not depend on the complements of ran M and ker M:
    the oracle builds it for the orthogonal pair and for skewed pairs, with
    M^g relative to each pair and the library's Gamma assembly, and every
    one is the library's P, which with N_{-2} matches the contour."""
    # jordan [2, 2] has dim K = 2, so J = Y^H M^+ K is 2 x 2; jordan [2, 2, 1]
    # adds a nontrivial graft Q^g to it
    mixed22_cp = linearize(jordan_model(1, blocks_at_one=[2, 2])[0])
    mixed221_cp = linearize(jordan_model(3, blocks_at_one=[2, 2, 1])[0])
    rng = np.random.default_rng(77)
    for cp in (shift8_cp, mixed21_cp, mixed22_cp, mixed221_cp):
        contour = contour_coefficients(cp, [-2, -1])
        rep = i2_components(cp, j_max=2)
        assert operator_norm(rep.n_minus2 - contour[-2]) < 1e-7
        for trial in range(3):
            if trial == 0:
                rc = kc = None
            else:
                rc = skewed(cp.unit_range, cp.unit_range_complement, rng)
                kc = skewed(cp.unit_kernel, cp.unit_kernel_complement, rng)
            p_op = order_two_projection(cp, rep.n_minus2, rc, kc)
            assert operator_norm(p_op - rep.p_operator) <= 1e-10
            assert operator_norm(rep.n_minus2 + p_op - contour[-1]) < 1e-7


def test_supplied_complements_that_fail_are_rejected(shift8_cp):
    # ker M is a line and ran M a hyperplane: a line inside ran M, or a
    # hyperplane through ker M, has the right dimension but complements
    # nothing; a space of the wrong dimension is rejected too.  The
    # message names the pair, so the first split checked is the one
    # that failed, not a later one downstream of it.
    ker, ran = shift8_cp.unit_kernel, shift8_cp.unit_range
    assert (ker.shape[1], ran.shape[1]) == (1, 7)
    inside_ran = range_basis(ran[:, :1])
    through_ker = range_basis(np.hstack([ker, shift8_cp.unit_kernel_complement[:, :6]]))
    n_minus2 = i2_components(shift8_cp, j_max=2).n_minus2
    for kwargs, dims in (({"ran_complement": inside_ran}, r"7\+1, defect 1"),
                         ({"ker_complement": through_ker}, r"1\+7, defect 1"),
                         ({"ran_complement": np.zeros((8, 0))}, r"7\+0, defect 1"),
                         ({"ker_complement": np.eye(8)}, r"1\+8, defect 0")):
        with pytest.raises(NotComplementary, match=rf"do not decompose C\^8: dims {dims}"):
            order_two_projection(shift8_cp, n_minus2, **kwargs)


def order_two_spaces(cp, ran_c):
    """(P_ran, W, W_C, P_W) of the paper for a complement ran_c of ran M:
    W = (I - P_ran) K_C, W_C = (I - P_ran) Y, and P_W the projection onto
    W along ran M (+) W_C (0 when W = {0})."""
    ran = cp.unit_range
    p_ran = oblique_projection(ran, ran_c)
    off_range = cp.identity() - p_ran
    w = off_range @ cp.unit_intersection_complement
    w_c = off_range @ cp.unit_sum_complement
    p_w = (oblique_projection(w, np.hstack([ran, w_c]))
           if w.shape[1] else np.zeros_like(off_range))
    return p_ran, w, w_c, p_w


def graft_reference(cp, w, p_w):
    """Q^g = [Q|_{K_C}]^{-1} P_W: Q = I - P_ran maps K_C onto W column by
    column, so the K_C coordinates of P_W x solve W coords = P_W x."""
    if not w.shape[1]:
        return np.zeros_like(p_w)
    coords, *_ = np.linalg.lstsq(w, p_w, rcond=None)
    return cp.unit_intersection_complement @ coords


def test_mixed_block_geometry_exercises_graft(mixed21_cp):
    rep = check_i2(mixed21_cp)
    assert rep.holds
    assert rep.k_dim == 1
    assert rep.w_dim == 1          # nontrivial W: Q^g actually used
    assert rep.n_minus2 is None and rep.p_operator is None  # the verdict builds no operator
    rep = i2_components(mixed21_cp, j_max=2)
    _, w, w_c, p_w = order_two_spaces(mixed21_cp, mixed21_cp.unit_range_complement)
    q_g = graft_reference(mixed21_cp, w, p_w)
    assert w_c.shape[1] == 1
    assert operator_norm(q_g) > 1e-8
    assert operator_norm(mixed21_cp.coupling_inverse - q_g) <= 1e-12 * operator_norm(q_g)
    p_op = _order_two_projection(mixed21_cp, rep.n_minus2)
    assert np.array_equal(p_op, rep.p_operator)
    assert operator_norm(p_op @ p_op - p_op) < 1e-10


def span(cols) -> np.ndarray:
    """Orthonormal basis of the span of ``cols``, kept as is without columns."""
    return range_basis(cols) if cols.shape[1] else cols


def stacked_intersection(a, b) -> np.ndarray:
    """Reference A /\\ B: x = U s = W t, so (s, t) spans the null space of
    the stacked basis equation [U  -W] (orthonormal U, W)."""
    null = kernel_basis(np.hstack([a, -b]))
    return span(a @ null[:a.shape[1]])


def projector_gap(a, b) -> float:
    """||P_a - P_b||_2 between the orthogonal projectors onto two spans."""
    qa, qb = span(a), span(b)
    return operator_norm(qa @ qa.conj().T - qb @ qb.conj().T)


# every block structure jordan_model draws at the unit root, and AR(2)
# products of a unit-root factor with a stable one or with itself
COUPLING_MODELS = (
    [(f"jordan{list(b)}", lambda seed, b=b: jordan_model(seed, blocks_at_one=list(b))[0])
     for b in [(1,), (2,), (3,)] + list(itertools.product((1, 2, 3), repeat=2))]
    + [("ar2-unit", ar2_unit_root_model), ("ar2-double", ar2_double_root_model)])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name, build", COUPLING_MODELS, ids=[n for n, _ in COUPLING_MODELS])
def test_coupling_gives_the_order_two_spaces(name, build, seed):
    """K, W and W_C read off the SVD of C = alpha_perp^H beta_perp: K spans
    the stacked-SVD intersection of ran M and ker M, dim K + dim W =
    dim ker M, dim W_C = dim K, W_C is orthogonal to ran M + ker M for the
    default complements, and W (+) W_C = ran_c for skewed pairs.  For each
    pair the graft [Q|_{K_C}]^{-1} P_W is cp.coupling_inverse, and so is
    the order-two projection built with N_{-2} = 0."""
    cp = linearize(build(seed))
    ker, ran, k_space = cp.unit_kernel, cp.unit_range, cp.unit_intersection
    reference = stacked_intersection(ran, ker)
    assert k_space.shape[1] == reference.shape[1]
    assert projector_gap(k_space, reference) <= 1e-10
    q_gap = 1e-12 * max(1.0, operator_norm(cp.coupling_inverse))
    _, w, w_c, p_w = order_two_spaces(cp, cp.unit_range_complement)
    assert k_space.shape[1] + w.shape[1] == ker.shape[1]
    assert w_c.shape[1] == k_space.shape[1]
    assert np.max(np.abs(w_c.conj().T @ np.hstack([ran, ker])),
                  initial=0.0) <= 1e-10
    assert operator_norm(cp.coupling_inverse - graft_reference(cp, w, p_w)) <= q_gap
    rng = np.random.default_rng(seed)
    for _ in range(3):
        ran_c = skewed(ran, cp.unit_range_complement, rng)
        _, w, w_c, p_w = order_two_spaces(cp, ran_c)
        w_and_w_c = np.hstack([w, w_c])
        assert range_basis(w_and_w_c).shape[1] == ran_c.shape[1]
        assert projector_gap(w_and_w_c, ran_c) <= 1e-10
        assert operator_norm(cp.coupling_inverse - graft_reference(cp, w, p_w)) <= q_gap
        # with N_{-2} = 0 the projection is the graft alone, as Q^g P_ran = 0
        no_pole = order_two_projection(cp, np.zeros_like(cp.m), ran_c,
                                       skewed(ker, cp.unit_kernel_complement, rng))
        assert operator_norm(no_pole - cp.coupling_inverse) <= q_gap


def regime_model(n, cond, seed):
    """The regime map's model: 1-2 Jordan blocks of size 1-3 at 1, a stable
    diagonal rest uniform in [-0.8, 0.8], conjugated by
    S = Q_1 diag(logspace(0, log10 cond, n)) Q_2."""
    rng = np.random.default_rng(seed)
    blocks = [int(b) for b in rng.integers(1, 4, size=int(rng.integers(1, 3)))]
    j = np.diag(np.concatenate([np.ones(sum(blocks)),
                                rng.uniform(-0.8, 0.8, n - sum(blocks))]))
    pos = 0
    for size in blocks:
        j[pos + np.arange(size - 1), pos + np.arange(1, size)] = 1.0
        pos += size
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = q1 @ np.diag(np.logspace(0, np.log10(cond), n)) @ q2
    return ArPencil(1, n, [s @ j @ np.linalg.inv(s)])


def split_reference(cp):
    """(holds, defect) of the order-two split decided on the n x n
    geometry, kept as the oracle for J: the image M^+ K, orthonormalized
    with the rank rule and a floor at CUTOFFS["rank"] ||M^+|| (so a zero
    image cannot resurface as rounding noise), against the plain basis
    [ran M | W] of ran M + ker M."""
    n, k = cp.big_dim, cp.unit_intersection
    u, s, vh = np.linalg.svd(cp.m)
    r = int(np.sum(s > CUTOFFS["rank"] * s[0]))
    m_plus = (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T
    image = np.zeros((n, 0))
    if k.shape[1]:
        u, s, _ = np.linalg.svd(m_plus @ k, full_matrices=False)
        floor = CUTOFFS["rank"] * max(s[0], operator_norm(m_plus))
        image = u[:, :int(np.sum(s > floor))]
    ran, k_c = cp.unit_range, cp.unit_intersection_complement
    w = k_c - ran @ (ran.conj().T @ k_c)
    split = direct_sum_check(np.hstack([ran, w]), image)
    return k.shape[1] > 0 and split.holds, split.defect


def n_minus2_through_w_c(cp, ran_c, ker_c):
    """N_{-2} = K (A M^g K)^{-1} A with A = W_C^H P_{W_C}: the restricted
    map K -> W_C of the paper, for a given complement pair, with the
    generalized inverse M^g = K_C (M K_C)^+ P_ran (K_C the basis of ker_c)."""
    eye = cp.identity()
    p_ran, _, w_c, p_w = order_two_spaces(cp, ran_c)
    coeffs, *_ = np.linalg.lstsq(cp.m @ ker_c, p_ran, rcond=None)
    gen_inverse = ker_c @ coeffs
    a = w_c.conj().T @ (eye - p_ran - p_w)
    k = cp.unit_intersection
    return k @ np.linalg.solve(a @ gen_inverse @ k, a)


# COUPLING_MODELS at seeds 0-2, and the regime map's slice at n = 8:
# cond(S) in {1e1, 1e3}, seeds 0-19
SPLIT_CASES = ([(name, build, seed) for name, build in COUPLING_MODELS for seed in range(3)]
               + [(f"regime-c{c:.0e}", lambda seed, c=c: regime_model(8, c, seed), seed)
                  for c in (1e1, 1e3) for seed in range(20)])


@pytest.mark.parametrize("name, build, seed", SPLIT_CASES,
                         ids=[f"{name}-{seed}" for name, _, seed in SPLIT_CASES])
def test_j_decides_the_order_two_split(name, build, seed):
    """check_i2's verdict on the k x k matrix J = Y^H M^+ K equals the n x n
    split (ran M + ker M) (+) M^+ K in holds and defect; a planted Jordan
    model fails by one per block of size 3 or more (jordan [3]: K != {0},
    defect 1).  Where it holds, N_{-2} = K J^{-1} Y^H equals the route
    through P_{W_C} for a skewed complement pair."""
    cp = linearize(build(seed))
    rep = check_i2(cp)
    assert (rep.holds, rep.defect) == split_reference(cp)
    if name.startswith("jordan"):
        assert rep.defect == sum(b >= 3 for b in json.loads(name[len("jordan"):]))
    if rep.holds:
        rng = np.random.default_rng(seed)
        ran_c = skewed(cp.unit_range, cp.unit_range_complement, rng)
        ker_c = skewed(cp.unit_kernel, cp.unit_kernel_complement, rng)
        u, s, vh, _ = cp.order_two_coupling
        n_minus2 = cp.unit_intersection @ (vh.conj().T / s) @ (
            cp.unit_sum_complement @ u).conj().T
        reference = n_minus2_through_w_c(cp, ran_c, ker_c)
        assert operator_norm(n_minus2 - reference) <= 1e-12 * operator_norm(reference)


def test_simple_pole_projection_is_riesz(evenodd_cp):
    rep = i1_components(evenodd_cp, 0)
    assert rep.holds and rep.defect == 0
    assert_allclose(rep.p_operator, riesz_projection(evenodd_cp), atol=1e-8)


def test_h_series_inverts_the_pencil(evenodd_cp):
    """(I - z B) sum_j B^j (I - P) z^j telescopes to I - P (up to the
    geometric tail), which is exactly what makes nu_t stationary."""
    rep = i1_components(evenodd_cp, j_max=4)
    p = rep.p_operator
    eye = evenodd_cp.identity()
    terms = 220
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = 0.9 * np.exp(2j * np.pi * rng.uniform())
        h_z = np.zeros_like(p)
        power = eye - p
        for j in range(terms):
            h_z += power * z ** j
            power = evenodd_cp.a1 @ power
        gap = (eye - z * evenodd_cp.a1) @ h_z - (eye - p)
        assert operator_norm(gap) < 1e-8


@pytest.mark.parametrize("build", [lambda: build_example("ex-evenodd", n=16)[0],
                                   ar2_unit_root_model], ids=["ex-evenodd", "ar2"])
def test_long_run_is_the_observable_projection_and_h_vanishes(build):
    """The closed form's two facts: P_obs multiplies the random walk, and
    the stationary coefficients h_j decay, so the h tail adds nothing to
    the long-run sum.  On the AR(2) model the observable block is a real
    compression of the companion projection."""
    ar = build()
    rep = i1_components(linearize(ar), j_max=60)
    assert np.array_equal(rep.long_run, rep.p_operator[:ar.dim, :ar.dim])
    assert len(rep.h_coeffs) == 61
    assert operator_norm(rep.h_coeffs[60]) < 1e-7


def test_h_coefficients_cross_check(evenodd_cp, shift8_cp):
    i1 = i1_components(evenodd_cp, j_max=20)
    assert i1.cross_check_residual < 1e-6
    i2 = i2_components(shift8_cp, j_max=20)
    assert i2.cross_check_residual < 1e-6


def test_taylor_route_agrees_with_closed_h(evenodd_cp):
    i1 = i1_components(evenodd_cp, j_max=12)
    principal = contour_coefficients(evenodd_cp, [-1])
    kept = {j: c.copy() for j, c in principal.items()}
    taylor = taylor_h_coefficients(evenodd_cp, 12, principal)
    for closed, quad in zip(i1.h_coeffs, taylor):
        assert operator_norm(closed - quad) < 1e-6
    # the principal part is added into each fresh resolvent, never into N_j
    assert all(np.array_equal(principal[j], kept[j]) for j in kept)
    again = taylor_h_coefficients(evenodd_cp, 12, principal)
    assert len(again) == len(taylor)
    assert all(np.array_equal(a, b) for a, b in zip(taylor, again))


_I1_MODELS = {
    "evenodd16": lambda: build_example("ex-evenodd", n=16)[0],
    "evenodd32": lambda: build_example("ex-evenodd", n=32)[0],
    "selfadjoint": lambda: build_example("ex-selfadjoint")[0],
    "ar2": ar2_unit_root_model,
    "ar3": ar3_unit_root_model,
    "oblique": oblique_ar1_model,
    "walks_and_ar1": lambda: ArPencil(1, 3, [np.diag([1.0, 1.0, 0.5])]),
    **{f"jordan{len(blocks)}x1-{seed}": lambda blocks=blocks, seed=seed:
       jordan_model(seed, blocks_at_one=blocks)[0]
       for blocks, seed in itertools.product([[1], [1, 1]], range(8))},
}


@pytest.mark.parametrize("name", _I1_MODELS)
def test_taylor_h_gap_restates_the_p_check_on_order_one(name):
    # h_j = [B^j (I - P)]_obs and B^j P = P, so the Taylor route's gap is the
    # gap between the contour and the closed-form P, up to its own rounding:
    # i1_components has no reason to run it
    cp = linearize(_I1_MODELS[name]())
    rep = i1_components(cp, j_max=40)
    assert taylor_h_gap(cp, rep.h_coeffs, 1) <= rep.cross_check_residual + 1e-12


def test_class_exclusivity():
    order3, _ = jordan_model(1, blocks_at_one=[3])
    cp3 = linearize(order3)
    assert not check_i1(cp3).holds
    assert not check_i2(cp3).holds
    with pytest.raises(NotI1):
        i1_components(cp3, j_max=2)
    with pytest.raises(NotI2):
        i2_components(cp3, j_max=2)


def test_i1_and_i2_disagree_on_purpose(shift8_cp, evenodd_cp):
    assert not check_i1(shift8_cp).holds    # double pole
    assert check_i2(shift8_cp).holds
    assert check_i1(evenodd_cp).holds       # simple pole
    assert not check_i2(evenodd_cp).holds


def test_i1_defect_reported_for_double_pole(shift8_cp):
    rep = check_i1(shift8_cp)
    assert rep.defect > 0


def test_gate_requires_unit_root():
    cp = linearize(ArPencil(1, 2, [np.diag([0.3, 0.4])]))
    with pytest.raises(NoUnitRoot):
        check_i1(cp)
    with pytest.raises(NoUnitRoot):
        check_i2(cp)


@pytest.mark.parametrize("name", ["ex-evenodd", "ex-selfadjoint", "ex-c0"])
def test_shared_spectrum_and_residue_change_no_field(name):
    # analyze hands one spectrum report to all three decisions; each must
    # come out as if it had computed its own
    cp = linearize(build_example(name)[0])
    rep = spectrum_report(cp)
    shared, own = check_i1(cp, spectrum=rep), check_i1(cp)
    assert shared.holds == (name != "ex-c0")
    for field in dataclasses.fields(I1Report):
        a, b = getattr(shared, field.name), getattr(own, field.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name
    assert pole_order(cp, spectrum=rep) == pole_order(cp)
    shared2, own2 = check_i2(cp, spectrum=rep), check_i2(cp)
    assert (shared2.holds, shared2.k_dim, shared2.w_dim, shared2.defect) == \
        (own2.holds, own2.k_dim, own2.w_dim, own2.defect)


@pytest.mark.parametrize("ar", [ArPencil(1, 2, [np.diag([0.3, 0.4])]),  # 1 is no root
                                ArPencil(1, 2, [np.diag([1.0, -1.0])])],  # 1 is not isolated
                         ids=["stable", "not_isolated"])
def test_shared_spectrum_without_unit_root_is_refused(ar):
    cp = linearize(ar)
    rep = spectrum_report(cp)
    assert not rep.unit_root_ok
    for check in (lambda: pole_order(cp, spectrum=rep),
                  lambda: check_i1(cp, spectrum=rep),
                  lambda: check_i2(cp, spectrum=rep)):
        with pytest.raises(NoUnitRoot):
            check()


@pytest.mark.parametrize("name", ["ex-evenodd", "ex-c0"])  # I(1), I(2)
def test_class_verdicts_run_no_quadrature(monkeypatch, name):
    # check_i1 and check_i2 read integers off the pencil: no contour, no operator
    cp = linearize(build_example(name)[0])
    circle, calls = laurent.circle_coefficients, []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("center"))
        return circle(*args, **kwargs)

    monkeypatch.setattr(laurent, "circle_coefficients", counted)
    verdicts = check_i1(cp), check_i2(cp)
    assert [rep.holds for rep in verdicts] == [name == "ex-evenodd", name == "ex-c0"]
    assert calls == []
    assert all(rep.p_operator is None for rep in verdicts)
    pole_order(cp)  # the counter does see a quadrature: the pole order's one contour
    assert calls == [1.0]


def test_long_run_operators_are_ambient(shift8, shift8_cp):
    rep = i2_components(shift8_cp, j_max=2)
    assert rep.long_run2.shape == (shift8.dim, shift8.dim)
    assert rep.long_run1.shape == (shift8.dim, shift8.dim)
    # second-order loading never vanishes for a genuine double root
    assert operator_norm(rep.long_run2) > 1e-8


def test_class_checks_decompose_m_once(monkeypatch):
    # the spectrum reports, the pole order, check_i1, the order-two
    # geometry and its generalized inverse all read the pencil's one SVD
    # of M = I - B (a fresh pencil: a fixture pencil keeps its caches)
    cp = linearize(jordan_model(2, blocks_at_one=[2])[0])
    m = cp.identity() - cp.a1
    svd = np.linalg.svd
    calls = []

    def counted(a, *args, **kwargs):
        if np.array_equal(a, m):
            calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for _ in range(3):
        assert spectrum_report(cp).unit_root_ok
    assert pole_order(cp).order == 2
    assert not check_i1(cp).holds
    assert check_i2(cp).holds
    assert calls == [True]  # one full SVD
