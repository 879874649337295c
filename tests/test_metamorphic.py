"""
Metamorphic relations: facts the theory fixes on any model, planted or not.

Only planted Jordan models have a known pole order; these relations hold
on every model, so they check the verdicts and the long-run projection P
where no answer is planted:

  * transpose: B^T (the dual pencil, where the cointegrating functionals
    live) has the same pole order and class, and P(B^T) = P(B)^T;
  * similarity: S B S^-1 has the same order and class, and P maps to
    S P S^-1 (cond S <= 10);
  * direct sum with diag(1, 0.5): the order, the class and the leading
    block of P are unchanged;
  * companion: an AR(p) model and its companion operator, saved as an
    AR(1) model, have the same order and class and the same observable
    long-run operators.

Orders and classes must agree exactly, operators within 1e-10 relative.
"""
from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grjkit.grj import check_i1, check_i2, i1_components, i2_components
from grjkit.laurent import pole_order
from grjkit.models import (ar2_double_root_model, ar2_unit_root_model, build_example,
                           jordan_model)
from grjkit.pencil import ArPencil, linearize, spectrum_report

RELATIVE = 1e-10  # operator agreement, relative to the expected operator's norm


def facts(ar: ArPencil):
    """(pole order, class 1, 2 or None, P, observable long-run operators)."""
    cp = linearize(ar)
    spectrum = spectrum_report(cp)
    order = pole_order(cp, spectrum=spectrum).order
    if check_i1(cp, spectrum=spectrum).holds:
        i1 = i1_components(cp, 0)
        return order, 1, i1.p_operator, [i1.long_run]
    if not check_i2(cp, spectrum=spectrum).holds:
        return order, None, None, []
    i2 = i2_components(cp, 0)
    return order, 2, i2.p_operator, [i2.long_run2, i2.long_run1]


def assert_close(actual, expected):
    gap = np.linalg.norm(actual - expected, 2)
    assert gap <= RELATIVE * max(1.0, np.linalg.norm(expected, 2)), gap


def ar1(b) -> ArPencil:
    return ArPencil(1, b.shape[0], [b])


def saved(ar: ArPencil) -> ArPencil:
    """``ar`` after a save and load through the JSON model format."""
    return ArPencil.from_json(json.loads(json.dumps(ar.to_json())))


def conditioned(seed: int, n: int) -> np.ndarray:
    """S = Q1 diag(d) Q2 with d in [1, 10], so cond S <= 10."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1 * np.exp(rng.uniform(0.0, np.log(10.0), size=n))) @ q2


planted = st.builds(lambda seed, blocks: jordan_model(seed, blocks_at_one=list(blocks))[0],
                    st.integers(0, 39), st.sampled_from([(1,), (2,), (1, 1), (2, 1), (2, 2)]))
builtin = st.sampled_from(["ex-c0", "ex-evenodd", "ex-selfadjoint"]).map(
    lambda name: build_example(name)[0])
ar2 = st.builds(lambda build, seed: build(seed),
                st.sampled_from([ar2_unit_root_model, ar2_double_root_model]),
                st.integers(0, 39))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.one_of(planted, builtin, ar2), st.integers(0, 2**31 - 1))
def test_metamorphic_relations(ar, s_seed):
    b = linearize(ar).a1
    order, cls, p_op, long_run = facts(ar)

    if ar.p > 1:  # companion
        c_order, c_cls, _, c_long_run = facts(saved(ar1(b)))
        assert (c_order, c_cls) == (order, cls)
        for mine, theirs in zip(long_run, c_long_run):
            assert_close(theirs[:ar.dim, :ar.dim], mine)

    t_order, t_cls, t_p, _ = facts(ar1(b.T))  # transpose
    assert (t_order, t_cls) == (order, cls)

    s = conditioned(s_seed, b.shape[0])  # similarity
    s_inv = np.linalg.inv(s)
    s_order, s_cls, s_p, _ = facts(ar1(s @ b @ s_inv))
    assert (s_order, s_cls) == (order, cls)

    d_order, d_cls, d_p, _ = facts(ar1(np.block(  # direct sum with diag(1, 0.5)
        [[b, np.zeros((b.shape[0], 2))], [np.zeros((2, b.shape[0])), np.diag([1.0, 0.5])]])))
    assert (d_order, d_cls) == (order, cls)

    if cls is not None:
        assert_close(t_p, p_op.T)
        assert_close(s_p, s @ p_op @ s_inv)
        assert_close(d_p[:b.shape[0], :b.shape[0]], p_op)
