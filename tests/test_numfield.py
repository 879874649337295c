"""
Tests for the dense linear-algebra layer: ranks and subspaces against an
exact rational oracle, projections, the oblique projections and checked
generalized inverse of the test oracle (oblique.py), and the JSON wire
format.
"""
from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grjkit.laurent import essential_from_sweep
from grjkit.numfield import (CUTOFFS, NotComplementary, ascent_at_one, dump_json,
                             fit_geometric_decay, kernel_and_range, kernel_basis,
                             matrix_from_json, matrix_to_json, operator_norm,
                             range_basis, subspace_to_json, within)
from grjkit.pencil import ArPencil, linearize, spectrum_report
from oblique import direct_sum_check, generalized_inverse, oblique_projection


def exact_rank(m) -> int:
    """Rank by fraction-exact Gaussian elimination (oracle for integer input)."""
    rows = [[Fraction(int(v)) for v in row] for row in np.asarray(m)]
    rank = 0
    col = 0
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    while rank < n_rows and col < n_cols:
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, n_rows):
            factor = rows[r][col] / lead
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


int_matrices = arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                      elements=st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(int_matrices)
def test_rank_matches_rational_elimination(m):
    assert range_basis(m.astype(float)).shape[1] == exact_rank(m)


@settings(max_examples=60, deadline=None)
@given(int_matrices)
def test_rank_nullity(m):
    a = m.astype(float)
    assert range_basis(a).shape[1] + kernel_basis(a).shape[1] == a.shape[1]


@settings(max_examples=60, deadline=None)
@given(int_matrices)
def test_kernel_and_range_share_one_rank(m):
    ker, ran, *_, kept = kernel_and_range(m.astype(float))
    assert ran.shape[1] == exact_rank(m) == kept.size
    assert ker.shape[1] + ran.shape[1] == m.shape[1]
    assert (ker.shape[0], ran.shape[0]) == (m.shape[1], m.shape[0])
    if ker.shape[1]:
        assert np.max(np.abs(m @ ker)) < 1e-10


def test_two_norm_matches_power_iteration():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    x = rng.standard_normal(7)
    for _ in range(400):
        x = a.conj().T @ (a @ x)
        x = x / np.linalg.norm(x)
    sigma = np.linalg.norm(a @ x)
    assert_allclose(operator_norm(a, "two"), sigma, rtol=1e-10)


def test_one_and_sup_norms():
    a = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert operator_norm(a, "one") == 4.0      # max column sum
    assert operator_norm(a, "sup") == 3.5      # max row sum


def test_subspace_basis_is_orthonormal():
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((8, 5)) @ np.diag([1, 1, 1, 0, 0])
    s = range_basis(cols)
    assert s.shape[1] == 3
    assert_allclose(s.conj().T @ s, np.eye(3), atol=1e-12)


def test_direct_sum_random_complementary_pair():
    # any invertible matrix splits into complementary column blocks
    rng = np.random.default_rng(11)
    t = rng.standard_normal((7, 7))
    assert abs(np.linalg.det(t)) > 1e-6
    u = range_basis(t[:, :3])
    w = range_basis(t[:, 3:])
    res = direct_sum_check(u, w)
    assert res.holds and res.defect == 0


def test_direct_sum_detects_overlap():
    u = range_basis(np.eye(4)[:, :2])
    w = range_basis(np.eye(4)[:, 1:3])
    assert not direct_sum_check(u, w).holds


def test_oblique_projection_identities():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((6, 6)) + 0.1
    onto = range_basis(t[:, :2])
    along = range_basis(t[:, 2:])
    p = oblique_projection(onto, along)
    assert_allclose(p @ p, p, atol=1e-10)
    assert_allclose(p @ onto, onto, atol=1e-10)
    assert np.max(np.abs(p @ along)) < 1e-10


def test_oblique_projection_rejects_non_complementary():
    u = range_basis(np.eye(4)[:, :2])
    w = range_basis(np.eye(4)[:, :1])
    with pytest.raises(NotComplementary):
        oblique_projection(u, w)


def relative_inverse(m, ker_c, ran_c):
    """M^g relative to the complements, from the SVD of M and the
    projections the order-two oracle hands generalized_inverse."""
    split = kernel_and_range(m)
    return generalized_inverse(m, split, oblique_projection(split[0], ker_c),
                               oblique_projection(split[1], ran_c))


def test_generalized_inverse_of_invertible_matrix():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    ker_c = np.eye(5)
    ran_c = np.zeros((5, 0))
    g = relative_inverse(m, ker_c, ran_c)
    assert_allclose(g, np.linalg.inv(m), atol=1e-10)


def test_generalized_inverse_defining_identities():
    """Seeded rank-deficient 6x6 with skewed complements: M M^g M = M and
    M^g M M^g = M^g, and the two compositions are the advertised oblique
    projections."""
    rng = np.random.default_rng(6)
    left = rng.standard_normal((6, 4))
    right = rng.standard_normal((4, 6))
    m = left @ right                                  # rank 4
    ker, ran, ker_perp, ran_perp, _ = kernel_and_range(m)
    mix = rng.standard_normal((2, 4)) * 0.3
    ker_c = range_basis(ker_perp + ker @ mix)
    ran_c = range_basis(ran_perp + ran @ (0.2 * rng.standard_normal((4, 2))))
    g = relative_inverse(m, ker_c, ran_c)
    assert operator_norm(m @ g @ m - m) < 1e-9
    assert operator_norm(g @ m @ g - g) < 1e-9
    assert_allclose(m @ g, oblique_projection(ran, ran_c), atol=1e-9)
    assert_allclose(g @ m, oblique_projection(ker_c, ker), atol=1e-9)


jordan_sizes = st.lists(st.integers(1, 3), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(jordan_sizes, st.integers(0, 2**31 - 1))
def test_ascent_is_similarity_invariant(sizes, seed):
    blocks = []
    for k in sizes:
        b = np.eye(k) + np.diag(np.ones(k - 1), 1) if k > 1 else np.ones((1, 1))
        blocks.append(b)
    total = sum(sizes)
    j = np.zeros((total + 1, total + 1))
    pos = 0
    for b in blocks:
        k = b.shape[0]
        j[pos:pos + k, pos:pos + k] = b
        pos += k
    j[total, total] = 0.25                       # one stable direction
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((total + 1, total + 1))
    s += (total + 2) * np.eye(total + 1)         # keep it well conditioned
    a = s @ j @ np.linalg.inv(s)
    assert ascent_at_one(a) == max(sizes)
    # the same chain gives spectrum_report the algebraic multiplicity at 1:
    # exactly `total` roots form the unit cluster, so the nearest other
    # pencil root is 1/0.25 = 4
    spectrum = spectrum_report(linearize(ArPencil(1, total + 1, [a])))
    assert spectrum.nearest_other == pytest.approx(3.0, rel=1e-6)


def test_matrix_json_round_trip_is_exact():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    obj = matrix_to_json(m)
    assert obj["rows"] == 3 and obj["cols"] == 5
    assert len(obj["entries"]) == 15             # flat, row-major
    back = matrix_from_json(obj)
    assert np.array_equal(back, m)               # bit-exact through floats


def test_matrix_json_rejects_wrong_length():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


@pytest.mark.parametrize("rows, cols", [(2.0, 1), (1.9, 1), (True, 1), ("2", 1), (2, 1.0)],
                         ids=["rows-2.0", "rows-1.9", "rows-true", "rows-string", "cols-1.0"])
def test_matrix_json_rejects_a_size_that_is_not_an_integer(rows, cols):
    entries = [[1.0, 0.0], [2.0, 0.0]]
    assert matrix_from_json({"rows": 2, "cols": 1, "entries": entries}).shape == (2, 1)
    with pytest.raises(ValueError, match="must be an integer"):
        matrix_from_json({"rows": rows, "cols": cols, "entries": entries})


def test_subspace_json_round_trip():
    s = range_basis(np.eye(5)[:, 1:3])
    obj = json.loads(dump_json(subspace_to_json(s)))
    assert set(obj) == {"ambient", "basis"} and obj["ambient"] == 5
    assert obj["basis"] == matrix_to_json(s)
    assert np.array_equal(matrix_from_json(obj["basis"]), s)
    # JSON matrices need a column, so the trivial subspace has no basis
    trivial = np.zeros((5, 0))
    assert subspace_to_json(trivial) == {"ambient": 5, "basis": None}


def test_dump_json_is_deterministic():
    payload = {"b": [1.5, 2.5], "a": {"z": 1, "y": 2}}
    first = dump_json(payload)
    second = dump_json(payload)
    assert first == second


def test_dump_json_encodes_arrays_and_subspaces_as_converted_beforehand():
    # signed zero, the smallest subnormal, a float past 2**53 and a
    # fraction with no exact binary form, in real and imaginary parts
    m = np.array([[-0.0, 5e-324], [1e16, 0.1 + 2j]])
    tall = np.array([[1e16 - 0.1j], [-0.0j]])
    s = range_basis(np.eye(4)[:, 1:3])
    trivial = np.zeros((3, 0))
    payload = {"m": m, "h": [m, tall], "s": subspace_to_json(s),
               "nested": {"t": subspace_to_json(trivial), "x": 1.5}}
    reference = {"m": matrix_to_json(m), "h": [matrix_to_json(m), matrix_to_json(tall)],
                 "s": {"ambient": 4, "basis": matrix_to_json(s)},
                 "nested": {"t": {"ambient": 3, "basis": None}, "x": 1.5}}
    assert reference["nested"]["t"]["basis"] is None
    assert dump_json(payload) == dump_json(reference)
    for unsupported in (np.zeros(3), {1, 2}):
        with pytest.raises(TypeError):
            dump_json({"x": unsupported})


def test_fit_geometric_decay_recovers_rate():
    norms = [3.0 * 0.6 ** k for k in range(12)]
    scale, rate = fit_geometric_decay(norms)
    assert_allclose(scale, 3.0, rtol=1e-8)
    assert_allclose(rate, 0.6, rtol=1e-8)


def test_fit_geometric_decay_without_a_tail():
    assert fit_geometric_decay([0.0, 0.0, 0.0]) == (0.0, 0.0)
    assert fit_geometric_decay([0.0, 2.0, 0.0]) == (2.0, 0.0)


def test_within_bounds_by_the_table_entry():
    rank = CUTOFFS["rank"]
    assert within("rank", rank) == (True, rank, rank)  # holds at value <= bound
    assert within("guard", 1.0, 2.0) == (False, 1.0, CUTOFFS["guard"] * 2.0)
    factor, floor = CUTOFFS["reconstruction"]  # a fitted tail plus a floor
    assert within("reconstruction", 0.0, 3.0).bound == factor * 3.0 + floor
    # the sweep slope is the one at-least rule, and equality holds: the
    # order going 4 -> 8 from n = 8 to 16 is flagged essential
    assert within("sweep slope", 0.5).holds and not within("sweep slope", 0.25).holds
    assert essential_from_sweep([8, 16], [4, 8])
