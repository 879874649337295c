"""
How often each command decomposes a matrix: the np.linalg.svd calls of a
grj command stay at or below fixed ceilings, and one full SVD of
M = I - B serves every spectrum report and class check of the command;
verify's representation check takes one more of its own, for its
independent Jordan-ascent oracle.
One SVD of the coupling C = alpha_perp^H beta_perp of its bases decides
K = ran M /\\ ker M once per command, and the class dispatch reads it
instead of trying order one first.  The order-two verdict decomposes only
the dim K x dim K matrix J = Y^H M^+ K, and the components take M^+ from
the SVD of M and the graft Q^g from the SVD of C, so no command solves a
least-squares problem or decomposes a complement pair.
The counts are taken with one BLAS thread, as the benchmark runs.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys

import numpy as np
import pytest

from grjkit import cli, grj, models, pencil

CEILINGS = [
    (["analyze", "ex-c0", "--n", "8"], 8),
    # the LU probe: the pole order decomposes the 32 x 10 Y = N_-1 V and
    # the 2 x 2 compression of G to ran P, no 32 x 32 staircase
    (["analyze", "ex-c0", "--n", "32"], 8),
    (["analyze", "ex-evenodd", "--n", "32"], 5),
    (["verify", "ex-evenodd"], 9),
    (["represent", "ex-c0"], 7),
    (["represent", "ex-evenodd"], 5),
    # the one row whose Q^g has a nontrivial W
    (["represent", "ex-jordan", "--blocks", "2,1"], 7),
    (["verify", "ex-c0"], 12),
]


def coupling(cp) -> np.ndarray:
    """C = alpha_perp^H beta_perp, from the bases of the pencil's SVD of M."""
    return cp.unit_range_complement.conj().T @ cp.unit_kernel


def svds_of(inputs, matrix) -> int:
    """How many of the recorded SVD inputs equal ``matrix``."""
    return sum(a.shape == matrix.shape and np.array_equal(a, matrix) for a, _ in inputs)


@pytest.fixture()
def svd_inputs(monkeypatch):
    """Every np.linalg.svd input of the test, with its compute_uv flag."""
    svd, inputs = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        inputs.append((np.array(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return inputs


@pytest.fixture()
def lstsq_calls(monkeypatch):
    """How many np.linalg.lstsq calls the test makes, in a one-item list."""
    lstsq, calls = np.linalg.lstsq, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


@pytest.fixture()
def cli_pencils(monkeypatch):
    """Every pencil the CLI linearizes during the test."""
    linearize, pencils = cli.linearize, []

    def recorded(ar):
        pencils.append(linearize(ar))
        return pencils[-1]

    monkeypatch.setattr(cli, "linearize", recorded)
    return pencils


@pytest.fixture()
def oracle_span(monkeypatch, svd_inputs):
    """[start, stop) of the SVD inputs recorded inside the CLI's
    simkit.verify_representation, whose Jordan-ascent oracle decomposes
    I - B on its own; [0, 0) when the command does not call it."""
    check, span = cli.verify_representation, [0, 0]

    def recorded(*args, **kwargs):
        span[0] = len(svd_inputs)
        try:
            return check(*args, **kwargs)
        finally:
            span[1] = len(svd_inputs)

    monkeypatch.setattr(cli, "verify_representation", recorded)
    return span


@pytest.mark.parametrize("argv, ceiling", CEILINGS, ids=[" ".join(a) for a, _ in CEILINGS])
def test_svd_calls_per_command(svd_inputs, lstsq_calls, cli_pencils, oracle_span, argv,
                               ceiling):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert len(svd_inputs) <= ceiling
    assert lstsq_calls == [0]
    [cp] = cli_pencils
    start, stop = oracle_span
    full_of_m = [full and np.array_equal(a, cp.m) for a, full in svd_inputs]
    assert sum(full_of_m[:start] + full_of_m[stop:]) == 1  # the pencil's one SVD of M
    assert sum(full_of_m[start:stop]) == (argv[0] == "verify")  # the oracle's own
    assert svds_of(svd_inputs, coupling(cp)) == 1


def _patch_everywhere(monkeypatch, original, replacement):
    """Swap every binding of ``original`` in the grjkit modules."""
    for name, mod in list(sys.modules.items()):
        if name == "grjkit" or name.startswith("grjkit."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


@pytest.mark.parametrize("argv, reports", [(["represent", "ex-c0"], 2),
                                           (["verify", "ex-c0"], 4)])
def test_order_two_model_builds_no_order_one_spectrum_report(monkeypatch, argv, reports):
    report, calls = pencil.spectrum_report, []

    def counted(cp):
        calls.append(cp)
        return report(cp)

    _patch_everywhere(monkeypatch, report, counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert len(calls) == reports


# every block structure jordan_model draws at the unit root (criterion 2)
JORDAN_BLOCKS = [(1,), (2,), (3,)] + list(itertools.product((1, 2, 3), repeat=2))


@pytest.mark.parametrize("blocks", JORDAN_BLOCKS, ids=str)
def test_one_intersection_decides_both_verdicts(svd_inputs, cli_pencils, blocks):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", "ex-jordan", "--blocks",
                         ",".join(map(str, blocks))]) == 0
    report = json.loads(out.getvalue())
    i1, i2 = report["i1"], report["i2"]
    assert i1["holds"] == (i2["k_dim"] == 0)
    assert i1["defect"] == i2["k_dim"]
    assert i2["k_dim"] == sum(b > 1 for b in blocks)
    [cp] = cli_pencils
    assert svds_of(svd_inputs, coupling(cp)) == 1  # one SVD of C decides K for both verdicts


def test_order_two_verdict_builds_no_complement(svd_inputs):
    """check_i2 reads integers off the pencil: on a fresh mixed [2, 1]
    pencil, once K is decided by the one SVD of C, the verdict decomposes
    the dim K x dim K matrix J = Y^H M^+ K and no n x n matrix, and
    i2_components decomposes none of M, C and J again.  The orthogonal
    complements of ran M and ker M that the pencil exposes come from its
    one SVD of M."""
    cp = pencil.linearize(models.jordan_model(0, blocks_at_one=[2, 1])[0])
    assert cp.unit_intersection.shape[1] == 1  # K, decided once per pencil
    spectrum = pencil.spectrum_report(cp)
    decided = len(svd_inputs)
    assert grj.check_i2(cp, spectrum=spectrum).holds
    assert [a.shape for a, _ in svd_inputs[decided:]] == [(1, 1)]  # J, no n x n SVD
    assert grj.i2_components(cp, j_max=2).holds
    later = svd_inputs[decided + 1:]
    assert svds_of(later, coupling(cp)) == 0
    assert svds_of(later, np.asarray(cp.m)) == 0
    assert all(a.shape != (1, 1) for a, _ in later)

    size, rank = cp.big_dim, cp.unit_range.shape[1]
    for basis, other, dim in ((cp.unit_range_complement, cp.unit_range, size - rank),
                              (cp.unit_kernel_complement, cp.unit_kernel, rank)):
        assert basis.shape[1] == dim
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(dim), atol=1e-12)
        assert np.max(np.abs(other.conj().T @ basis)) < 1e-12
