"""
How often each command decomposes a matrix: the np.linalg.svd calls of a
grj command stay at or below fixed ceilings, and one full SVD of
M = I - B serves every spectrum report and class check of the command.
K = ran M /\\ ker M is decided once per command too, and the class
dispatch reads it instead of trying order one first.  The order-two
verdict takes its complements of ran M and ker M from that SVD as well.
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

from grjkit import cli, grj, models, numfield, pencil

CEILINGS = [
    (["analyze", "ex-c0", "--n", "8"], 14),
    (["analyze", "ex-evenodd", "--n", "32"], 11),
    (["verify", "ex-evenodd"], 10),
    (["represent", "ex-c0"], 15),
    (["represent", "ex-evenodd"], 6),
    # the one row whose graft has a nontrivial W
    (["represent", "ex-jordan", "--blocks", "2,1"], 21),
]


@pytest.mark.parametrize("argv, ceiling", CEILINGS, ids=[" ".join(a) for a, _ in CEILINGS])
def test_svd_calls_per_command(monkeypatch, argv, ceiling):
    svd, linearize = np.linalg.svd, cli.linearize
    inputs, pencils = [], []

    def counted(a, *args, **kwargs):
        inputs.append((np.array(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def recorded(ar):
        pencils.append(linearize(ar))
        return pencils[-1]

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(cli, "linearize", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert len(inputs) <= ceiling
    [cp] = pencils
    assert sum(full and np.array_equal(a, cp.m) for a, full in inputs) == 1


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
def test_one_intersection_decides_both_verdicts(monkeypatch, blocks):
    intersect, pencils, pairs = numfield.subspace_intersection, [], []

    def recorded(ar):
        pencils.append(pencil.linearize(ar))
        return pencils[-1]

    def counted(a, b):
        cp = pencils[-1]
        pairs.append({id(a), id(b)} == {id(cp.unit_range), id(cp.unit_kernel)})
        return intersect(a, b)

    monkeypatch.setattr(cli, "linearize", recorded)
    _patch_everywhere(monkeypatch, intersect, counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", "ex-jordan", "--blocks",
                         ",".join(map(str, blocks))]) == 0
    report = json.loads(out.getvalue())
    i1, i2 = report["i1"], report["i2"]
    assert i1["holds"] == (i2["k_dim"] == 0)
    assert i1["defect"] == i2["k_dim"]
    assert i2["k_dim"] == sum(b > 1 for b in blocks)
    assert sum(pairs) == 1


def test_order_two_verdict_builds_no_complement(monkeypatch):
    """check_i2 reads both complements and K from the pencil: on a fresh
    mixed [2, 1] pencil, once K is decided, it calls neither
    orthogonal_complement nor subspace_intersection, and the complements
    are the orthogonal ones of the pencil's one SVD of M."""
    cp = pencil.linearize(models.jordan_model(0, blocks_at_one=[2, 1])[0])
    assert cp.unit_intersection.dim == 1  # K, decided once per pencil
    calls = []
    for original in (numfield.orthogonal_complement, numfield.subspace_intersection):
        def counted(*args, _original=original):
            calls.append(_original.__name__)
            return _original(*args)
        _patch_everywhere(monkeypatch, original, counted)
    assert grj.check_i2(cp).holds
    assert calls == []

    size, rank = cp.big_dim, cp.unit_range.dim
    for space, other, dim in ((cp.unit_range_complement, cp.unit_range, size - rank),
                              (cp.unit_kernel_complement, cp.unit_kernel, rank)):
        basis = space.basis
        assert space.dim == dim
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(dim), atol=1e-12)
        assert np.max(np.abs(other.basis.conj().T @ basis)) < 1e-12
