"""
How often each command decomposes a matrix: the np.linalg.svd calls of a
grj command stay at or below fixed ceilings, and one full SVD of
M = I - B serves every spectrum report and class check of the command.
The counts are taken with one BLAS thread, as the benchmark runs.
"""
from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest

from grjkit import cli

CEILINGS = [
    (["analyze", "ex-c0", "--n", "8"], 19),
    (["analyze", "ex-evenodd", "--n", "32"], 16),
    (["verify", "ex-evenodd"], 10),
    (["represent", "ex-c0"], 20),
    (["represent", "ex-evenodd"], 6),
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
