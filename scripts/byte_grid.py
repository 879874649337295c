"""Byte grid: a fixed list of grj commands and a digest of what each prints.

Runs every command in-process through grjkit.cli.main and prints one line
per command: its argv, its exit code and the sha256 of its stdout and of
its stderr.  Two checkouts whose grids print the same lines produce the
same CLI bytes on every command of the list, so a refactor that must not
change any output is checked by diffing two runs.

BLAS sums in a thread-dependent order, so the digests are comparable only
under one BLAS thread; set it outside the script, before numpy loads:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/byte_grid.py [FILTER]

FILTER keeps only the commands whose argv contains it as a substring
(for example ``ex-volterra`` or ``represent``).  Model files the grid
needs are written to a temporary directory and shown by file name.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback

import numpy as np

from grjkit import cli
from grjkit.models import ar2_double_root_model
from grjkit.pencil import ArPencil


def ill_conditioned_model(k, seed):
    """AR(1) with B = S diag(1, 0.5, -0.3) S^-1, S = Q1 diag(1, 10^(k/2), 10^k) Q2:
    a unit root whose kernel and range of I - B are nearly parallel (the
    reproducer of tests/test_cli.py)."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    s = q1 @ np.diag([1.0, 10 ** (k / 2), 10.0 ** k]) @ q2
    return ArPencil(1, 3, [s @ np.diag([1.0, 0.5, -0.3]) @ np.linalg.inv(s)])


# file name -> model saved there before the grid runs
MODEL_FILES = {
    "ar2_double_root.json": ar2_double_root_model,
    "ill_k5_seed5.json": lambda: ill_conditioned_model(5, 5),
    "ill_k7_seed0.json": lambda: ill_conditioned_model(7, 0),
}

# model arguments that analyze, represent and verify each run on
MODELS = (
    ("ex-c0",),
    ("ex-c0", "--n", "32"),
    ("ex-evenodd",),
    ("ex-evenodd", "--n", "32"),
    ("ex-selfadjoint",),
    ("ex-volterra", "--n", "8"),
    ("ex-volterra", "--n", "16"),
    ("ex-volterra", "--n", "32"),
    ("ex-jordan", "--blocks", "2,1", "--seed", "5"),
    ("ex-jordan", "--blocks", "1", "--seed", "8"),
    ("ex-jordan", "--blocks", "3"),
    ("ex-jordan", "--blocks", "2,2", "--seed", "1"),
    *(("--model", name) for name in MODEL_FILES),
)

GRID = (
    *((command, *model) for model in MODELS for command in ("analyze", "represent", "verify")),
    ("sweep", "ex-c0", "--dims", "4,8"),
    ("sweep", "ex-volterra", "--dims", "8,16,32"),
    ("simulate", "ex-c0", "--horizon", "5"),
    ("examples",),
)


def run(argv) -> tuple:
    """(exit code, stdout bytes, stderr bytes) of grj with ``argv``; an
    exception that escapes the CLI shows as exit "raised" with its
    traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # noqa: BLE001 - a traceback is a result the grid records
            traceback.print_exc()
            code = "raised"
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("filter", nargs="?", default="",
                    help="run only the commands whose argv contains this substring")
    args = ap.parse_args(argv)
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("byte_grid.py: warning: OPENBLAS_NUM_THREADS is not 1, so residual digits "
              "and the digests may differ from a one-thread grid", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in MODEL_FILES.items():
            build().save(os.path.join(tmp, name))
        for command in GRID:
            shown = " ".join(command)
            if args.filter not in shown:
                continue
            code, out, err = run(os.path.join(tmp, arg) if arg in MODEL_FILES else arg
                                 for arg in command)
            print(f"grj {shown}  exit={code}  stdout={hashlib.sha256(out).hexdigest()}  "
                  f"stderr={hashlib.sha256(err).hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
