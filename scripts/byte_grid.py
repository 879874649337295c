"""Byte grid: the reference grj commands, the exit code each must end
with, and a digest of what each prints.

The grid is the CLI's exit-code contract.  Each row of GRID is one grj
command and the code it must exit with; a row whose code is a known
defect also names the ROADMAP item whose fix will change it.  A change
that moves an exit code edits that row, so the diff shows every moved
code.

Runs every command in-process through grjkit.cli.main and prints one line
per command: its argv, its exit code and the sha256 of its stdout and of
its stderr.  Two checkouts whose grids print the same lines produce the
same CLI bytes on every command of the list, so a refactor that must not
change any output is checked by diffing two runs.  The script exits 1,
and names on stderr every row whose command exited with another code
than the row states; otherwise it exits 0.

BLAS sums in a thread-dependent order, so the digests are comparable only
under one BLAS thread; set it outside the script, before numpy loads:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/byte_grid.py [FILTER]

FILTER keeps only the commands whose argv contains it as a substring
(for example ``ex-volterra`` or ``represent``).  Model files the grid
needs are written to a temporary directory and shown by file name.

Digests say only that an output changed.  To see by how much, save the
outputs of one checkout and compare another with them, value by value:

    PYTHONPATH=src python3 scripts/byte_grid.py --save DIR [FILTER]
    PYTHONPATH=src python3 scripts/byte_grid.py --against DIR [FILTER]

--save writes each command's exit code, stdout and stderr to one JSON
file in DIR.  --against runs the grid again and, for each command whose
output differs from the saved one, prints the exit codes, the largest
change per JSON field of stdout (list indices dropped, so one line
covers every h_j), and for each subspace field the projector gap
||P_old - P_new||_2 between the two bases, which is about 0 when a basis
only rotated inside the same space.  A changed stderr is printed whole.
Both still check each exit code against its row.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import traceback
from typing import NamedTuple

import numpy as np

from grjkit import cli
from grjkit.models import (ar2_double_root_model, build_example, ill_conditioned_model,
                           random_walk_model)
from grjkit.pencil import ArPencil


# file name -> model saved there before the grid runs
MODEL_FILES = {
    "ar2_double_root.json": ar2_double_root_model,
    "ill_k3_seed0.json": lambda: ill_conditioned_model(3, 0),
    "ill_k5_seed5.json": lambda: ill_conditioned_model(5, 5),
    "ill_k7_seed0.json": lambda: ill_conditioned_model(7, 0),
    # two random walks and a stationary AR(1): I(1) with G = (I - B) P of
    # rounding size, a semisimple root the pole-order staircase reads as order 1
    "walks_and_ar1.json": lambda: ArPencil(1, 3, [np.diag([1.0, 1.0, 0.5])]),
    # B = I: the cointegrating space is {0}, written with basis null
    "random_walk.json": lambda: random_walk_model(2),
    # an entry of 1e200, which no power of I - B may square: the kernel
    # chain forms none; the root 1e-200 lies inside the unit disk, exit 2
    "huge_entry.json": lambda: ArPencil(1, 2, [np.diag([1.0, 1e200])]),
    # z B overflows at every contour node: each command exits 1 with one
    # stderr line, not numpy's overflow warnings before it
    "overflow.json": lambda: ArPencil(1, 2, [np.array([[1.0, 1.7e308], [0.0, 0.5]])]),
    # the built-in examples in the one and sup norms keep their verdicts
    "evenodd_one_norm.json":
        lambda: dataclasses.replace(build_example("ex-evenodd", n=16)[0], norm="one"),
    "c0_sup_norm.json":
        lambda: dataclasses.replace(build_example("ex-c0", n=8)[0], norm="sup"),
    # another root at modulus 0.96, -1 and 1/0.9 beside the unit root
    "diag_1_0.96.json": lambda: ArPencil(1, 2, [np.diag([1.0, 0.96])]),
    "diag_1_-1.json": lambda: ArPencil(1, 2, [np.diag([1.0, -1.0])]),
    "diag_1_1.11.json": lambda: ArPencil(1, 2, [np.diag([1.0, 1 / 0.9])]),
    # a unit root coupled to a stable one by a large entry c
    "coupled_1e5.json": lambda: ArPencil(1, 2, [np.array([[1.0, 1e5], [0.0, 0.5]])]),
    "coupled_1e6.json": lambda: ArPencil(1, 2, [np.array([[1.0, 1e6], [0.0, 0.5]])]),
    # a complex Hermitian B, roots 1 and 2: its nodes take the eigenbasis
    # kernel with a complex residual product
    "complex_hermitian.json":
        lambda: ArPencil(1, 2, [np.array([[0.75, 0.25j], [-0.25j, 0.75]])]),
    # the textbook I(2) law: second differences are white noise, scalar
    # (A_1 = 2, A_2 = -1) and bivariate (A_1 = 2I, A_2 = -I)
    "double_difference.json": lambda: ArPencil(2, 1, [np.array([[2.0]]), np.array([[-1.0]])]),
    "double_difference_2d.json": lambda: ArPencil(2, 2, [2.0 * np.eye(2), -np.eye(2)]),
}


class Row(NamedTuple):
    """One grj command, the exit code it must end with and, when that code
    is a known defect, the number of the ROADMAP item that will change it."""
    argv: tuple
    code: int
    item: int | None = None


def model_rows(model: tuple, codes: tuple, item: int | None = None) -> tuple:
    """The analyze, represent and verify rows of one model with their exit
    codes; ``item`` labels each row whose code is not 0."""
    return tuple(Row((command, *model), code, item if code else None)
                 for command, code in zip(("analyze", "represent", "verify"), codes))


GRID = (
    *model_rows(("ex-c0",), (0, 0, 0)),
    *model_rows(("ex-c0", "--n", "32"), (0, 0, 0)),
    *model_rows(("ex-evenodd",), (0, 0, 0)),
    *model_rows(("ex-evenodd", "--n", "32"), (0, 0, 0)),
    *model_rows(("ex-selfadjoint",), (0, 0, 0)),
    # the finite sections have pole order n > 2: no I(1) or I(2) representation
    *model_rows(("ex-volterra", "--n", "8"), (0, 3, 3)),
    *model_rows(("ex-volterra", "--n", "16"), (0, 3, 3)),
    # pole order 32; verify's held-out reconstruction misses the absolute
    # floor of its tail bound (item 7), a numerical failure reported as bad input
    Row(("analyze", "ex-volterra", "--n", "32"), 0),
    Row(("represent", "ex-volterra", "--n", "32"), 3),
    Row(("verify", "ex-volterra", "--n", "32"), 1, item=6),
    *model_rows(("ex-jordan", "--blocks", "2,1", "--seed", "5"), (0, 0, 0)),
    *model_rows(("ex-jordan", "--blocks", "1", "--seed", "8"), (0, 0, 0)),
    # one Jordan block of size 3 at 1: pole order 3
    *model_rows(("ex-jordan", "--blocks", "3"), (0, 3, 3)),
    *model_rows(("ex-jordan", "--blocks", "2,2", "--seed", "1"), (0, 0, 0)),
    *model_rows(("ex-jordan", "--blocks", "2,2,1", "--seed", "3"), (0, 0, 0)),
    *model_rows(("--model", "ar2_double_root.json"), (0, 0, 0)),
    # a valid model whose verify reports bad input: verify's Taylor circle
    # at 0 does not settle
    *model_rows(("--model", "ill_k3_seed0.json"), (0, 0, 1), item=6),
    # valid models reported as bad input
    *model_rows(("--model", "ill_k5_seed5.json"), (1, 1, 1), item=6),
    *model_rows(("--model", "ill_k7_seed0.json"), (1, 1, 1), item=6),
    *model_rows(("--model", "walks_and_ar1.json"), (0, 0, 0)),
    *model_rows(("--model", "random_walk.json"), (0, 0, 0)),
    *model_rows(("--model", "huge_entry.json"), (2, 2, 2)),
    # a valid model reported as bad input
    *model_rows(("--model", "overflow.json"), (1, 1, 1), item=6),
    *model_rows(("--model", "evenodd_one_norm.json"), (0, 0, 0)),
    *model_rows(("--model", "c0_sup_norm.json"), (0, 0, 0)),
    # admissible: the fixed isolation margin refuses any other root of B of
    # modulus at least 1/1.1, where the paper asks for some margin of its own
    *model_rows(("--model", "diag_1_0.96.json"), (2, 2, 2), item=19),
    # rightly refused: a second pencil root on the unit circle, and one inside it
    *model_rows(("--model", "diag_1_-1.json"), (2, 2, 2)),
    *model_rows(("--model", "diag_1_1.11.json"), (2, 2, 2)),
    # valid models reported as bad input: a quadrature change stays above
    # its absolute cut-off (for c = 1e5 only in verify's laurent-algebra contour)
    *model_rows(("--model", "coupled_1e5.json"), (0, 0, 1), item=6),
    *model_rows(("--model", "coupled_1e6.json"), (1, 1, 1), item=6),
    # verify rightly refuses complex coefficients: the simulator needs real ones
    *model_rows(("--model", "complex_hermitian.json"), (0, 0, 1)),
    # pole order 2, I(1) fails and I(2) holds, read as no usable unit root:
    # the kernel chain cuts D_1, pure rounding here, relative to its own norm
    # and stops at (0, 1) or (0, 2), so the second eigenvalue of B, 1.5e-8
    # from 1, counts as another root inside the isolation margin
    *model_rows(("--model", "double_difference.json"), (2, 2, 2), item=8),
    *model_rows(("--model", "double_difference_2d.json"), (2, 2, 2), item=8),
    Row(("represent", "ex-evenodd", "--jmax", "5"), 0),
    # above grj.H_TAYLOR_JMAX: verify's order-one fold reads every h_j up to
    # --jmax on a Taylor circle that settles only up to there, and represent
    # shares the flag
    Row(("represent", "ex-evenodd", "--jmax", "129"), 1),
    Row(("represent", "ex-evenodd", "--n", "24"), 0),
    Row(("represent", "ex-jordan", "--blocks", "2,1"), 0),
    Row(("verify", "ex-c0", "--horizon", "60", "--jmax", "30"), 0),
    Row(("sweep", "ex-c0", "--dims", "4,8"), 0),
    Row(("sweep", "ex-volterra", "--dims", "8,16,32,64"), 0),
    Row(("simulate", "ex-c0", "--horizon", "5"), 0),
    Row(("examples",), 0),
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


def _is_matrix(value) -> bool:
    return isinstance(value, dict) and value.keys() == {"rows", "cols", "entries"}


def _is_subspace(value) -> bool:
    return isinstance(value, dict) and value.keys() == {"ambient", "basis"}


def _array(matrix) -> np.ndarray:
    entries = np.asarray(matrix["entries"], dtype=float).reshape(-1, 2)
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(matrix["rows"], matrix["cols"])


def _dim(subspace) -> int:
    return 0 if subspace["basis"] is None else subspace["basis"]["cols"]


def _projector(subspace) -> np.ndarray:
    q, _ = np.linalg.qr(_array(subspace["basis"]))
    return q @ q.conj().T


def field_changes(old, new, path="", changes=None) -> dict:
    """{field: {"max": largest numeric change, "gap": largest projector
    gap of a subspace field (None for other fields), "other": description
    of a non-numeric change}} over every field where the JSON values
    ``old`` and ``new`` differ; list indices are dropped from the field
    names."""
    changes = {} if changes is None else changes
    if old == new:
        return changes
    if (isinstance(old, dict) and isinstance(new, dict)
            and not (_is_matrix(old) or _is_subspace(old))):
        for key in sorted(old.keys() | new.keys()):
            field = f"{path}.{key}" if path else key
            if key in old and key in new:
                field_changes(old[key], new[key], field, changes)
            else:
                changes[field] = {"max": 0.0, "gap": None,
                                  "other": "added" if key in new else "removed"}
        return changes
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            field_changes(a, b, path, changes)
        return changes
    entry = changes.setdefault(path or "(top)", {"max": 0.0, "gap": None, "other": None})
    if _is_subspace(old) and _is_subspace(new):
        if (old["ambient"], _dim(old)) != (new["ambient"], _dim(new)):
            entry["other"] = "dimension changed"
        else:
            gap = float(np.linalg.norm(_projector(old) - _projector(new), 2))
            entry["gap"] = max(entry["gap"] or 0.0, gap)
            entry["max"] = max(entry["max"], float(np.max(np.abs(
                _array(old["basis"]) - _array(new["basis"])))))
    elif _is_matrix(old) and _is_matrix(new):
        a, b = _array(old), _array(new)
        if a.shape != b.shape:
            entry["other"] = f"shape {a.shape} -> {b.shape}"
        else:
            entry["max"] = max(entry["max"], float(np.max(np.abs(a - b))))
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        entry["max"] = max(entry["max"], abs(new - old))
    else:
        entry["other"] = f"{json.dumps(old)[:60]} -> {json.dumps(new)[:60]}"
    return changes


def describe(saved: dict, code, out: bytes, err: bytes) -> list:
    """Lines saying how a command's output differs from ``saved``; [] when
    the exit code, stdout and stderr are all the same."""
    stdout, stderr = out.decode("utf-8"), err.decode("utf-8")
    lines = []
    if saved["exit"] != code:
        lines.append(f"  exit: {saved['exit']} -> {code}")
    if saved["stdout"] != stdout:
        try:
            changes = field_changes(json.loads(saved["stdout"]), json.loads(stdout))
        except ValueError:
            lines.append("  stdout: changed (not JSON)")
        else:
            for field, entry in sorted(changes.items()):
                parts = [f"max change {entry['max']:.1e}"]
                if entry["gap"] is not None:
                    parts.append(f"projector gap {entry['gap']:.1e}")
                if entry["other"]:
                    parts = [entry["other"]]
                lines.append(f"  {field}: " + ", ".join(parts))
    if saved["stderr"] != stderr:
        lines.append(f"  stderr: {saved['stderr'].strip()!r} -> {stderr.strip()!r}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("filter", nargs="?", default="",
                    help="run only the commands whose argv contains this substring")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--save", metavar="DIR",
                      help="write each command's exit code, stdout and stderr to DIR")
    mode.add_argument("--against", metavar="DIR",
                      help="compare each command's outputs with those saved in DIR")
    args = ap.parse_args(argv)
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("byte_grid.py: warning: OPENBLAS_NUM_THREADS is not 1, so residual digits "
              "and the digests may differ from a one-thread grid", file=sys.stderr)
    if args.save:
        os.makedirs(args.save, exist_ok=True)
    changed = ran = 0
    moved = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in MODEL_FILES.items():
            build().save(os.path.join(tmp, name))
        for row in GRID:
            shown = " ".join(row.argv)
            if args.filter not in shown:
                continue
            code, out, err = run(os.path.join(tmp, arg) if arg in MODEL_FILES else arg
                                 for arg in row.argv)
            ran += 1
            if code != row.code:
                known = f", a known defect of ROADMAP item {row.item}" if row.item else ""
                moved.append(f"grj {shown}  exit={code}, expected {row.code}{known}")
            record = os.path.join(args.save or args.against or "",
                                  re.sub(r"[^A-Za-z0-9.,-]+", "_", shown) + ".json")
            if args.save:
                with open(record, "w", encoding="utf-8") as fh:
                    json.dump({"argv": shown, "exit": code, "stdout": out.decode("utf-8"),
                               "stderr": err.decode("utf-8")}, fh)
            if args.against:
                if not os.path.exists(record):
                    print(f"grj {shown}  not saved", flush=True)
                    continue
                with open(record, encoding="utf-8") as fh:
                    lines = describe(json.load(fh), code, out, err)
                changed += bool(lines)
                print(f"grj {shown}  " + ("changed" if lines else "same"), *lines,
                      sep="\n", flush=True)
            else:
                print(f"grj {shown}  exit={code}  stdout={hashlib.sha256(out).hexdigest()}  "
                      f"stderr={hashlib.sha256(err).hexdigest()}", flush=True)
    if args.against:
        print(f"{changed} of {ran} commands changed")
    for line in moved:
        print(f"byte_grid.py: {line}", file=sys.stderr)
    if moved:
        print(f"byte_grid.py: {len(moved)} of {ran} commands exited with another code than "
              "their row states; a change that moves a code edits its row", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
