"""Command-line front end: analyze / represent / simulate / verify / examples / sweep.

Exit codes are fixed for scriptability:

  0  success
  1  malformed input: an unknown flag or a flag the subcommand or model
     does not take, a value out of range, an unreadable model file or an
     unwritable --out; a size too large to allocate; no usable contour
     (the quadrature never settles, or a resolvent is singular within
     the residual cut-off); or a kernel and range of I - B too
     ill-conditioned for a reliable projection (numfield.NotComplementary)
  2  the model has no usable unit root (assumption failure)
  3  represent, verify: the pole is neither order one nor order two
  4  verify: an invariant failed (named on stderr); this wins over 3

Each subcommand accepts only the flags it reads, and every value is
range-checked before any work is done (--jmax is at most
grj.H_TAYLOR_JMAX: verify's order-one fold reads every h_j up to --jmax
on a Taylor circle that settles only up to there, and represent shares
the flag), so bad input ends in one line on stderr.  A warning raised
while a command runs is one stderr line too, written after the command
succeeds; a command that exits non-zero writes no warning.  Reports are
JSON with sorted keys and fixed separators, so a fixed (model, seed, flags) combination
produces byte-identical output under a fixed BLAS thread count (BLAS
sums in a thread-dependent order, so another count can move the last
digits of residual fields).  grjkit reads no environment variable.

The contour radius comes from the model's spectrum and the quadrature
node count doubles until the result settles, so no flag sets either.
No flag sets a tolerance: every decision, verify's bounds included, cuts
at a fixed entry of the one table numfield.CUTOFFS.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import models
from .cointegration import annihilators
from .grj import (
    H_TAYLOR_JMAX,
    NotI2,
    check_i1,
    check_i2,
    i1_components,
    i2_components,
    taylor_h_gap,
)
from .laurent import (
    ContourNotConverged,
    essential_from_sweep,
    laurent_algebra_gap,
    pole_order,
)
from .numfield import (
    NotComplementary,
    dump_json,
    operator_norm,
    range_basis,
    subspace_to_json,
    within,
)
from .pencil import ArPencil, SingularAt, linearize, spectrum_report
from .simkit import (
    recursion_residual,
    simulate_ar,
    verify_representation,
)

_EXIT_OK = 0
_EXIT_BAD_INPUT = 1
_EXIT_NO_UNIT_ROOT = 2
_EXIT_NO_CLASS = 3
_EXIT_INVARIANT = 4

_NO_CLASS = "pole at z=1 is neither order one nor order two"


class _CliError(Exception):
    """Malformed input detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which would collide with the
    # no-unit-root code; remap all malformed input to 1, on one line.
    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_EXIT_BAD_INPUT)


# -- argument types: each rejects an out-of-range value at parse time -------

def _int_at_least(low: int):
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {raw!r}")
        return value
    return parse


def _int_list(raw: str) -> tuple:
    """Comma list of positive integers, e.g. 4,8,16."""
    try:
        values = tuple(int(tok) for tok in raw.split(","))
    except ValueError:  # an empty token too
        values = ()
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of positive integers such as 4,8,16, got {raw!r}")
    return values


def _dims(raw: str) -> tuple:
    dims = _int_list(raw)
    if len(set(dims)) < 2:
        raise argparse.ArgumentTypeError(
            f"a sweep needs at least two different dimensions, got {raw!r}")
    return dims


_POSITIVE_INT = _int_at_least(1)


def _jmax(raw: str) -> int:
    value = _int_at_least(0)(raw)
    if value > H_TAYLOR_JMAX:
        raise argparse.ArgumentTypeError(
            f"expected at most {H_TAYLOR_JMAX}: verify folds every h_j up to --jmax "
            f"into its order-one Taylor cross-check, which settles only up to there, "
            f"and represent shares the flag; got {raw!r}")
    return value


def _seed(raw: str) -> int:
    value = _int_at_least(0)(raw)
    if value >= 1 << 64:  # the generator keys reduce mod 2**64: it would alias a seed
        raise argparse.ArgumentTypeError(f"expected an integer below 2**64, got {raw!r}")
    return value


def _flag_specs() -> dict:
    """add_argument keywords of every flag; each default lives only here."""
    return {
        "--model": dict(default=None, help="path to a model JSON file"),
        "--n": dict(type=_POSITIVE_INT, default=None, help="truncation dimension"),
        "--lam": dict(type=float, default=None, help="decay parameter for ex-c0 (default "
                      f"{models.example_defaults('ex-c0')['lam']})"),
        "--blocks": dict(type=_int_list, default=None,
                         help="block sizes at the unit root for ex-jordan, e.g. 2,1"),
        "--seed": dict(type=_seed, default=None, help="seed of ex-selfadjoint, ex-jordan "
                       "and the simulated path of simulate and verify (default 0)"),
        "--horizon": dict(type=_POSITIVE_INT, default=300),
        "--jmax": dict(type=_jmax, default=40,
                       help=f"highest h-coefficient index, at most {H_TAYLOR_JMAX}: "
                       "represent reports h_0..h_jmax; verify folds the Taylor gap over "
                       "h_0..h_jmax into p-cross-check on an I(1) model and compares "
                       "h_0..h_min(20, jmax) in the h-coefficient cross-check"),
        "--path": dict(default=None,
                       help="stored CSV path to check byte-for-byte determinism"),
        "--dims": dict(type=_dims, default="4,8,16",
                       help="comma list of truncation dimensions"),
        "--out": dict(default=None, help="write the report here"),
    }


def build_parser() -> _Parser:
    parser = _Parser(prog="grj", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    specs = _flag_specs()
    for command, (_, about, flags) in _COMMANDS.items():
        sub = subs.add_parser(command, help=about)
        if flags:
            # a name, or --model PATH where the subcommand takes one
            optional = dict(nargs="?", default=None) if "--model" in flags else {}
            sub.add_argument("name", help="built-in model name (see the examples command)",
                             **optional)
        for flag in flags:
            sub.add_argument(flag, **specs[flag])
    return parser


_SIMULATING = ("simulate", "verify")  # --seed also seeds their simulated path


def _build_example(args, n):
    seed = args.seed
    try:
        if args.command in _SIMULATING and "seed" not in models.example_defaults(args.name):
            seed = None
        return models.build_example(args.name, n=n, lam=args.lam, seed=seed,
                                    blocks=getattr(args, "blocks", None))  # sweep has none
    except KeyError as exc:
        raise _CliError(str(exc.args[0])) from exc
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _load_model(args):
    """Returns (ArPencil, model_id, info dict)."""
    if args.name and args.model:
        raise _CliError("give either a built-in name or --model PATH, not both")
    if args.name:
        ar, info = _build_example(args, args.n)
        return ar, args.name, info
    if args.model:
        if not (args.n is None and args.lam is None and args.blocks is None):
            raise _CliError("--n, --lam and --blocks apply to built-in models, not to --model")
        if args.seed is not None and args.command not in _SIMULATING:
            raise _CliError(f"{args.command} --model reads no --seed")
        try:
            ar = ArPencil.load(args.model)
        except FileNotFoundError as exc:
            raise _CliError(f"model file not found: {args.model}") from exc
        except OSError as exc:
            raise _CliError(f"cannot read model file {args.model}: {exc.strerror}") from exc
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise _CliError(f"bad model file {args.model}: {exc}") from exc
        return ar, os.path.basename(args.model), {}
    raise _CliError("a model is required: built-in name or --model PATH")


def _simulate(ar, horizon, seed, model_id):
    """simulate_ar with unit innovation covariance; a model the simulator
    cannot take (complex coefficients) is bad input."""
    try:
        return simulate_ar(ar, np.eye(ar.dim), horizon, seed, model_id=model_id)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _spectrum(cp, args, where=""):
    """spectrum_report of cp, saying on stderr when z=1 is not a usable unit root."""
    spectrum = spectrum_report(cp)
    if not spectrum.unit_root_ok:
        sys.stderr.write(f"grj {args.command}: no usable unit root at z=1{where}\n")
    return spectrum


def _emit(text: str, out: str | None):
    """Write text (a JSON report or a CSV path) to --out, or to stdout without one."""
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    ar, model_id, info = _load_model(args)
    cp = linearize(ar)
    spectrum = _spectrum(cp, args)
    report = {"model": model_id, "info": info, "spectrum": spectrum.to_json()}
    if not spectrum.unit_root_ok:
        report["verdict"] = "no usable unit root"
        _emit(dump_json(report), args.out)
        return _EXIT_NO_UNIT_ROOT
    # one spectrum serves all three decisions; only pole_order integrates
    pole = pole_order(cp, spectrum=spectrum)
    i1 = check_i1(cp, spectrum=spectrum)
    i2 = check_i2(cp, spectrum=spectrum)
    report.update({
        "pole_order": pole.to_json(),
        "i1": i1.to_json(),
        "i2": i2.to_json(),
        "verdict": (f"pole order {pole.order}, "
                    f"I(1) {'holds' if i1.holds else 'fails'}, "
                    f"I(2) {'holds' if i2.holds else 'fails'}"),
    })
    _emit(dump_json(report), args.out)
    return _EXIT_OK


def cmd_sweep(args) -> int:
    points = []
    orders = []
    for n in args.dims:
        ar, _ = _build_example(args, n)
        cp = linearize(ar)
        spectrum = _spectrum(cp, args, f" (sweep stops at n = {n})")
        if not spectrum.unit_root_ok:
            return _EXIT_NO_UNIT_ROOT
        report = pole_order(cp, spectrum=spectrum)
        orders.append(report.order)
        points.append({"n": int(n), "order": report.order})
    sweep = {"points": points,
             "essential_flag": essential_from_sweep(list(args.dims), orders)}
    _emit(dump_json({"model": args.name, "sweep": sweep}), args.out)
    return _EXIT_OK


def _components(cp, args):
    """Order-one components if K = ran M /\\ ker M is {0}, else order-two, else None."""
    if not cp.unit_intersection.shape[1]:
        return i1_components(cp, args.jmax)
    try:
        return i2_components(cp, args.jmax)
    except NotI2:
        return None


def cmd_represent(args) -> int:
    ar, model_id, _ = _load_model(args)
    cp = linearize(ar)
    if not _spectrum(cp, args).unit_root_ok:
        return _EXIT_NO_UNIT_ROOT
    rep = _components(cp, args)
    if rep is None:
        sys.stderr.write(f"grj represent: {_NO_CLASS}\n")
        return _EXIT_NO_CLASS
    report = {"model": model_id, "class": f"I{rep.order}",
              "cross_check_residual": float(rep.cross_check_residual),
              "h_coeffs": rep.h_coeffs, "p_operator": rep.p_operator}
    if rep.order == 1:
        report.update({
            "long_run": rep.long_run,
            "cointegrating": subspace_to_json(annihilators(rep.long_run)),
            "attractor": subspace_to_json(range_basis(rep.long_run)),
        })
    else:
        lr2, lr1 = rep.long_run2, rep.long_run1
        report.update({
            "long_run2": lr2,
            "long_run1": lr1,
            "n_minus2": rep.n_minus2,
            "tier1_annihilators": subspace_to_json(annihilators(lr2)),
            "tier2_annihilators": subspace_to_json(annihilators(lr2, lr1 - lr2)),
        })
    _emit(dump_json(report), args.out)
    return _EXIT_OK


def cmd_simulate(args) -> int:
    ar, model_id, _ = _load_model(args)
    path = _simulate(ar, args.horizon, args.seed or 0, model_id)
    _emit(path.to_csv_text(), args.out)
    return _EXIT_OK


def _check(results: list, name: str, ok: bool, detail):
    results.append({"name": name, "ok": bool(ok), "detail": detail})


def _check_bounded(results: list, name: str, value: float, detail: dict):
    decision = within(f"verify {name}", value)  # its detail names the bound
    _check(results, name, decision.holds, {**detail, "bound": decision.bound})


def cmd_verify(args) -> int:
    ar, model_id, _ = _load_model(args)
    cp = linearize(ar)
    spectrum = _spectrum(cp, args)
    if not spectrum.unit_root_ok:
        return _EXIT_NO_UNIT_ROOT
    # the analytic checks run before the two simulations, so a model whose
    # contour fails pays for neither; the report lists the path's checks first
    analytic: list = []
    pole = pole_order(cp, spectrum=spectrum)
    _check(analytic, "pole-order-routes", pole.routes_agree,
           {"order": pole.order, "ascent": pole.ascent})

    gap = laurent_algebra_gap(cp)
    _check_bounded(analytic, "laurent-algebra", gap, {"worst_scaled_gap": gap})

    # class components: at most one of the two families applies.
    report = _components(cp, args)
    if report is not None:
        cross = float(report.cross_check_residual)
        if report.order == 1:  # fold the Taylor-route gap over h_0..h_jmax into P's check
            cross = float(max(cross, taylor_h_gap(cp, report.h_coeffs, 1)))
        _check_bounded(analytic, "p-cross-check", cross, {"residual": cross})

        # contour-route Taylor coefficients against the closed-form h list
        j_cap = min(20, len(report.h_coeffs) - 1)
        closed = [np.asarray(h) for h in report.h_coeffs[:j_cap + 1]]
        # 512 start nodes: one level above the library's start
        worst = taylor_h_gap(cp, closed, report.order, nodes=512)
        _check_bounded(analytic, "h-coefficient cross-check", worst,
                       {"worst_gap": worst, "j_cap": j_cap})

        if report.order == 2:
            n2 = np.asarray(report.n_minus2)
            scale = max(1.0, operator_norm(n2))
            left = operator_norm(cp.a1 @ n2 - n2) / scale
            right = operator_norm(n2 @ cp.a1 - n2) / scale
            _check_bounded(analytic, "n2-cross-check", max(left, right),
                           {"left": left, "right": right})

    # determinism: the same seed twice gives the same states bit for bit;
    # a stored path must match the CSV bytes of a fresh simulation under
    # the same settings, read as bytes so that no line ending is
    # translated; the path is encoded only for --path.  The
    # representation check below reads the same path.
    seed = args.seed or 0
    results: list = []
    path = _simulate(ar, args.horizon, seed, model_id)
    again = _simulate(ar, args.horizon, seed, model_id)
    ok = path.states.tobytes() == again.states.tobytes()
    detail = "regenerated path matches" if ok else "same seed gave different bytes"
    if ok and args.path:
        try:
            with open(args.path, "rb") as fh:
                stored = fh.read()
        except OSError as exc:
            raise _CliError(f"cannot read stored path {args.path}: {exc}") from exc
        ok = stored == path.to_csv_text().encode("utf-8")
        detail = ("stored path matches" if ok
                  else "stored path differs from regeneration (seed mismatch?)")
    _check(results, "determinism", ok, detail)

    residual = recursion_residual(ar, path)
    _check_bounded(results, "recursion", residual, {"residual": residual})
    results += analytic
    if report is None:
        return _finish_verify(results, model_id, args, no_class=True)

    try:
        check = verify_representation(ar, path, report)
        fit = within("verify representation", check.max_residual,
                     1.0 + float(np.max(np.abs(path.states))))
        _check(results, "representation", fit.holds,
               {"max_residual": fit.value, "bound": fit.bound,
                "class": check.rep_class, "transient": check.transient})
    except (ValueError, ArithmeticError) as exc:
        _check(results, "representation", False, str(exc))

    return _finish_verify(results, model_id, args)


def _finish_verify(results, model_id, args, no_class=False) -> int:
    """Emit the invariants that ran; exit 4 if one failed, else 3 (not ok) if no_class."""
    failed = [r["name"] for r in results if not r["ok"]]
    report = {"model": model_id, "invariants": results, "failed": failed,
              "ok": not failed and not no_class}
    _emit(dump_json(report), args.out)
    if failed:
        sys.stderr.write("grj verify: invariant failure: " + ", ".join(failed) + "\n")
        return _EXIT_INVARIANT
    if no_class:
        sys.stderr.write(f"grj verify: {_NO_CLASS}\n")
        return _EXIT_NO_CLASS
    return _EXIT_OK


def cmd_examples(args) -> int:
    _emit(dump_json({"examples": [{"name": name, "defaults": models.example_defaults(name)}
                                  for name in models.EXAMPLE_NAMES]}), None)
    return _EXIT_OK


_MODEL_FLAGS = ("--model", "--n", "--lam", "--blocks", "--seed")

# subcommand -> (handler, help, the flags it reads); nothing else is accepted
_COMMANDS = {
    "analyze": (cmd_analyze, "spectrum, pole order, class verdicts",
                _MODEL_FLAGS + ("--out",)),
    "represent": (cmd_represent, "long-run operators and h-coefficients",
                  _MODEL_FLAGS + ("--jmax", "--out")),
    "simulate": (cmd_simulate, "simulate one path to CSV",
                 _MODEL_FLAGS + ("--horizon", "--out")),
    "verify": (cmd_verify, "run the invariant suite for a model",
               _MODEL_FLAGS + ("--horizon", "--jmax", "--path", "--out")),
    "sweep": (cmd_sweep, "pole order across truncation dimensions",
              ("--lam", "--seed", "--dims", "--out")),
    "examples": (cmd_examples, "list built-in models", ()),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # held until the command ends and written only when it exits 0, so a
        # failing command prints just its own line, not the overflow warnings
        # numpy raised on the way (z B at a contour node, say)
        with warnings.catch_warnings(record=True) as held:
            code = _COMMANDS[args.command][0](args)
        if code == _EXIT_OK:
            # one stderr line per warning, without Python's file:line and source echo
            for caught in held:
                sys.stderr.write(f"grj {args.command}: warning: {caught.message}\n")
        return code
    except (_CliError, ContourNotConverged, SingularAt, NotComplementary,
            MemoryError) as exc:
        sys.stderr.write(f"grj: error: {exc}\n")
        return _EXIT_BAD_INPUT
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
