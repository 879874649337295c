"""How many moving-average terms does the exact representation need?

The closed-form deviation from the trend is a truncated MA(j_max) in the
innovations, so the representation residual is floored by the geometric
tail of the h coefficients.  This sweep measures both against j_max for
one model and prints (or saves) the table; the fitted tail rate should
explain the residual curve almost exactly.

Usage:
    python3 scripts/truncation_study.py --model ex-c0 --n 8 --horizon 400
    python3 scripts/truncation_study.py --model ex-jordan --seed 2 --csv out.csv
"""
from __future__ import annotations

import argparse
import csv
import sys
import warnings

import numpy as np

from grjkit.cli import _int_at_least
from grjkit.grj import check_i1, i1_components, i2_components
from grjkit.models import build_example
from grjkit.numfield import fit_geometric_decay, operator_norm
from grjkit.pencil import linearize
from grjkit.simkit import consistent_initial, simulate_ar, verify_representation


J_GRID = (8, 16, 24, 32, 48, 64, 96)  # tail-sum cutoffs j_max, one table row each
PATH_SEED = 42  # seed of the simulated path


def parse_args(argv):
    """The parsed namespace, with the model it names built (argparse error if none)."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", default="ex-c0")
    ap.add_argument("--n", type=_int_at_least(1), default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--horizon", type=_int_at_least(1), default=400)
    ap.add_argument("--csv", dest="csv_path", default=None)
    args = ap.parse_args(argv)
    try:
        ar, _ = build_example(args.model, n=args.n, seed=args.seed)
    except (KeyError, ValueError) as exc:
        ap.error(str(exc.args[0]))
    return args, ar


def main(argv=None) -> int:
    args, ar = parse_args(argv)
    cp = linearize(ar)
    components = i1_components if check_i1(cp).holds else i2_components
    j_top = max(J_GRID)
    rep = components(cp, j_max=j_top + 8)

    tail_norms = [operator_norm(h) for h in rep.h_coeffs]
    scale, rate = fit_geometric_decay(tail_norms)
    print(f"model {args.model}  (companion dim {cp.big_dim}); "
          f"h-tail ~ {scale:.2e} * {rate:.3f}^j")

    cov = np.eye(ar.dim)
    init = consistent_initial(ar, rep.p_operator, cov, seed=PATH_SEED)
    path = simulate_ar(ar, cov, horizon=args.horizon, seed=PATH_SEED, initial=init)
    peak = 1.0 + float(np.max(np.abs(path.states)))

    rows = []
    for j_max in J_GRID:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            check = verify_representation(path, rep, j_max=j_max, ar=ar)
        predicted_floor = scale * rate ** (j_max + 1) / max(1e-300, 1.0 - rate)
        rows.append({"j_max": j_max, "residual": check.max_residual,
                     "scaled": check.max_residual / peak,
                     "tail_floor": predicted_floor})
        print(f"  j_max {j_max:4d}   residual {check.max_residual:.3e}   "
              f"tail floor {predicted_floor:.3e}")

    if args.csv_path:
        with open(args.csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
