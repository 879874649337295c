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
from dataclasses import dataclass

import numpy as np

from grjkit.grj import check_i1, i1_components, i2_components
from grjkit.models import build_example
from grjkit.numfield import fit_geometric_decay, operator_norm
from grjkit.pencil import linearize
from grjkit.simkit import consistent_initial, simulate_ar, verify_representation


@dataclass
class Config:
    model: str = "ex-c0"
    n: int | None = None
    seed: int | None = None
    horizon: int = 400
    path_seed: int = 42
    j_grid: tuple = (8, 16, 24, 32, 48, 64, 96)
    csv_path: str | None = None


def parse_args(argv) -> Config:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", default="ex-c0")
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--horizon", type=int, default=400)
    ap.add_argument("--csv", dest="csv_path", default=None)
    ns = ap.parse_args(argv)
    return Config(model=ns.model, n=ns.n, seed=ns.seed,
                  horizon=ns.horizon, csv_path=ns.csv_path)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    ar, info = build_example(cfg.model, n=cfg.n, seed=cfg.seed)
    cp = linearize(ar)
    components = i1_components if check_i1(cp).holds else i2_components
    j_top = max(cfg.j_grid)
    rep = components(cp, j_max=j_top + 8)

    tail_norms = [operator_norm(h) for h in rep.h_coeffs]
    scale, rate = fit_geometric_decay(tail_norms)
    print(f"model {cfg.model}  (companion dim {cp.big_dim}); "
          f"h-tail ~ {scale:.2e} * {rate:.3f}^j")

    cov = np.eye(ar.dim)
    init = consistent_initial(ar, rep.p_operator, cov, seed=cfg.path_seed)
    path = simulate_ar(ar, cov, horizon=cfg.horizon, seed=cfg.path_seed,
                       initial=init)
    peak = 1.0 + float(np.max(np.abs(path.states)))

    rows = []
    for j_max in cfg.j_grid:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            check = verify_representation(path, rep, j_max=j_max, ar=ar)
        predicted_floor = scale * rate ** (j_max + 1) / max(1e-300, 1.0 - rate)
        rows.append({"j_max": j_max, "residual": check.max_residual,
                     "scaled": check.max_residual / peak,
                     "tail_floor": predicted_floor})
        print(f"  j_max {j_max:4d}   residual {check.max_residual:.3e}   "
              f"tail floor {predicted_floor:.3e}")

    if cfg.csv_path:
        with open(cfg.csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {cfg.csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
