"""Monte Carlo accuracy of the variance-growth law.

For an order-one model the variance of any linear functional f grows like
t * (f A C A' f) once the stationary part washes out.  This experiment
sweeps the replication count and reports how tightly the measured slope
brackets the prediction, for the top-loading functional and for every
cointegrating functional (whose slope should be zero).

Usage:
    python3 scripts/variance_law_mc.py --reps 50,100,200,400 --horizon 2000
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from grjkit.cli import _int_at_least
from grjkit.cointegration import annihilators
from grjkit.grj import i1_components
from grjkit.models import ar2_unit_root_model, oblique_ar1_model
from grjkit.pencil import linearize
from grjkit.simkit import simulate_ensemble, stationarity_slope


MIN_REPLICATIONS = 10  # smallest ensemble the slope fit takes here
MIN_HORIZON = 8  # shortest path stationarity_slope's quarter-point design takes


def _replication_counts(raw: str) -> list:
    return [_int_at_least(MIN_REPLICATIONS)(r) for r in raw.split(",")]


def parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=_replication_counts, default="50,100,200,400")
    ap.add_argument("--horizon", type=_int_at_least(MIN_HORIZON), default=2000)
    ap.add_argument("--seeds", type=_int_at_least(1), default=5,
                    help="ensemble seeds per setting (spread of the estimate)")
    ap.add_argument("--threads", type=_int_at_least(1), default=4)
    return ap.parse_args(argv)


def study(label, ar, args):
    cp = linearize(ar)
    rep = i1_components(cp, j_max=24)
    a_op = rep.long_run.real
    cov = np.eye(ar.dim)
    u, _, _ = np.linalg.svd(a_op)
    f = u[:, 0].real
    predicted = float(f @ a_op @ cov @ a_op.T @ f)
    coint = annihilators(a_op)
    print(f"{label}: predicted slope {predicted:.4f}, "
          f"{coint.shape[1]} cointegrating direction(s)")
    for n_rep in args.reps:
        rels, coint_ok = [], 0
        for seed in range(args.seeds):
            ens = simulate_ensemble(ar, cov, horizon=args.horizon,
                                    seed=1000 + seed, replications=n_rep,
                                    threads=args.threads)
            # min_replications is deliberately relaxed: the sweep is about
            # how bad small R gets, which the default guard would veto.
            slope = stationarity_slope(ens @ f, min_replications=MIN_REPLICATIONS).slope
            rels.append(abs(slope - predicted) / predicted)
            coint_ok += all(
                stationarity_slope(ens @ coint[:, i].real,
                                   min_replications=MIN_REPLICATIONS).stationary
                for i in range(coint.shape[1]))
        rels = np.asarray(rels)
        print(f"  R={n_rep:4d}   rel err median {np.median(rels):6.1%}   "
              f"worst {rels.max():6.1%}   cointegrating flat {coint_ok}/{args.seeds}")


def main(argv=None) -> int:
    args = parse_args(argv)
    study("oblique-ar1", oblique_ar1_model(), args)
    study("ar2-unit", ar2_unit_root_model(seed=11), args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
