"""Gallery of pole orders and integration verdicts across the model zoo.

Prints one row per model: pole order at z = 1, whether the structural
(rank) and Jordan-ascent routes agree, and which integration class the
pencil's verdicts certify.  Planted Jordan models (known block sizes)
double as ground truth for the order column.

Usage:
    python3 scripts/pole_order_gallery.py --jordan-seeds 0,1,2,3
"""
from __future__ import annotations

import argparse
import sys

from grjkit.grj import check_i1, check_i2
from grjkit.laurent import pole_order
from grjkit.models import (EXAMPLE_NAMES, ar2_double_root_model,
                           ar2_unit_root_model, build_example, jordan_model)
from grjkit.pencil import linearize, spectrum_report


BLOCKS = ([2], [2, 1], [3])  # planted block sizes at the unit root


def parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jordan-seeds", type=lambda raw: [int(s) for s in raw.split(",")],
                    default="0,1,2,3")
    return ap.parse_args(argv)


def verdict_row(label, ar, expected_order=None):
    cp = linearize(ar)
    spectrum = spectrum_report(cp)
    if not spectrum.unit_root_ok:
        print(f"{label:28s}  no unit root")
        return
    # as in grj analyze: one spectrum serves all three decisions
    rep = pole_order(cp, spectrum=spectrum)
    i1 = check_i1(cp, spectrum=spectrum).holds
    i2 = check_i2(cp, spectrum=spectrum).holds
    cls = "I(1)" if i1 else ("I(2)" if i2 else "I(>=3)")
    routes = "agree" if rep.routes_agree else "SPLIT"
    tag = ""
    if expected_order is not None:
        tag = "  ok" if rep.order == expected_order else f"  EXPECTED {expected_order}"
    print(f"{label:28s}  order {rep.order}  ascent {rep.ascent}  "
          f"routes {routes:5s}  {cls}{tag}")


def main(argv=None) -> int:
    args = parse_args(argv)
    print("== registry examples ==")
    for name in EXAMPLE_NAMES:
        ar, _ = build_example(name)
        verdict_row(name, ar)
    verdict_row("ar2-unit", ar2_unit_root_model())
    verdict_row("ar2-double", ar2_double_root_model())
    print("== planted jordan structures ==")
    for blocks in BLOCKS:
        for seed in args.jordan_seeds:
            ar, info = jordan_model(seed, blocks_at_one=blocks)
            verdict_row(f"jordan{blocks}@{seed}", ar,
                        expected_order=max(blocks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
