"""Gallery of pole orders and integration verdicts across the model zoo.

Prints one row per model: pole order at z = 1, whether the structural
(rank) and Jordan-ascent routes agree, and which integration class the
closed-form checks certify.  Planted Jordan models (known block sizes)
double as ground truth for the order column.

Usage:
    python3 scripts/pole_order_gallery.py --jordan-seeds 0,1,2,3
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from grjkit.grj import check_i1, check_i2
from grjkit.laurent import NoUnitRoot, pole_order
from grjkit.models import (EXAMPLE_NAMES, ar2_double_root_model,
                           ar2_unit_root_model, build_example, jordan_model)
from grjkit.pencil import linearize


@dataclass
class Config:
    jordan_seeds: list = field(default_factory=lambda: [0, 1, 2, 3])
    blocks: list = field(default_factory=lambda: [[2], [2, 1], [3]])


def parse_args(argv) -> Config:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jordan-seeds", default="0,1,2,3")
    ns = ap.parse_args(argv)
    return Config(jordan_seeds=[int(s) for s in ns.jordan_seeds.split(",")])


def verdict_row(label, ar, expected_order=None):
    cp = linearize(ar)
    try:
        rep = pole_order(cp)
    except NoUnitRoot:
        print(f"{label:28s}  no unit root")
        return
    i1 = check_i1(cp).holds
    i2 = check_i2(cp).holds
    cls = "I(1)" if i1 else ("I(2)" if i2 else "I(>=3)")
    routes = "agree" if rep.routes_agree else "SPLIT"
    tag = ""
    if expected_order is not None:
        tag = "  ok" if rep.order == expected_order else f"  EXPECTED {expected_order}"
    print(f"{label:28s}  order {rep.order}  ascent {rep.ascent}  "
          f"routes {routes:5s}  {cls}{tag}")


def main(argv=None) -> int:
    cfg = parse_args(argv)
    print("== registry examples ==")
    for name in EXAMPLE_NAMES:
        ar, _ = build_example(name)
        verdict_row(name, ar)
    verdict_row("ar2-unit", ar2_unit_root_model())
    verdict_row("ar2-double", ar2_double_root_model())
    print("== planted jordan structures ==")
    for blocks in cfg.blocks:
        for seed in cfg.jordan_seeds:
            ar, info = jordan_model(seed, blocks_at_one=blocks)
            verdict_row(f"jordan{blocks}@{seed}", ar,
                        expected_order=max(blocks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
