"""Benchmark a change against its parent and write the record as BENCH_<label>.json.

Both sides run from plain checkouts, each with its own perfbench/:

    mkdir -p /tmp/base && git archive <parent> | tar -x -C /tmp/base
    python3 scripts/bench_compare.py --base /tmp/base --head . --out BENCH_label.json

Every (workload, trace, seed) cell runs perfbench/run.py once in each
checkout, back to back, for the run_seconds that BENCHMARK.json sets, so
both runs of a pair see the same machine load; the side that runs first
alternates from cell to cell.  Workloads default to all that
BENCHMARK.json lists.  The file keeps each run's result line (metric
values, pass/fail counts, traced call counts, output digests) and, per
workload and metric, the median over seeds at base and at head, their
ratio, the base quartiles, the number of seed pairs in which head was
better, and the verdict ("gain", "too_few_pairs"; see compare).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10  # the fewest seed pairs a gain may rest on


def run_once(checkout: Path, workload: str, seed: int, trace: int, seconds: float) -> dict:
    """One perfbench/run.py run: its info line and result line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return {"info": info["info"], "result": result}


def summarize(run: dict) -> dict:
    info, result = run["info"], run["result"]
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
    if "calls" in info:
        out["calls"] = info["calls"]
    if "output_sha256" in info:
        out["output_sha256"] = info["output_sha256"]
    return out


def compare(base_runs: list, head_runs: list, better: dict) -> dict:
    """Per metric: base and head medians, head/base, base quartiles (linear
    interpolation; one run is its own quartiles), head-better pair count
    (a tie counts for neither side) and the verdict.  "gain" holds when there
    are at least MIN_PAIRS pairs, head wins at least nine tenths of them, and
    the medians differ in head's favour by more than base_q3 - base_q1;
    "too_few_pairs" says there are fewer than MIN_PAIRS."""
    table = {}
    for name in base_runs[0]["metrics"]:
        b = [r["metrics"][name] for r in base_runs]
        h = [r["metrics"][name] for r in head_runs]
        sign = 1 if better[name] == "lower" else -1
        b_med, h_med = statistics.median(b), statistics.median(h)
        b_q1, _, b_q3 = (statistics.quantiles(b, n=4, method="inclusive") if len(b) > 1
                         else b * 3)
        wins = sum(sign * (y - x) < 0 for x, y in zip(b, h))
        too_few = len(b) < MIN_PAIRS
        table[name] = {"base_median": b_med, "head_median": h_med,
                       "ratio": h_med / b_med if b_med else None,
                       "base_q1": b_q1, "base_q3": b_q3,
                       "head_better_pairs": wins, "pairs": len(b),
                       "gain": (not too_few and 10 * wins >= 9 * len(b)
                                and sign * (b_med - h_med) > b_q3 - b_q1),
                       "too_few_pairs": too_few}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="parent checkout")
    parser.add_argument("--head", type=Path, required=True, help="changed checkout")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--traces", default="0,1")
    args = parser.parse_args(argv)
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    traces = [int(t) for t in args.traces.split(",")]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    runs, machine = [], None
    sides = [("base", args.base), ("head", args.head)]
    for workload in workloads:
        for trace in traces:
            for seed in seeds:
                cell = {"workload": workload, "trace": trace, "seed": seed}
                for side, checkout in sides[::1 if len(runs) % 2 == 0 else -1]:
                    run = run_once(checkout, workload, seed, trace,
                                   spec["run_seconds"])
                    machine = machine or {k: run["info"][k] for k in
                                          ("nproc", "python", "numpy", "blas", "blas_threads",
                                           "machine")}
                    cell[side] = summarize(run)
                    print(workload, trace, seed, side, cell[side]["metrics"].get("run_s"),
                          flush=True)
                runs.append(cell)

    summary = {}
    for workload in workloads:
        for trace in traces:
            cells = [c for c in runs if c["workload"] == workload and c["trace"] == trace]
            key = f"{workload}/trace{trace}"
            summary[key] = {
                "all_correct": all(c[s]["correct"] and c[s]["failed"] == 0
                                   for c in cells for s in ("base", "head")),
                "metrics": compare([c["base"] for c in cells], [c["head"] for c in cells],
                                   better)}
    record = {"machine": machine, "seconds": spec["run_seconds"], "seeds": seeds,
              "summary": summary, "runs": runs}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
