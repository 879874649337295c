"""grjkit benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; grjkit is imported from the
checkout's ``src/`` and from nowhere else.  The workloads are listed in
``BENCHMARK.json`` and built in ``workloads.py``.

``--trace 0`` first runs one untimed pass, which warms caches and
checks every output, then timed passes with no tracer installed, at
least ``MIN_PASSES`` and as many more as fit in ``--seconds``, and
reports the end-to-end metrics:

* ``setup_s``: median over several fresh processes of the time from
  process start until grjkit is imported and the inputs are built;
* ``run_s``: one pass over the operations (checks excluded), each
  operation at the median of its timed repeats;
* ``op_p50_ms`` and ``op_tail_ms``: the median, and the highest
  percentile with at least ten operations beyond it (the maximum below
  20 operations), of those per-operation medians;
* ``peak_rss_mb``: peak resident memory of this process, which runs this
  one workload only, up to the end of the warm-up pass, whose allocation
  history is the same in every run (the timed passes that follow vary
  in number).

Times are CPU seconds of the measured process (user + system, all its
threads) converted to reference seconds: each is multiplied by
``REF_NOMINAL_S`` over the CPU time that a fixed reference kernel
(``Yardstick``) took right before and right after it.  Both steps are
there for shared virtual machines.  CPU time leaves out the stretches in which
the host runs another tenant on this virtual core (steal), which wall
time counts.  And while it runs, the core's speed moves by 15 to 60 %
for stretches of seconds to tens of minutes (cache and sibling-thread
contention); stretches that cover whole runs survive any statistic of
one run's times, but not the ratio to an adjacent fixed kernel.  Over
six seeds of each workload run within eight minutes on a 2-core VM, the
spread (quartile distance over median) of run_s was 0.15 to 0.34 from
raw CPU times and 0.05 to 0.06 from calibrated ones.  BLAS and ensemble
threads are pinned to one, so on an idle core the CPU time of a pass is
its wall time; a change that added threads would show their extra CPU
time, not a wall-time gain.  The wall times, the raw CPU times and the
reference kernel's timings are kept in the run details line.

``--trace 1`` runs the untimed pass, one untraced pass and one traced
pass, and reports the per-layer metrics of the traced pass (wall time);
the difference of the last two passes is the tracing overhead.

Every operation's output is checked; an operation fails if it raises,
fails its check, or gives different bytes on a repeat.  The last line
of standard output is the JSON result; the line before it holds run
details (machine, seed, sample counts, work counters, output digests).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# One BLAS thread: the caller is single, and a fixed count keeps timings
# independent of how many cores other processes leave free.
BLAS_THREADS = "1"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# The unit of a reference second: about the median CPU time of one
# Yardstick.time() on a 2-core x86-64 VM (numpy 2.4, OpenBLAS, one
# thread).  Any fixed value would do; it only has to stay fixed.
REF_NOMINAL_S = 0.030


def _pin_environment():
    """Set before numpy is imported; the set-up processes inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # No huge-page advice on numpy's large arrays: with it, resident
    # memory depended on whether the kernel had huge pages to hand out at
    # the moment (the same analyze-wide run peaked at about 110 or 141 MB).
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def _import_checkout():
    """Import grjkit from this checkout's src/, or exit non-zero."""
    if not (SRC / "grjkit" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no grjkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import grjkit

    if Path(grjkit.__file__).resolve().parent != SRC / "grjkit":
        raise SystemExit(f"run.py: grjkit imported from {grjkit.__file__}, not {SRC}")


def _tmpdir() -> str:
    return tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

class Yardstick:
    """A fixed kernel, timed next to each measurement, that tells how fast
    this core runs at the moment.  It mixes the kinds of work grjkit does
    (interpreted Python, many small numpy calls, mid-size complex LAPACK)
    and calls no grjkit code, so no change to grjkit moves it."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20171224)
        self._np = np
        self._dense = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self._small = rng.standard_normal((300, 8, 8)) + 8.0 * np.eye(8)
        self._rhs = np.ones((300, 8, 1))
        self.samples = []
        self._kernel()  # warm-up: first LAPACK calls allocate workspace

    def _kernel(self):
        np = self._np
        table = {}
        for i in range(40000):
            table[i % 97] = table.get(i % 97, 0) + i
        for _ in range(2):
            np.linalg.svd(self._dense)
        np.linalg.solve(self._small, self._rhs)
        for block in self._small[:200]:
            np.linalg.norm(block, 2)

    def time(self) -> float:
        """CPU seconds of one run of the kernel."""
        start = time.process_time()
        self._kernel()
        elapsed = time.process_time() - start
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Reference seconds per CPU second between two kernel timings."""
        return REF_NOMINAL_S / (0.5 * (before + after))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _setup_only(workload: str, seed: int) -> int:
    """Child mode: import grjkit, build the inputs, report ready and the
    CPU seconds this process has used since it started."""
    import workloads

    tmp = _tmpdir()
    try:
        workloads.build(workload, seed, tmp)
        print("ready", time.process_time(), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def _measure_setup(workload: str, seed: int, yardstick: Yardstick) -> dict:
    """Time from process start to inputs built, in fresh processes:
    reference, CPU and wall seconds of each."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = {"scaled": [], "cpu": [], "wall": []}
    before = yardstick.time()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        words = line.split()
        if code != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"set-up process failed with exit code {code}")
        after = yardstick.time()
        cpu = float(words[1])
        times["scaled"].append(cpu * yardstick.scale(before, after))
        times["cpu"].append(cpu)
        times["wall"].append(wall)
        before = after
    return times


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Ledger:
    """Outcome of every operation run: failures, output digests and, for
    timed passes, each latency in wall, CPU and reference seconds."""

    def __init__(self, ops):
        self.ops = ops
        self.digests = [None] * len(ops)
        self.wall = []
        self.cpu = []
        self.scaled = []
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None, yardstick=None, timed=True):
        """Run every operation once; returns the pass's wall seconds.  With
        a yardstick, the kernel is timed before the first operation and
        right after each one, and each CPU latency is converted to
        reference seconds."""
        total = 0.0
        before = yardstick.time() if yardstick else None
        for i, op in enumerate(self.ops):
            self.attempted += 1
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                result = op.run()
            except Exception:  # a raising operation is a counted failure
                result, problem = None, traceback.format_exc(limit=3)
            else:
                problem = None
            wall = time.perf_counter() - start
            cpu = time.process_time() - start_cpu
            if yardstick:
                after = yardstick.time()
                if timed:
                    self.scaled.append(cpu * yardstick.scale(before, after))
                before = after
            if problem:
                self._fail(op, problem)
            else:
                with tracer.paused() if tracer else contextlib.nullcontext():
                    self._judge(i, op, result)
            if timed:
                self.wall.append(wall)
                self.cpu.append(cpu)
            total += wall
        return total

    def _judge(self, i, op, result):
        try:
            data = op.collect(result)
            digest = hashlib.sha256(data).hexdigest()
            if self.digests[i] is None:
                self.digests[i] = digest
                problem = op.check(result, data)
            elif digest != self.digests[i]:
                problem = "different bytes on a repeat with the same inputs"
            else:
                problem = None
        except Exception:  # a check that cannot run is a failed check
            problem = traceback.format_exc(limit=3)
        if problem:
            self._fail(op, problem)

    def _fail(self, op, problem):
        self.failures.append({"op": op.name, "problem": problem})
        sys.stderr.write(f"run.py: FAILED {op.name}: {problem}\n")


def tail(latencies):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it.  Below 20 samples that percentile would lie under
    the median, so the maximum is reported instead, as percentile 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def per_op_median(ledger, latencies):
    """Each operation's median latency over its timed repeats."""
    n = len(ledger.ops)
    return [statistics.median(latencies[i::n]) for i in range(n)]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(ledger, setup_scaled, peak_rss_mb):
    ops = per_op_median(ledger, ledger.scaled)
    return {
        "setup_s": _metric(statistics.median(setup_scaled), "s"),
        "run_s": _metric(sum(ops), "s"),
        "op_p50_ms": _metric(1000.0 * statistics.median(ops), "ms"),
        "op_tail_ms": _metric(1000.0 * tail(ops)[0], "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _per_layer(tr, traced_s, untraced_s):
    calls, self_s, counts = tr.calls, tr.self_s, tr.counts

    def own(*labels):
        return sum(self_s.get(label, 0.0) for label in labels)

    sim_s = own("simkit.simulate")
    solves = counts["circle_solves"]
    return {
        "pencil.spectrum_report.calls": _metric(calls.get("pencil.spectrum_report", 0), "count"),
        "pencil.spectrum_report.self_s": _metric(own("pencil.spectrum_report"), "s"),
        "pencil.resolvent.calls": _metric(calls.get("pencil.resolvent", 0), "count"),
        "pencil.resolvent.self_s": _metric(own("pencil.resolvent"), "s"),
        "pencil.other.self_s": _metric(own("pencil.other"), "s"),
        "laurent.circle_coefficients.calls":
            _metric(calls.get("laurent.circle_coefficients", 0), "count"),
        "laurent.circle_coefficients.self_s": _metric(own("laurent.circle_coefficients"), "s"),
        "laurent.node_yield": _metric(counts["circle_final_nodes"] / solves if solves else 0.0,
                                      "ratio"),
        "laurent.pole_order.self_s": _metric(own("laurent.pole_order"), "s"),
        "laurent.other.self_s": _metric(own("laurent.other"), "s"),
        "numfield.rank.calls": _metric(calls.get("numfield.rank", 0), "count"),
        "numfield.rank.self_s": _metric(own("numfield.rank"), "s"),
        "numfield.operator_norm.calls": _metric(calls.get("numfield.operator_norm", 0), "count"),
        "numfield.operator_norm.self_s": _metric(own("numfield.operator_norm"), "s"),
        "numfield.self_s": _metric(own("numfield.rank", "numfield.operator_norm",
                                       "numfield.other"), "s"),
        "grj.closed_form.self_s": _metric(own("grj.closed_form"), "s"),
        "grj.taylor_h.self_s": _metric(own("grj.taylor_h"), "s"),
        "grj.other.self_s": _metric(own("grj.other"), "s"),
        "simkit.simulate.self_s": _metric(sim_s, "s"),
        "simkit.steps_per_s": _metric(counts["sim_steps"] / sim_s if sim_s else 0.0, "1/s"),
        "simkit.verify_representation.self_s":
            _metric(own("simkit.verify_representation"), "s"),
        "simkit.other.self_s": _metric(own("simkit.other"), "s"),
        "cointegration.self_s": _metric(own("cointegration"), "s"),
        "models.build.self_s": _metric(own("models.build"), "s"),
        "cli.encode.self_s": _metric(own("cli.encode"), "s"),
        "cli.encode.bytes": _metric(counts["encode_bytes"], "bytes"),
        "cli.self_s": _metric(own("cli"), "s"),
        "trace.run_s": _metric(traced_s, "s"),
        "trace.overhead_s": _metric(traced_s - untraced_s, "s"),
    }


def _machine():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": int(BLAS_THREADS),
            "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
            "machine": platform.machine()}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_environment()
    _import_checkout()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        return _setup_only(args.workload, args.seed)

    yardstick = Yardstick()
    setup = None if args.trace else _measure_setup(args.workload, args.seed, yardstick)
    tmp = _tmpdir()
    try:
        ledger = Ledger(workloads.build(args.workload, args.seed, tmp))
        info = {"workload": args.workload, "seed": args.seed, **_machine(),
                "ensemble_threads": workloads.ENSEMBLE_THREADS,
                "ref_nominal_s": REF_NOMINAL_S, "setup_s_samples": setup}
        if tracing.wrapped_bindings():
            raise RuntimeError("grjkit holds tracer wrappers before an untraced run")
        ledger.run_pass(timed=False)  # warm-up; checks every output
        warm_rss_mb = _peak_rss_mb()
        if args.trace:
            untraced_s = ledger.run_pass()
            tr = tracing.Tracer()
            with tr:
                traced_s = ledger.run_pass(tracer=tr)
            metrics = _per_layer(tr, traced_s, untraced_s)
            info.update({"untraced_run_s": untraced_s, "traced_run_s": traced_s,
                         "self_s_sum": sum(tr.self_s.values()),
                         "calls": tr.calls, "counters": tr.counts})
        else:
            start, laps = time.perf_counter(), []
            while (len(laps) < workloads.MIN_PASSES
                   or time.perf_counter() - start + statistics.mean(laps) <= args.seconds):
                lap = time.perf_counter()
                ledger.run_pass(yardstick=yardstick)
                laps.append(time.perf_counter() - lap)
            if tracing.wrapped_bindings():
                raise RuntimeError("an untraced run held tracer wrappers")
            metrics = _end_to_end(ledger, setup["scaled"], warm_rss_mb)
            wall_ops = per_op_median(ledger, ledger.wall)
            cpu_ops = per_op_median(ledger, ledger.cpu)
            refs = yardstick.samples
            info.update({"passes": len(laps), "operations": len(ledger.ops),
                         "run_peak_rss_mb": _peak_rss_mb(),
                         "samples": len(ledger.scaled),
                         "op_tail_percentile": tail(cpu_ops)[1],
                         "wall_run_s": sum(wall_ops),
                         "wall_op_p50_ms": 1000.0 * statistics.median(wall_ops),
                         "wall_op_tail_ms": 1000.0 * tail(wall_ops)[0],
                         "cpu_run_s": sum(cpu_ops),
                         "cpu_op_p50_ms": 1000.0 * statistics.median(cpu_ops),
                         "cpu_op_tail_ms": 1000.0 * tail(cpu_ops)[0],
                         "ref_cpu_s_median": statistics.median(refs),
                         "ref_cpu_s_quartiles": statistics.quantiles(refs, n=4),
                         "ref_samples": len(refs)})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    info.update({"failures": ledger.failures[:10],
                 "output_sha256": {op.name: d for op, d in zip(ledger.ops, ledger.digests)}})
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
