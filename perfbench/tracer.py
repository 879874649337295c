"""Span and counter tracing of grjkit, installed from outside the package.

``Tracer.install()`` replaces every public module-level function of the
eight grjkit modules, plus ``SamplePath.to_csv_text``, with a wrapper at
*every* module binding that refers to it: the defining module, each
module that took it by ``from`` import (``laurent.resolvent``,
``grj.resolvent``, ``cli.pole_order``, ...) and the package namespace.
Bindings are matched by object identity, so aliases are found too.
``uninstall()`` puts every original object back.  Nothing under ``src/``
is edited.

A wrapper records a span (label, duration, time covered by child spans)
and a call count.  A span's self time is its duration minus its
children's durations, so the self times of all spans in a pass sum to
at most the pass's wall time.  Spans are recorded on the thread that
installed the tracer; calls from other threads only count.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time

MODULES = ("pencil", "laurent", "numfield", "grj", "simkit", "cointegration",
           "models", "cli")

# Span label of a traced function, when it is not "<module>.other".
_LABELS = {
    "pencil.resolvent": "pencil.resolvent",
    "pencil.spectrum_report": "pencil.spectrum_report",
    "laurent.circle_coefficients": "laurent.circle_coefficients",
    "laurent.pole_order": "laurent.pole_order",
    "numfield.numerical_rank": "numfield.rank",
    "numfield.kernel_basis": "numfield.rank",
    "numfield.range_basis": "numfield.rank",
    "numfield.operator_norm": "numfield.operator_norm",
    "numfield.dump_json": "cli.encode",
    "simkit.SamplePath.to_csv_text": "cli.encode",
    "grj.check_i1": "grj.closed_form",
    "grj.check_i2": "grj.closed_form",
    "grj.i1_components": "grj.closed_form",
    "grj.i2_components": "grj.closed_form",
    "grj.taylor_h_coefficients": "grj.taylor_h",
    "simkit.simulate_ar": "simkit.simulate",
    "simkit.simulate_ensemble": "simkit.simulate",
    "simkit.verify_representation": "simkit.verify_representation",
}
# Whole modules that form one layer label.
_MODULE_LABELS = {"models": "models.build", "cointegration": "cointegration",
                  "cli": "cli"}

_MARK = "__perfbench_original__"


def package_modules():
    """The grjkit package and its eight modules, imported."""
    pkg = importlib.import_module("grjkit")
    return [pkg] + [importlib.import_module(f"grjkit.{m}") for m in MODULES]


def traced_functions():
    """{qualified name: original function} for everything the tracer wraps."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"grjkit.{short}")
        for name, value in vars(mod).items():
            if (inspect.isfunction(value) and not name.startswith("_")
                    and value.__module__ == mod.__name__):
                out[f"{short}.{name}"] = value
    simkit = importlib.import_module("grjkit.simkit")
    out["simkit.SamplePath.to_csv_text"] = simkit.SamplePath.to_csv_text
    return out


def label_of(qualname: str) -> str:
    if qualname in _LABELS:
        return _LABELS[qualname]
    module = qualname.split(".", 1)[0]
    return _MODULE_LABELS.get(module, f"{module}.other")


def is_wrapper(value) -> bool:
    return hasattr(value, _MARK)


def wrapped_bindings():
    """(owner, name) of every binding that currently holds a wrapper."""
    found = []
    simkit = importlib.import_module("grjkit.simkit")
    for owner in package_modules() + [simkit.SamplePath]:
        for name, value in vars(owner).items():
            if is_wrapper(value):
                found.append((owner, name))
    return found


class Tracer:
    """Per-label call counts and self times, plus the work counters the
    benchmark reports (solves inside quadratures, final node counts,
    simulated steps, encoded bytes)."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {"circle_final_nodes": 0, "circle_solves": 0,
                       "sim_steps": 0, "encode_bytes": 0}
        self._stack = []  # child-time accumulators of the open spans
        self._open_circles = 0
        self._thread = None
        self._paused = False
        self._swapped = []  # (owner, name, original)
        self._lock = threading.Lock()

    # -- installation ------------------------------------------------------

    def install(self):
        if self._swapped:
            raise RuntimeError("tracer already installed")
        self._thread = threading.get_ident()
        originals = traced_functions()
        wrappers = {id(fn): self._wrap(qual, fn) for qual, fn in originals.items()}
        simkit = importlib.import_module("grjkit.simkit")
        for owner in package_modules() + [simkit.SamplePath]:
            for name, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(owner, name, wrapper)
                    self._swapped.append((owner, name, value))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._swapped):
            setattr(owner, name, original)
        self._swapped = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    @property
    def swapped(self):
        return list(self._swapped)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block are neither timed nor counted."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- recording ---------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        label = label_of(qualname)
        is_circle = label == "laurent.circle_coefficients"
        is_solve = label == "pencil.resolvent"
        is_sim = label == "simkit.simulate"
        is_encode = label == "cli.encode"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            if threading.get_ident() != tracer._thread:
                with tracer._lock:
                    tracer.calls[label] = tracer.calls.get(label, 0) + 1
                return fn(*args, **kwargs)
            tracer.calls[label] = tracer.calls.get(label, 0) + 1
            if is_solve and tracer._open_circles:
                tracer.counts["circle_solves"] += 1
            if is_circle:
                tracer._open_circles += 1
            children = [0.0]
            tracer._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.self_s[label] = (tracer.self_s.get(label, 0.0)
                                        + elapsed - children[0])
                if is_circle:
                    tracer._open_circles -= 1
            if is_circle:
                tracer.counts["circle_final_nodes"] += int(result[1])
            elif is_sim:
                shape = getattr(result, "states", result).shape
                tracer.counts["sim_steps"] += shape[0] * (shape[1] if len(shape) == 3 else 1)
            elif is_encode:
                tracer.counts["encode_bytes"] += len(result.encode("utf-8"))
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper
