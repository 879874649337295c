"""Self-test of the benchmark: tracer bindings, seed work counts, metric names.

Run: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from grjkit import cli, grj, laurent, pencil  # noqa: E402


def _bindings_to(originals):
    """(owner, name) of every binding that holds one of the originals."""
    ids = {id(fn) for fn in originals.values()}
    simkit = sys.modules["grjkit.simkit"]
    return [(owner, name)
            for owner in tracing.package_modules() + [simkit.SamplePath]
            for name, value in vars(owner).items() if id(value) in ids]


def _grj(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_every_binding_swapped_then_restored():
    originals = tracing.traced_functions()
    before = _bindings_to(originals)
    assert tracing.wrapped_bindings() == []
    with tracing.Tracer() as tr:
        assert _bindings_to(originals) == []
        assert sorted((id(o), n) for o, n in tracing.wrapped_bindings()) == \
            sorted((id(o), n) for o, n, _ in tr.swapped)
        # from-imports and package re-exports are swapped, not only the
        # defining module's own name
        for owner, name in ((laurent, "resolvent"), (grj, "resolvent"),
                            (cli, "pole_order"), (sys.modules["grjkit"], "pole_order"),
                            (sys.modules["grjkit.simkit"].SamplePath, "to_csv_text")):
            assert tracing.is_wrapper(getattr(owner, name)), (owner, name)
    assert tracing.wrapped_bindings() == []
    assert _bindings_to(originals) == before
    assert pencil.resolvent is originals["pencil.resolvent"]


def test_restored_after_an_exception():
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert tracing.wrapped_bindings() == []


def test_untraced_run_holds_no_wrapper():
    assert _grj(["analyze", "ex-c0", "--n", "8"]) == 0
    assert tracing.wrapped_bindings() == []
    assert not tracing.is_wrapper(laurent.circle_coefficients)


def test_counts_analyze_c0_n8():
    tr = tracing.Tracer()
    with tr:
        assert _grj(["analyze", "ex-c0", "--n", "8"]) == 0
    assert tr.calls["pencil.resolvent"] == 768
    assert tr.counts["circle_solves"] == 768


def test_counts_verify_evenodd_and_self_time_bound():
    tr = tracing.Tracer()
    start = time.perf_counter()
    with tr:
        assert _grj(["verify", "ex-evenodd"]) == 0
    wall = time.perf_counter() - start
    assert tr.calls["pencil.resolvent"] == 8451
    assert tr.calls["laurent.circle_coefficients"] == 8
    assert tr.calls["pencil.spectrum_report"] == 5
    assert 0.0 < sum(tr.self_s.values()) <= wall
    assert 0.0 < tr.counts["circle_final_nodes"] <= tr.counts["circle_solves"]


def test_paused_calls_are_not_counted():
    tr = tracing.Tracer()
    with tr:
        with tr.paused():
            assert _grj(["analyze", "ex-c0", "--n", "8"]) == 0
    assert tr.calls == {}
    assert tr.self_s == {}


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ledger = run.Ledger([None] * 5)
    ledger.scaled = [0.1] * 25
    end_to_end = run._end_to_end(ledger, [0.2], 50.0)
    per_layer = run._per_layer(tracing.Tracer(), 1.0, 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert (end_to_end | per_layer)[m["name"]]["unit"] == m["unit"]


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)  # ten samples (30..39) beyond it
