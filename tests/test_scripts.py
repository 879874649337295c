"""
Smoke test of the experiment scripts: each runs end to end with its
smallest arguments, so a change to the API they call cannot break them
unnoticed.
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grjkit.numfield import dump_json, subspace_to_json

ROOT = Path(__file__).resolve().parent.parent


# script -> (its smallest arguments, a line its output must contain)
SCRIPTS = {
    "byte_grid": ([], "grj verify ex-selfadjoint  exit=0  stdout="),
    "pole_order_gallery": (["--jordan-seeds", "0"], "jordan[3]@0"),
    "variance_law_mc": (["--reps", "10", "--horizon", "8", "--seeds", "1",
                         "--threads", "1"], "ar2-unit: predicted slope"),
}


# (script, arguments): each is refused, so argparse exits 2 before any work
# (and before variance_law_mc starts a thread)
BAD_ARGUMENTS = [
    ("variance_law_mc", ["--seeds", "0"]),
    ("variance_law_mc", ["--horizon", "0"]),
    ("variance_law_mc", ["--reps", "0"]),
    ("variance_law_mc", ["--reps", "50,-1"]),
    ("variance_law_mc", ["--threads", "0"]),
]


def _run(name, args):
    # one BLAS thread, the byte grid's documented setting
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
                            capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name):
    args, expected = SCRIPTS[name]
    done = _run(name, args)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
    assert "EXPECTED" not in done.stdout  # the gallery flags a wrong planted order


@pytest.mark.parametrize("name, args", BAD_ARGUMENTS,
                         ids=[f"{n} {' '.join(a)}" for n, a in BAD_ARGUMENTS])
def test_bad_argument_is_a_usage_error(name, args):
    done = _run(name, args)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert f"{name}.py: error:" in done.stderr


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_compare_counts_head_better_pairs():
    # per pair: (base, head); a tie counts for neither side
    run_s = [(1.0, 0.8), (1.2, 1.3), (1.1, 1.1), (0.9, 0.7)]
    rate = [(5.0, 6.0), (5.0, 4.0), (4.0, 4.0), (6.0, 7.0)]
    idle = [(0.0, 0.0), (0.0, 0.1), (0.0, 0.0), (0.0, 0.2)]
    base = [{"metrics": {"run_s": b, "rate": r, "idle": i}}
            for (b, _), (r, _), (i, _) in zip(run_s, rate, idle)]
    head = [{"metrics": {"run_s": h, "rate": r, "idle": i}}
            for (_, h), (_, r), (_, i) in zip(run_s, rate, idle)]
    table = _load("bench_compare").compare(
        base, head, {"run_s": "lower", "rate": "higher", "idle": "lower"})
    # base run_s sorted: 0.9, 1.0, 1.1, 1.2; quartiles interpolate linearly
    assert table["run_s"] == {"base_median": pytest.approx(1.05),
                              "head_median": pytest.approx(0.95),
                              "ratio": pytest.approx(0.95 / 1.05),
                              "base_q1": pytest.approx(0.975),
                              "base_q3": pytest.approx(1.125),
                              "head_better_pairs": 2, "pairs": 4,
                              "gain": False, "too_few_pairs": True}
    assert table["rate"]["head_better_pairs"] == 2
    assert (table["rate"]["base_median"], table["rate"]["head_median"]) == (5.0, 5.0)
    assert table["rate"]["ratio"] == 1.0
    assert table["idle"]["base_median"] == 0.0
    assert table["idle"]["ratio"] is None
    assert table["idle"]["head_better_pairs"] == 0
    assert (table["idle"]["base_q1"], table["idle"]["base_q3"]) == (0.0, 0.0)
    one = _load("bench_compare").compare(base[:1], head[:1], {"run_s": "lower", "rate": "higher",
                                                        "idle": "lower"})
    assert (one["run_s"]["base_q1"], one["run_s"]["base_q3"]) == (1.0, 1.0)


def _verdict(base, head, better="lower"):
    table = _load("bench_compare").compare([{"metrics": {"m": x}} for x in base],
                                           [{"metrics": {"m": y}} for y in head], {"m": better})
    return table["m"]["gain"], table["m"]["too_few_pairs"]


def test_bench_compare_states_the_verdict():
    # base 10..19: median 14.5, quartiles 12.25 and 16.75, spread 4.5
    base = [float(x) for x in range(10, 20)]
    # head 5 below base in every pair: 10 of 10, gap 5 > 4.5
    assert _verdict(base, [x - 5 for x in base]) == (True, False)
    # 9 of 10 wins is enough; the tie in the last pair counts for neither side
    assert _verdict(base, [x - 5 for x in base[:9]] + [base[9]]) == (True, False)
    # 8 of 10 wins is not, whatever the gap
    assert _verdict(base, [x - 50 for x in base[:8]] + [x + 1 for x in base[8:]]) == (False, False)
    # every pair won, but the gap 4 does not exceed the spread 4.5
    assert _verdict(base, [x - 4 for x in base]) == (False, False)
    # "higher is better" reverses the sides
    assert _verdict(base, [x + 5 for x in base], "higher") == (True, False)
    assert _verdict(base, [x - 5 for x in base], "higher") == (False, False)
    # nine pairs, all won by far: too few to claim a gain
    assert _verdict(base[:9], [x - 50 for x in base[:9]]) == (False, True)


def test_byte_grid_saves_outputs_and_compares_them_by_value(tmp_path):
    command = "analyze ex-selfadjoint"
    saved = _run("byte_grid", ["--save", str(tmp_path), command])
    assert saved.returncode == 0, saved.stderr
    assert f"grj {command}  exit=0  stdout=" in saved.stdout
    [record] = tmp_path.glob("*.json")
    again = _run("byte_grid", ["--against", str(tmp_path), command])
    assert again.stdout.splitlines() == [f"grj {command}  same", "0 of 1 commands changed"]

    data = json.loads(record.read_text(encoding="utf-8"))
    report = json.loads(data["stdout"])
    report["spectrum"]["nearest_other"] += 0.25
    report["verdict"] = "tampered"
    data.update(stdout=json.dumps(report), stderr="old error\n", exit=3)
    record.write_text(json.dumps(data), encoding="utf-8")
    changed = _run("byte_grid", ["--against", str(tmp_path), command])
    assert changed.returncode == 0, changed.stderr
    assert changed.stdout.splitlines() == [
        f"grj {command}  changed",
        "  exit: 3 -> 0",
        "  spectrum.nearest_other: max change 2.5e-01",
        '  verdict: "tampered" -> "pole order 1, I(1) holds, I(2) fails"',
        "  stderr: 'old error' -> ''",
        "1 of 1 commands changed"]


def test_byte_grid_exits_one_and_names_a_row_whose_code_moved(capsys):
    grid = _load("byte_grid")
    argv = ("represent", "ex-jordan", "--blocks", "3")
    [row] = [row for row in grid.GRID if row.argv == argv]
    assert row.code == 3
    grid.GRID = tuple(r._replace(code=0) if r == row else r for r in grid.GRID)
    assert grid.main([" ".join(argv)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("grj represent ex-jordan --blocks 3  exit=3  stdout=")
    assert "byte_grid.py: grj represent ex-jordan --blocks 3  exit=3, expected 0\n" in err
    assert "1 of 1 commands exited with another code" in err


def test_byte_grid_tells_a_rotated_basis_from_a_moved_space():
    field_changes = _load("byte_grid").field_changes
    basis = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]

    def wire(value):
        return json.loads(dump_json(value))

    old = wire({"s": subspace_to_json(basis), "h": [basis, 2 * basis], "x": 1.0})
    rotated = wire(subspace_to_json(basis @ np.array([[0.0, 1.0], [-1.0, 0.0]])))
    changes = field_changes(old, {**old, "s": rotated, "x": 1.5})
    assert changes.keys() == {"s", "x"}
    assert changes["s"]["gap"] < 1e-14 and changes["s"]["max"] > 0.1
    assert changes["x"] == {"max": 0.5, "gap": None, "other": None}
    complement = wire(subspace_to_json(np.linalg.svd(basis)[0][:, 2:]))
    assert field_changes(old, {**old, "s": complement})["s"]["gap"] == pytest.approx(1.0)
    line = wire(subspace_to_json(basis[:, :1]))
    assert field_changes(old, {**old, "s": line})["s"]["other"] == "dimension changed"
    shifted = wire(2 * basis + 0.125)
    assert field_changes(old, {**old, "h": [old["h"][0], shifted]}) == {
        "h": {"max": pytest.approx(0.125), "gap": None, "other": None}}
