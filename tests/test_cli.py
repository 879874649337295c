"""
Command-line surface: exit codes, byte-stable reports, fault injection,
and file round-trips.  Everything runs in-process through main(argv).
"""
from __future__ import annotations

import dataclasses
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from grjkit import cli, laurent, pencil
from grjkit.cli import main
from grjkit.grj import H_TAYLOR_JMAX
from grjkit.laurent import ContourNotConverged
from grjkit.models import ill_conditioned_model, jordan_model, random_walk_model
from grjkit.numfield import CUTOFFS, matrix_from_json, matrix_to_json
from grjkit.pencil import ArPencil, SingularAt
from grjkit.simkit import ClassMismatch, SamplePath


@pytest.fixture()
def stable_model_path(tmp_path):
    path = tmp_path / "stable.json"
    ArPencil(1, 2, [np.diag([0.5, 0.25])]).save(path)
    return str(path)


@pytest.fixture()
def order3_model_path(tmp_path):
    ar, _ = jordan_model(1, blocks_at_one=[3])
    path = tmp_path / "order3.json"
    ar.save(path)
    return str(path)


@pytest.fixture()
def complex_model_path(tmp_path):
    path = tmp_path / "complex.json"
    ArPencil(1, 2, [np.diag([1.0, 0.5j])]).save(path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def basis(subspace_json):
    """Basis columns of a subspace in the report's JSON encoding."""
    n = subspace_json["ambient"]
    if subspace_json["basis"] is None:
        return np.zeros((n, 0))
    return matrix_from_json(subspace_json["basis"])


def assert_annihilates(functionals, operator):
    # bilinear pairing: f vanishes on ran L exactly when f^T L = 0
    scale = max(1.0, float(np.max(np.abs(operator))))
    assert np.max(np.abs(functionals.T @ operator), initial=0.0) < 1e-10 * scale


def assert_one_line_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "error" in err, err


def _analyze_report(out):
    """The analyze report, after checking that it holds only decisions and
    dimensions: operators and bases come from represent."""
    report = json.loads(out)
    assert set(report) == {"model", "info", "spectrum", "pole_order", "i1", "i2", "verdict"}
    assert set(report["pole_order"]) == {"order", "essential_flag", "ascent", "routes_agree"}
    assert set(report["i1"]) == {"holds", "ker_dim", "ran_dim", "defect"}
    assert set(report["i2"]) == {"holds", "k_dim", "w_dim", "defect"}
    assert len(out.encode("utf-8")) <= 1024
    return report


def test_analyze_verdict(capsys):
    code, out, _ = run(capsys, ["analyze", "ex-c0", "--n", "8"])
    assert code == 0
    report = _analyze_report(out)
    assert report["verdict"] == "pole order 2, I(1) fails, I(2) holds"
    assert report["pole_order"]["order"] == 2
    assert report["i2"]["k_dim"] == 1
    assert report["i2"]["defect"] == 0


def test_analyze_simple_pole(capsys):
    code, out, _ = run(capsys, ["analyze", "ex-evenodd"])
    assert code == 0
    report = _analyze_report(out)
    assert report["verdict"].startswith("pole order 1, I(1) holds")
    # K = ran M /\ ker M is trivial, so the order-two split cannot fail
    # by its defect; the I(2) verdict fails on dim K alone
    assert report["i2"]["k_dim"] == 0
    assert report["i2"]["defect"] == 0


def _record_spectra_and_quadratures(monkeypatch) -> list:
    """Wrap spectrum_report and circle_coefficients wherever grjkit holds
    them; the returned list gains (name, centre) per call, centre None for
    a spectrum report."""
    calls = []
    for original in (pencil.spectrum_report, laurent.circle_coefficients):
        def counted(*args, _original=original, **kwargs):
            calls.append((_original.__name__, kwargs.get("center")))
            return _original(*args, **kwargs)

        for module in [mod for key, mod in sys.modules.items() if key.startswith("grjkit")]:
            for name, value in vars(module).items():
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("argv", [["analyze", "ex-evenodd"],        # I(1)
                                  ["analyze", "ex-c0", "--n", "8"]])  # I(2)
def test_analyze_builds_one_spectrum_and_one_quadrature(capsys, monkeypatch, argv):
    # pole_order, check_i1 and check_i2 share analyze's spectrum report, and
    # only pole_order integrates: the class verdicts read the pencil
    calls = _record_spectra_and_quadratures(monkeypatch)
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert sorted(calls) == [("circle_coefficients", 1.0), ("spectrum_report", None)]


@pytest.mark.parametrize("argv", [["represent", "ex-evenodd"],        # I(1)
                                  ["represent", "ex-c0", "--n", "8"]])  # I(2)
def test_represent_builds_two_spectra_and_one_quadrature(capsys, monkeypatch, argv):
    # both classes: the command's spectrum gate, then the components' own
    # report and their one contour cross-check at 1; no Taylor circle at 0
    calls = _record_spectra_and_quadratures(monkeypatch)
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert sorted(calls) == [("circle_coefficients", 1.0), ("spectrum_report", None),
                             ("spectrum_report", None)]


@pytest.mark.parametrize("command", ["analyze", "represent", "verify"])
@pytest.mark.parametrize("example, eighs", [("ex-evenodd", 1), ("ex-c0", 0)],
                         ids=["hermitian", "lu"])
def test_each_command_chooses_the_resolvent_kernel_once(capsys, monkeypatch, command,
                                                        example, eighs):
    # one pencil per command, whose cached hermitian_nodes every node reads:
    # one eigh on a Hermitian model, none on any other
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    code, _, _ = run(capsys, [command, example])
    assert code == 0
    assert len(calls) == eighs


def test_analyze_unknown_example(capsys):
    code, _, err = run(capsys, ["analyze", "ex-nonsense"])
    assert code == 1
    assert err


def test_unknown_flag_exits_one(capsys):
    code, _, _ = run(capsys, ["analyze", "ex-c0", "--frobnicate"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "ex-c0", "--radius", "5"],
    ["analyze", "ex-c0", "--threads", "2"],
    ["analyze", "ex-c0", "--sweep", "4,8"],
    ["represent", "ex-c0", "--horizon", "3"],
    ["analyze", "ex-c0", "--tol", "1e-300"],    # the residual cut-off is fixed
    ["represent", "ex-c0", "--tol", "0"],
    ["simulate", "ex-c0", "--tol", "1e-6"],
    ["verify", "ex-c0", "--tol", "nan"],
    ["sweep", "ex-c0", "--tol", "1e-6"],
    ["sweep", "ex-volterra", "--n", "8"],
    ["sweep", "ex-c0", "--blocks", "2"],
    ["verify", "ex-c0", "--radius", "0.3"],     # the radius comes from the spectrum
    ["verify", "ex-c0", "--nodes", "512"],      # node doubling finds its own level
], ids=lambda argv: " ".join(argv[i] for i in (0, 2)))
def test_flag_the_subcommand_does_not_read_exits_one(capsys, argv):
    assert_one_line_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["simulate", "ex-c0", "--horizon", "0"],
    ["verify", "ex-c0", "--jmax", "-1"],
    ["verify", "ex-c0", "--jmax", str(H_TAYLOR_JMAX + 1)],  # beyond the Taylor h check
    ["represent", "ex-c0", "--jmax", "-1"],
    ["represent", "ex-c0", "--jmax", str(H_TAYLOR_JMAX + 1)],  # refused before any quadrature
    ["analyze", "ex-jordan", "--blocks", "0"],
    ["sweep", "ex-volterra", "--dims", "8,8"],
    # an empty token in a comma list
    ["sweep", "ex-c0", "--dims", "4,,8"],
    ["sweep", "ex-c0", "--dims", "4,8,"],
    ["analyze", "ex-jordan", "--blocks", "2,,1"],
    # a model flag the model does not take
    ["analyze", "ex-c0", "--blocks", "2"],
    ["analyze", "ex-jordan", "--n", "5"],
    ["analyze", "ex-evenodd", "--lam", "0.3"],
    ["analyze", "ex-c0", "--seed", "5"],        # reads no seed and simulates nothing
    ["represent", "ex-evenodd", "--seed", "5"],
    ["sweep", "ex-volterra", "--seed", "5"],
    # the seed keys a 64-bit generator: anything outside 0 <= seed < 2**64
    # would alias a seed inside it
    ["simulate", "ex-c0", "--seed", "-1"],
    ["simulate", "ex-c0", "--seed", str(2 ** 64)],
], ids=lambda argv: " ".join(argv[i] for i in (0, 2, 3)))
def test_bad_value_exits_one(capsys, argv):
    assert_one_line_error(capsys, argv)


@pytest.mark.parametrize("flag", [["--n", "3"], ["--lam", "0.3"], ["--blocks", "2"],
                                  ["--seed", "1"]],
                         ids=lambda flag: flag[0])
def test_model_flag_next_to_model_file_exits_one(capsys, stable_model_path, flag):
    assert_one_line_error(capsys, ["analyze", "--model", stable_model_path, *flag])


def test_seeded_model_defaults_to_seed_zero(capsys):
    _, implicit, _ = run(capsys, ["analyze", "ex-selfadjoint"])
    _, explicit, _ = run(capsys, ["analyze", "ex-selfadjoint", "--seed", "0"])
    assert implicit == explicit


def test_simulate_complex_model_exits_one(capsys, complex_model_path):
    assert_one_line_error(capsys, ["simulate", "--model", complex_model_path])


def test_size_too_large_to_allocate_exits_one(capsys):
    # 1e14 rows of 8 floats exceed any 48-bit address space, so the
    # allocation fails at once without touching memory
    code, out, err = run(capsys, ["simulate", "ex-c0", "--horizon", "100000000000000"])
    assert code == 1 and out == ""
    assert err.startswith("grj: error: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("blocks", [[3], [2, 1]])
def test_analyze_jordan_block_list(capsys, blocks):
    code, out, _ = run(capsys, ["analyze", "ex-jordan",
                                "--blocks", ",".join(map(str, blocks))])
    assert code == 0
    report = json.loads(out)
    assert report["info"]["block_sizes"] == blocks
    assert report["pole_order"]["order"] == max(blocks)


def test_no_unit_root_exit_two(capsys, stable_model_path):
    code, _, err = run(capsys, ["analyze", "--model", stable_model_path])
    assert code == 2
    assert "unit root" in err.lower()


@pytest.mark.parametrize("command", ["represent", "verify"])
def test_no_unit_root_exit_two_without_a_report(capsys, stable_model_path, command):
    code, out, err = run(capsys, [command, "--model", stable_model_path])
    assert code == 2
    assert out == ""
    assert err == f"grj {command}: no usable unit root at z=1\n"


@pytest.mark.parametrize("entry", [1e200, 1e308])
@pytest.mark.parametrize("command", ["analyze", "represent", "verify"])
def test_huge_entry_exits_two(capsys, tmp_path, command, entry):
    # (I - B)^2 overflows at these entries unless the kernel chain rescales
    path = tmp_path / "huge.json"
    ArPencil(1, 2, [np.diag([1.0, entry])]).save(path)
    code, _, err = run(capsys, [command, "--model", str(path)])
    assert code == 2
    assert err == f"grj {command}: no usable unit root at z=1\n"


def test_represent_writes_the_trivial_cointegrating_space(capsys, tmp_path):
    # B = I: every direction is a random walk, so no functional cointegrates
    path = tmp_path / "random_walk.json"
    random_walk_model(2).save(path)
    code, out, _ = run(capsys, ["represent", "--model", str(path)])
    assert code == 0
    assert json.loads(out)["cointegrating"] == {"ambient": 2, "basis": None}


def model_text(p=1, dim=2, rows=2, cols=2, first=(1, 0)) -> str:
    """A well-formed unit-root AR(1) model file on C^2 unless a size or the
    first entry is replaced."""
    coeff = {"rows": rows, "cols": cols, "entries": [list(first), [0, 0], [0, 0], [0.5, 0]]}
    return json.dumps({"p": p, "dim": dim, "coeffs": [coeff]})


@pytest.mark.parametrize("text", [
    '{"p": 1, "dim": 2}',
    model_text(p=1.9, dim=2.2),
    model_text(p=True, dim="2", rows=2.7),
    model_text(cols=2.0),
    model_text(first=(True, False)),
    model_text(first=(10 ** 400, 0)),
], ids=["no-coeffs", "float-p-dim", "bool-p-string-dim-float-rows", "float-cols",
        "bool-entries", "int-entry-beyond-float"])
def test_malformed_model_exit_one(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, ["analyze", "--model", str(bad)])
    assert code == 1
    assert out == "" and len(err.splitlines()) == 1 and "bad model file" in err, err


@pytest.mark.parametrize("argv", [
    ["analyze", "--model", "{tmp}"],                    # a directory, not a file
    ["analyze", "ex-c0", "--n", "4", "--out", "{tmp}/missing/x.json"],
    ["simulate", "ex-c0", "--horizon", "5", "--out", "{tmp}/missing/x.csv"],
], ids=["model-directory", "analyze-out-missing-dir", "simulate-out-missing-dir"])
def test_file_error_exits_one(capsys, tmp_path, argv):
    assert_one_line_error(capsys, [a.format(tmp=tmp_path) for a in argv])


def test_represent_neither_class_exit_three(capsys, order3_model_path):
    code, _, err = run(capsys, ["represent", "--model", order3_model_path])
    assert code == 3
    assert err


def test_verify_neither_class_exit_three(capsys, order3_model_path, tmp_path):
    code, out, err = run(capsys, ["verify", "--model", order3_model_path])
    assert code == 3
    assert err == "grj verify: pole at z=1 is neither order one nor order two\n"
    report = json.loads(out)
    assert not report["ok"] and not report["failed"]
    names = [item["name"] for item in report["invariants"]]
    assert names == ["determinism", "recursion", "pole-order-routes", "laurent-algebra"]
    # a failed invariant still wins: exit 4
    stored = tmp_path / "other-seed.csv"
    assert main(["simulate", "--model", order3_model_path, "--seed", "1",
                 "--out", str(stored)]) == 0
    code, _, err = run(capsys, ["verify", "--model", order3_model_path,
                                "--path", str(stored)])
    assert code == 4
    assert "determinism" in err


def test_represent_i1_payload(capsys):
    code, out, _ = run(capsys, ["represent", "ex-evenodd"])
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "I1"
    assert set(report) == {"attractor", "class", "cointegrating", "cross_check_residual",
                           "h_coeffs", "long_run", "model", "p_operator"}
    assert report["cross_check_residual"] < 1e-6
    long_run = matrix_from_json(report["long_run"])
    cointegrating = basis(report["cointegrating"])
    assert cointegrating.shape[1] > 0
    assert_annihilates(cointegrating, long_run)
    assert basis(report["attractor"]).shape[1] + cointegrating.shape[1] == long_run.shape[0]


def test_represent_i2_payload(capsys):
    code, out, _ = run(capsys, ["represent", "ex-c0", "--n", "8"])
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "I2"
    assert "long_run2" in report and "tier1_annihilators" in report
    assert report["cross_check_residual"] < 1e-6
    lr2 = matrix_from_json(report["long_run2"])
    lr1 = matrix_from_json(report["long_run1"])
    tier1 = basis(report["tier1_annihilators"])
    tier2 = basis(report["tier2_annihilators"])
    assert tier1.shape[1] > tier2.shape[1] > 0
    assert_annihilates(tier1, lr2)
    assert_annihilates(tier2, lr2)
    assert_annihilates(tier2, lr1 - lr2)


def _eager_dump_json(obj) -> str:
    """Reference encoding: every array and subspace converted to nested
    lists up front, then one json.dumps with dump_json's settings."""
    def convert(x):
        if isinstance(x, dict):
            return {k: convert(v) for k, v in x.items()}
        if isinstance(x, list):
            return [convert(v) for v in x]
        if isinstance(x, np.ndarray):
            return matrix_to_json(x)
        return x
    return json.dumps(convert(obj), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("model", [["ex-c0", "--n", "32"], ["ex-evenodd", "--n", "24"]],
                         ids=["i2", "i1"])
def test_represent_writes_the_eager_encoding(tmp_path, monkeypatch, model):
    lazy, eager = tmp_path / "lazy.json", tmp_path / "eager.json"
    assert main(["represent", *model, "--out", str(lazy)]) == 0
    monkeypatch.setattr(cli, "dump_json", _eager_dump_json)
    assert main(["represent", *model, "--out", str(eager)]) == 0
    assert lazy.read_bytes() == eager.read_bytes()


def test_represent_encodes_one_matrix_at_a_time(tmp_path):
    argv = ["represent", "ex-c0", "--n", "32", "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0  # warm-up: imports and first-call set-up stay out of the peak
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 45 matrices converted to lists up front peaked at 9.5 MiB; one at a time, 3.8 MiB
    assert peak <= 6 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


def test_verify_jmax_reaches_its_cap(capsys):
    code, out, _ = run(capsys, ["verify", "ex-c0", "--jmax", str(H_TAYLOR_JMAX)])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_reports_are_byte_identical(capsys, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", "ex-c0", "--n", "8", "--out", str(first)]) == 0
    assert main(["analyze", "ex-c0", "--n", "8", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_out_does_not_carry_over_to_the_next_command(capsys, tmp_path):
    out = tmp_path / "a.json"
    assert run(capsys, ["analyze", "ex-c0", "--out", str(out)]) == (0, "", "")
    code, text, err = run(capsys, ["analyze", "ex-c0"])
    assert (code, err) == (0, "")
    assert text == out.read_text(encoding="utf-8")


def test_a_usage_error_leaves_the_next_command_unchanged(capsys):
    cli.build_parser.cache_clear()
    first = run(capsys, ["analyze", "ex-c0"])  # builds the parser
    assert first[0] == 0
    assert_one_line_error(capsys, ["analyze", "ex-c0", "--bogus"])
    assert run(capsys, ["analyze", "ex-c0"]) == first


def test_simulate_csv_deterministic(capsys, tmp_path):
    argv = ["simulate", "ex-c0", "--n", "8", "--horizon", "40", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    code, out, _ = run(capsys, argv)
    assert code == 0
    content = a.read_bytes()
    assert content == b.read_bytes() == out.encode("utf-8")
    assert content.startswith(b"t,coord_0")


def test_simulate_different_seeds_differ(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "ex-c0", "--horizon", "20", "--seed", "1", "--out", str(a)])
    main(["simulate", "ex-c0", "--horizon", "20", "--seed", "2", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_sweep_without_unit_root_names_the_dimension(capsys):
    # ex-c0 with lam = 0.95 at n = 4 has another root within the fixed
    # isolation margin eta = 0.1 of the unit circle, so it fails the
    # unit-root gate, as analyze reports it
    code, out, err = run(capsys, ["sweep", "ex-c0", "--lam", "0.95", "--dims", "4,8"])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "n = 4" in err, err


def test_sweep_volterra(capsys):
    code, out, _ = run(capsys, ["sweep", "ex-volterra", "--dims", "8,16,32,64"])
    assert code == 0
    report = json.loads(out)["sweep"]
    orders = {point["n"]: point["order"] for point in report["points"]}
    assert orders == {8: 8, 16: 16, 32: 32, 64: 64}
    assert report["essential_flag"] is True


def test_examples_listing(capsys):
    code, out, _ = run(capsys, ["examples"])
    assert code == 0
    listing = json.loads(out)
    names = {entry["name"] for entry in listing["examples"]}
    assert {"ex-c0", "ex-volterra", "ex-selfadjoint", "ex-evenodd",
            "ex-jordan"} <= names


def test_examples_lists_the_seed_analyze_builds(capsys):
    _, out, _ = run(capsys, ["examples"])
    seeded = [(entry["name"], entry["defaults"]["seed"])
              for entry in json.loads(out)["examples"] if "seed" in entry["defaults"]]
    assert seeded
    for name, seed in seeded:
        _, implicit, _ = run(capsys, ["analyze", name])
        _, listed, _ = run(capsys, ["analyze", name, "--seed", str(seed)])
        assert implicit == listed, name


def test_verify_all_invariants(capsys):
    code, out, _ = run(capsys, ["verify", "ex-evenodd", "--horizon", "60",
                                "--jmax", "30"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and not report["failed"]
    names = [item["name"] for item in report["invariants"]]
    assert "determinism" in names and "representation" in names


# the values each numeric invariant of verify compares with its bound
BOUNDED_VALUES = {"recursion": ("residual",), "laurent-algebra": ("worst_scaled_gap",),
                  "p-cross-check": ("residual",), "h-coefficient cross-check": ("worst_gap",),
                  "n2-cross-check": ("left", "right"), "representation": ("max_residual",)}


@pytest.mark.parametrize("model", ["ex-c0", "ex-evenodd"])
def test_verify_names_each_bound(capsys, model):
    code, out, _ = run(capsys, ["verify", model])
    assert code == 0
    invariants = {item["name"]: item for item in json.loads(out)["invariants"]}
    assert set(invariants) - set(BOUNDED_VALUES) == {"determinism", "pole-order-routes"}
    for name, keys in BOUNDED_VALUES.items():
        if name == "n2-cross-check" and model == "ex-evenodd":  # order one
            assert name not in invariants
            continue
        detail = invariants[name]["detail"]
        if name != "representation":  # the one bound scaled by the path
            assert detail["bound"] == CUTOFFS[f"verify {name}"]
        assert all(detail[key] <= detail["bound"] for key in keys), (name, detail)


def test_verify_warnings_are_one_line_each(capsys, monkeypatch):
    # no built-in model makes verify warn, so its representation check is
    # made to warn the way a library warning would
    check = cli.verify_representation

    def warning(*args):
        warnings.warn("representation check: planted warning")
        return check(*args)

    monkeypatch.setattr(cli, "verify_representation", warning)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code, _, err = run(capsys, ["verify", "ex-jordan", "--blocks", "2,1", "--seed", "5"])
    assert code == 0
    assert "grj verify: warning: representation check: planted warning" in err
    assert all(line.startswith("grj verify:") for line in err.splitlines()), err


# (--blocks, --seed) of every ex-jordan model whose verify failed only the
# representation invariant while that check truncated the stationary sum
# at --jmax and fitted the levels: each is a valid model and must pass
TRUNCATION_FAILURES = ([("1", s) for s in (5, 7, 8, 9, 16, 17, 18)]
                       + [("2", s) for s in (7, 16)]
                       + [("2,1", s) for s in (5, 7, 8, 9, 16, 17, 18)])


@pytest.mark.parametrize("blocks, seed", TRUNCATION_FAILURES,
                         ids=[f"{b}-seed{s}" for b, s in TRUNCATION_FAILURES])
def test_verify_jordan_passes_the_exact_representation_check(capsys, blocks, seed):
    code, out, err = run(capsys, ["verify", "ex-jordan", "--blocks", blocks,
                                  "--seed", str(seed)])
    assert code == 0, err
    report = json.loads(out)
    assert report["ok"] is True
    detail = next(item["detail"] for item in report["invariants"]
                  if item["name"] == "representation")
    assert detail["max_residual"] <= detail["bound"]


def test_verify_fault_injection_names_the_invariant(capsys, monkeypatch):
    # one I(2) and one I(1) model: both classes go through the same
    # library h check, here fed a corrupted h_0; on the I(1) model verify
    # also folds that check into p-cross-check, so both fail
    check = cli.taylor_h_gap

    def corrupted(cp, closed, order, **kwargs):
        return check(cp, [closed[0] + 1e-3, *closed[1:]], order, **kwargs)

    monkeypatch.setattr(cli, "taylor_h_gap", corrupted)
    for model, failed in ((["ex-c0", "--n", "8"], ["h-coefficient cross-check"]),
                          (["ex-evenodd"], ["p-cross-check", "h-coefficient cross-check"])):
        code, out, err = run(capsys, ["verify", *model,
                                      "--horizon", "60", "--jmax", "30"])
        assert code == 4, model
        assert err == "grj verify: invariant failure: " + ", ".join(failed) + "\n"
        assert json.loads(out)["failed"] == failed


def test_verify_path_mismatch_fails_determinism(capsys, tmp_path):
    stored = tmp_path / "path.csv"
    assert main(["simulate", "ex-c0", "--n", "8", "--horizon", "50",
                 "--seed", "3", "--out", str(stored)]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, ["verify", "ex-c0", "--n", "8", "--horizon",
                                  "50", "--seed", "4", "--path", str(stored),
                                  "--jmax", "30"])
    assert code == 4
    assert "determinism" in err


def test_verify_encodes_the_path_only_for_a_stored_comparison(capsys, monkeypatch,
                                                             tmp_path):
    stored = tmp_path / "path.csv"
    assert main(["simulate", "ex-c0", "--horizon", "60", "--out", str(stored)]) == 0
    capsys.readouterr()
    encode, calls = SamplePath.to_csv_text, []

    def counted(self):
        calls.append(self)
        return encode(self)

    monkeypatch.setattr(SamplePath, "to_csv_text", counted)
    argv = ["verify", "ex-c0", "--horizon", "60", "--jmax", "30"]
    code, _, err = run(capsys, argv)
    assert code == 0, err
    assert len(calls) == 0
    code, _, err = run(capsys, [*argv, "--path", str(stored)])
    assert code == 0, err
    assert len(calls) == 1


def test_verify_one_ulp_apart_fails_determinism(capsys, monkeypatch):
    simulate, made = cli._simulate, []

    def nudged(*args):
        path = simulate(*args)
        made.append(path)
        if len(made) == 2:
            path.states[17, 3] = np.nextafter(path.states[17, 3], np.inf)
        return path

    monkeypatch.setattr(cli, "_simulate", nudged)
    code, out, err = run(capsys, ["verify", "ex-c0", "--horizon", "60", "--jmax", "30"])
    assert len(made) == 2
    assert code == 4
    assert err == "grj verify: invariant failure: determinism\n"
    assert json.loads(out)["failed"] == ["determinism"]


def test_verify_path_directory_exits_one(capsys, tmp_path):
    assert_one_line_error(capsys, ["verify", "ex-c0", "--n", "4", "--horizon", "20",
                                   "--path", str(tmp_path)])


def test_verify_representation_error_fails_the_invariant(capsys, monkeypatch):
    def mismatch(*args, **kwargs):
        raise ClassMismatch("model has unit-root ascent 3, report class is 2")

    monkeypatch.setattr(cli, "verify_representation", mismatch)
    code, out, err = run(capsys, ["verify", "ex-c0", "--horizon", "60", "--jmax", "30"])
    assert code == 4
    assert err == "grj verify: invariant failure: representation\n"
    report = json.loads(out)
    assert report["failed"] == ["representation"] and not report["ok"]
    detail = next(item["detail"] for item in report["invariants"]
                  if item["name"] == "representation")
    assert detail == "model has unit-root ascent 3, report class is 2"


def test_verify_path_match_passes(capsys, tmp_path):
    stored = tmp_path / "path.csv"
    assert main(["simulate", "ex-c0", "--n", "8", "--horizon", "50",
                 "--seed", "3", "--out", str(stored)]) == 0
    capsys.readouterr()
    code, _, _ = run(capsys, ["verify", "ex-c0", "--n", "8", "--horizon", "50",
                              "--seed", "3", "--path", str(stored),
                              "--jmax", "30"])
    assert code == 0


@pytest.mark.parametrize("mangle", [lambda text: text.replace(b"\n", b"\r\n"),
                                    lambda text: text + b"\xff"],
                         ids=["crlf", "not-utf8"])
def test_verify_path_compares_bytes(capsys, tmp_path, mangle):
    stored = tmp_path / "lf.csv"
    assert main(["simulate", "ex-c0", "--seed", "3", "--horizon", "40",
                 "--out", str(stored)]) == 0
    mangled = tmp_path / "mangled.csv"
    mangled.write_bytes(mangle(stored.read_bytes()))
    capsys.readouterr()
    argv = ["verify", "ex-c0", "--seed", "3", "--horizon", "40", "--path"]
    code, _, err = run(capsys, [*argv, str(stored)])
    assert code == 0, err
    code, out, err = run(capsys, [*argv, str(mangled)])
    assert code == 4
    assert err == "grj verify: invariant failure: determinism\n"
    assert json.loads(out)["failed"] == ["determinism"]


def test_verify_two_lag_model(capsys, tmp_path):
    # a p = 2 model keeps the observable block strictly smaller than the
    # companion space, which the h cross-check has to compress correctly
    from grjkit.models import ar2_unit_root_model
    path = tmp_path / "ar2.json"
    ar2_unit_root_model(seed=11).save(path)
    code, out, err = run(capsys, ["verify", "--model", str(path),
                                  "--horizon", "60", "--jmax", "30"])
    assert code == 0, err
    report = json.loads(out)
    assert report["ok"]


def test_verify_contour_not_converged_exits_one(capsys, monkeypatch):
    # no flag drives the quadrature past its node cap on a built-in model,
    # so the Laurent-algebra check verify runs is made to fail the way it would
    def unsettled(*args, **kwargs):
        raise ContourNotConverged("quadrature change 1.00e-03 above 1e-10 at 4096 nodes")

    monkeypatch.setattr(cli, "laurent_algebra_gap", unsettled)
    assert_one_line_error(capsys, ["verify", "ex-c0", "--horizon", "60", "--jmax", "30"])


def test_verify_checks_analytically_before_it_simulates(capsys, monkeypatch, tmp_path):
    # the contour of this valid model does not settle: verify exits before
    # it spends anything on the two simulations
    path = tmp_path / "coupled.json"
    ArPencil(1, 2, [np.array([[1.0, 1e6], [0.0, 0.5]])]).save(path)
    calls, simulate = [], cli.simulate_ar

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_ar", counted)
    assert_one_line_error(capsys, ["verify", "--model", str(path)])
    assert len(calls) == 0


def test_verify_reconstruction_fault_exits_one(capsys, perturb_coefficient):
    # N_2 + 1e-5: on ex-evenodd the held-out reconstruction guard catches it
    perturb_coefficient(2)
    assert_one_line_error(capsys, ["verify", "ex-evenodd", "--horizon", "60", "--jmax", "20"])


def test_verify_laurent_algebra_fault_exits_four(capsys, perturb_coefficient):
    # N_2 + 1e-5: on ex-c0 the guard admits it and the algebra names it
    perturb_coefficient(2)
    code, out, err = run(capsys, ["verify", "ex-c0", "--horizon", "60", "--jmax", "20"])
    assert code == 4
    report = json.loads(out)
    assert report["failed"] == ["laurent-algebra"]
    gap = next(r for r in report["invariants"] if r["name"] == "laurent-algebra")
    assert gap["detail"]["worst_scaled_gap"] > 1e-7
    assert err == "grj verify: invariant failure: laurent-algebra\n"


def test_singular_resolvent_exits_one(capsys, monkeypatch):
    # the residual cut-off is fixed and no flag moves a contour onto the
    # spectrum, so the pole-order route analyze runs is made to fail the
    # way a singular resolvent would
    def singular(*args, **kwargs):
        raise SingularAt(1.4)

    monkeypatch.setattr(cli, "pole_order", singular)
    assert_one_line_error(capsys, ["analyze", "ex-c0", "--n", "4"])


@pytest.mark.parametrize("command", ["analyze", "represent", "verify"])
def test_overflowing_contour_node_exits_one(capsys, tmp_path, command):
    # z B overflows at every contour node, so the residual is not finite:
    # the node is singular, and no operator norm sees an infinite entry;
    # numpy's overflow warnings on the way are not printed beside the error
    path = tmp_path / "overflow.json"
    ArPencil(1, 2, [np.array([[1.0, 1.7e308], [0.0, 0.5]])]).save(path)
    code, out, err = run(capsys, [command, "--model", str(path)])
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("grj: error: pencil is singular"), err


def test_semisimple_unit_root_is_a_simple_pole(capsys, tmp_path):
    # two random walks and a stationary AR(1): G = (I - B) P is rounding
    # (norm 8e-18) of relative rank 1 < rank P = 2, which the staircase
    # cuts at ||P|| max(1, ||G||) and so reads as order 1, as Jordan ascent does
    path = tmp_path / "walks_and_ar1.json"
    ArPencil(1, 3, [np.diag([1.0, 1.0, 0.5])]).save(path)
    code, out, _ = run(capsys, ["analyze", "--model", str(path)])
    assert code == 0
    report = _analyze_report(out)
    assert report["verdict"] == "pole order 1, I(1) holds, I(2) fails"
    assert report["pole_order"]["routes_agree"] is True
    code, _, err = run(capsys, ["verify", "--model", str(path)])
    assert code == 0, err


@pytest.mark.parametrize("k, seed", [(7, 0), (5, 5)])
@pytest.mark.parametrize("command", ["represent", "analyze", "verify"])
def test_ill_conditioned_split_exits_one(capsys, tmp_path, k, seed, command):
    # represent reaches the order-one projection's guard (NotComplementary)
    # or a singular contour node, analyze and verify a singular contour
    # node; each is one stderr line
    path = tmp_path / "ill.json"
    ill_conditioned_model(k, seed).save(path)
    assert_one_line_error(capsys, [command, "--model", str(path)])


@pytest.mark.parametrize("seed", range(20))
def test_represent_takes_an_ill_conditioned_order_one_model(capsys, tmp_path, seed):
    # kernel and range of I - B nearly parallel (S with condition 1e3): one
    # contour residue at 1 checks P, and no Taylor circle at 0 has to settle
    path = tmp_path / "ill.json"
    ill_conditioned_model(3, seed).save(path)
    code, out, err = run(capsys, ["represent", "--model", str(path)])
    assert code == 0, err
    report = json.loads(out)
    assert report["class"] == "I1"
    assert report["cross_check_residual"] <= 1e-6


@pytest.mark.parametrize("norm", ["one", "sup"])
def test_non_euclidean_norm_keeps_the_verdict(capsys, tmp_path, norm):
    # rank decisions are Euclidean: the norm scales the residuals only
    ar, _ = jordan_model(5, blocks_at_one=[2, 1])
    verdicts = []
    for model in (ar, dataclasses.replace(ar, norm=norm)):
        path = tmp_path / f"{model.norm}.json"
        model.save(path)
        code, out, _ = run(capsys, ["analyze", "--model", str(path)])
        assert code == 0
        verdicts.append(json.loads(out)["verdict"])
    assert verdicts[0] == verdicts[1] == "pole order 2, I(1) fails, I(2) holds"
    for command in ("represent", "verify"):
        code, _, err = run(capsys, [command, "--model", str(path)])
        assert code == 0, err


def test_model_file_round_trip(capsys, tmp_path):
    from grjkit.models import build_example
    ar, _ = build_example("ex-c0", n=8)
    path = tmp_path / "shift.json"
    ar.save(path)
    code, out, _ = run(capsys, ["analyze", "--model", str(path)])
    assert code == 0
    assert json.loads(out)["verdict"] == "pole order 2, I(1) fails, I(2) holds"
