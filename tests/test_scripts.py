"""
Smoke test of the experiment scripts: each runs end to end with its
smallest arguments, so a change to the API they call cannot break them
unnoticed.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# script -> (its smallest arguments, a line its output must contain)
SCRIPTS = {
    "pole_order_gallery": (["--jordan-seeds", "0"], "jordan[3]@0"),
    "truncation_study": (["--model", "ex-c0", "--horizon", "50"], "j_max   96"),
    "variance_law_mc": (["--reps", "10", "--horizon", "8", "--seeds", "1",
                         "--threads", "1"], "ar2-unit: predicted slope"),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name):
    args, expected = SCRIPTS[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
    assert "EXPECTED" not in done.stdout  # the gallery flags a wrong planted order
