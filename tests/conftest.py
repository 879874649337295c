from __future__ import annotations

import pytest

from grjkit import laurent
from grjkit.models import build_example, jordan_model, random_walk_model
from grjkit.pencil import linearize


@pytest.fixture(scope="session")
def shift8():
    ar, _ = build_example("ex-c0", n=8)
    return ar


@pytest.fixture(scope="session")
def shift8_cp(shift8):
    return linearize(shift8)


@pytest.fixture(scope="session")
def evenodd_cp():
    ar, _ = build_example("ex-evenodd", n=16)
    return linearize(ar)


@pytest.fixture(scope="session")
def jordan2():
    """Planted double root: one 2-block at eigenvalue 1, stable remainder."""
    ar, info = jordan_model(2, blocks_at_one=[2])
    assert info["block_sizes"] == [2]
    return ar


@pytest.fixture(scope="session")
def jordan2_cp(jordan2):
    return linearize(jordan2)


@pytest.fixture(scope="session")
def mixed21_cp():
    ar, _ = jordan_model(0, blocks_at_one=[2, 1])
    return linearize(ar)


@pytest.fixture(scope="session")
def rw2():
    return random_walk_model(2)


@pytest.fixture()
def perturb_coefficient(monkeypatch):
    """perturb(index) adds 1e-5 to every entry of N_index, only in the
    [-order, 2] contour that laurent_algebra_gap reads; pole_order's
    residue stays exact."""
    exact = laurent.contour_coefficients

    def perturb(index):
        def perturbed(cp, js, **kwargs):
            coeffs = exact(cp, js, **kwargs)
            if 2 in js:
                coeffs[index] = coeffs[index] + 1e-5
            return coeffs

        monkeypatch.setattr(laurent, "contour_coefficients", perturbed)
    return perturb


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: end-to-end acceptance criteria")
