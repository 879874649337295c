"""Test references the library does not run: A(z) evaluated directly, the
oracle for the linearized pencil, and the seeded AR(3) fixture."""
from __future__ import annotations

import numpy as np

from grjkit.models import _rng, _semisimple_unit_factor, _stable_factor, factor_product


def eval_poly(ar, z: complex) -> np.ndarray:
    """A(z) = I - z A_1 - ... - z^p A_p."""
    return np.eye(ar.dim) - sum(z ** k * a for k, a in enumerate(ar.coeffs, start=1))


def ar3_unit_root_model(seed: int = 17):
    """Seeded AR(3) on C^2 with a simple unit root: one unit factor, two
    stable factors with distinct spectral radii."""
    rng = _rng(seed, lane=5)
    phi0 = _semisimple_unit_factor(rng, 2)
    phi1 = _stable_factor(rng, 2, radius=0.45)
    phi2 = _stable_factor(rng, 2, radius=0.3)
    return factor_product([phi2, phi1, phi0])
