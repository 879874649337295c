"""Built-in example models and seeded fixture builders.

The five registry entries are desk-scale discretizations of classical
pencil geometries:

  ex-c0          sequence-space shift/contraction mix whose inverse has a
                 double pole at the unit root (order two, not order one)
  ex-volterra    left-rectangle discretization of the Volterra integral
                 operator: the finite section has pole order equal to its
                 dimension, the fingerprint of an essential singularity
  ex-selfadjoint symmetric operator with an isolated unit eigenvalue
                 (always a simple pole)
  ex-evenodd     reflection averaging on a symmetric grid: the operator
                 is itself the projection onto even vectors, and equals
                 its own long-run projection
  ex-jordan      seeded similarity-conjugated Jordan structure with
                 planted blocks at 1 and a stable remainder; the planted
                 block sizes are the ground truth for pole-order oracles

Also provides the AR(2) factor-product fixtures used by the
simulation and consistency tests, and an ill-conditioned AR(1) used by
the exit-code tests and the byte grid.  All randomness is keyed by the
caller's seed, so every builder is reproducible.
"""

from __future__ import annotations

import numpy as np

from .pencil import ArPencil

_BUILDER_STREAM = 0x6D6F64656C  # distinct key lane for model construction
SELFADJOINT_UNIT_MULTIPLICITY = 2  # unit eigenvalues planted by selfadjoint_model
JORDAN_COND_CAP = 1e3  # jordan_model keeps cond(S) well under this


def _rng(seed: int, lane: int = 0):
    key = [np.uint64(int(seed) % (1 << 64)), np.uint64((_BUILDER_STREAM + lane) % (1 << 64))]
    return np.random.Generator(np.random.Philox(key=key))


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def sequence_shift_model(n: int, lam: float) -> ArPencil:
    """Truncation of the c0-sequence operator
    (a1, a2, a3, a4, ...) -> (a1, a1+a2, lam*a3, lam^2*a4, ...).

    The kernel of I - A1 is spanned by e2, which also lies in the range,
    so the order-one split fails and the inverse pencil has a double pole.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not 0 < lam < 1:
        raise ValueError("lam must be in (0, 1)")
    a = np.zeros((n, n))
    a[0, 0] = 1.0
    a[1, 0] = 1.0
    a[1, 1] = 1.0
    for j in range(2, n):
        a[j, j] = lam ** (j - 1)
    return ArPencil(p=1, dim=n, coeffs=[a])


def volterra_model(n: int) -> ArPencil:
    """Left-rectangle discretization of integration on [0, 1]:
    V[i, j] = 1/n for j < i, and the model operator is I - V.

    All entries are dyadic for n a power of two, so matrix powers of V
    are computed exactly in floats down to the true zero V^n = 0.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    v = np.tril(np.full((n, n), 1.0 / n), k=-1)
    return ArPencil(p=1, dim=n, coeffs=[np.eye(n) - v])


def selfadjoint_model(n: int, seed: int) -> ArPencil:
    """Random symmetric operator with an isolated unit eigenvalue group of
    SELFADJOINT_UNIT_MULTIPLICITY eigenvalues.

    Self-adjointness forces the range/kernel split, hence a simple pole,
    whatever the multiplicity.
    """
    if n <= SELFADJOINT_UNIT_MULTIPLICITY:
        raise ValueError(f"need n > {SELFADJOINT_UNIT_MULTIPLICITY}")
    rng = _rng(seed, lane=1)
    rest = n - SELFADJOINT_UNIT_MULTIPLICITY
    others = np.linspace(-0.55, 0.55, rest)
    q = _orthogonal(rng, n)
    eigs = np.concatenate([np.ones(SELFADJOINT_UNIT_MULTIPLICITY), others])
    return ArPencil(p=1, dim=n, coeffs=[(q * eigs) @ q.T])


def evenodd_model(n: int) -> ArPencil:
    """Reflection averaging g(x) |-> (g(x) + g(-x))/2 on a symmetric grid:
    the orthogonal projection onto even vectors, so the model operator
    coincides with its own long-run projection."""
    if n < 2 or n % 2:
        raise ValueError("need an even n >= 2")
    reflect = np.eye(n)[::-1]
    return ArPencil(p=1, dim=n, coeffs=[(np.eye(n) + reflect) / 2.0])


def jordan_model(seed: int, blocks_at_one=None, stable_dim: int | None = None):
    """Seeded similarity-conjugated Jordan structure.

    Plants the given block sizes at eigenvalue 1 (default: 1-2 random
    sizes from {1, 2, 3}), pads with a stable diagonal remainder
    (|eigenvalue| <= 0.8), and conjugates by S = Q1 diag(d) Q2 with
    d log-uniform so cond(S) stays well under JORDAN_COND_CAP.

    Returns (model, info) where info records the planted ground truth.
    """
    rng = _rng(seed, lane=2)
    if blocks_at_one is None:
        count = int(rng.integers(1, 3))
        blocks_at_one = [int(rng.integers(1, 4)) for _ in range(count)]
    blocks_at_one = [int(b) for b in blocks_at_one]
    if not blocks_at_one or min(blocks_at_one) < 1:
        raise ValueError("need at least one block of size >= 1 at the unit eigenvalue")
    if stable_dim is None:
        stable_dim = int(rng.integers(2, 5))
    n = sum(blocks_at_one) + stable_dim

    j = np.zeros((n, n))
    pos = 0
    for size in blocks_at_one:
        j[pos:pos + size, pos:pos + size] = np.eye(size) + np.diag(np.ones(size - 1), 1)
        pos += size
    stable_eigs = rng.uniform(-0.8, 0.8, size=stable_dim)
    j[pos:, pos:] = np.diag(stable_eigs)

    # cond(S) = max(d)/min(d), kept ~30 so conjugation noise stays far
    # below the rank tolerances while still exercising non-normality
    d = np.exp(rng.uniform(0.0, np.log(JORDAN_COND_CAP) / 2.0, size=n))
    s = (_orthogonal(rng, n) * d) @ _orthogonal(rng, n)
    a1 = s @ j @ np.linalg.solve(s, np.eye(n))
    info = {"block_sizes": list(blocks_at_one), "max_block": max(blocks_at_one),
            "stable_eigs": stable_eigs.tolist(),
            "cond": float(np.linalg.cond(s))}
    return ArPencil(p=1, dim=n, coeffs=[a1]), info


def random_walk_model(n: int = 2) -> ArPencil:
    return ArPencil(p=1, dim=n, coeffs=[np.eye(n)])


def oblique_ar1_model() -> ArPencil:
    """The idempotent-but-not-orthogonal coefficient [[1,0],[1,0]]: its
    long-run projection is the operator itself."""
    return ArPencil(p=1, dim=2, coeffs=[np.array([[1.0, 0.0], [1.0, 0.0]])])


def factor_product(factors) -> ArPencil:
    """AR model whose pencil is the product (I - z F_1)...(I - z F_k)
    taken in the given order.  Useful because the pole structure of the
    product is readable off the factors.  A coefficient whose imaginary
    part is exactly zero is stored real."""
    factors = [np.asarray(f, dtype=np.complex128) for f in factors]
    n = factors[0].shape[0]
    coeffs = [np.eye(n, dtype=np.complex128)]
    for f in factors:
        widened = [np.zeros((n, n), dtype=np.complex128) for _ in range(len(coeffs) + 1)]
        for k, c in enumerate(coeffs):
            widened[k] += c
            widened[k + 1] -= c @ f
        coeffs = widened
    ar_coeffs = [-c if c.imag.any() else -c.real for c in coeffs[1:]]
    return ArPencil(p=len(ar_coeffs), dim=n, coeffs=ar_coeffs)


def _semisimple_unit_factor(rng, n: int) -> np.ndarray:
    """S diag(1, 0, ..., 0) S^{-1} with a mildly conditioned S: a
    semisimple factor whose unit eigenvalue yields a simple pole."""
    d = np.exp(rng.uniform(0.0, np.log(5.0), size=n))
    s = (_orthogonal(rng, n) * d) @ _orthogonal(rng, n)
    eigs = np.concatenate([[1.0], np.zeros(n - 1)])
    return s @ np.diag(eigs) @ np.linalg.solve(s, np.eye(n))


def _stable_factor(rng, n: int, radius: float = 0.5) -> np.ndarray:
    m = rng.standard_normal((n, n))
    spectral = max(abs(np.linalg.eigvals(m)))
    return m * (radius / spectral)


def ar2_unit_root_model(seed: int = 11) -> ArPencil:
    """Seeded AR(2) on C^3 with a simple unit root: product of a semisimple
    unit-eigenvalue factor and a stable factor (spectral radius 0.5)."""
    n = 3
    rng = _rng(seed, lane=3)
    phi0 = _semisimple_unit_factor(rng, n)
    phi1 = _stable_factor(rng, n)
    return factor_product([phi1, phi0])


def ar2_double_root_model(seed: int = 13) -> ArPencil:
    """Seeded AR(2) on C^2 with a double pole: the square of one
    semisimple unit-root factor."""
    rng = _rng(seed, lane=4)
    phi = _semisimple_unit_factor(rng, 2)
    return factor_product([phi, phi])


def ill_conditioned_model(k: int, seed: int) -> ArPencil:
    """AR(1) on C^3 with B = S diag(1, 0.5, -0.3) S^-1, where
    S = Q1 diag(1, 10^(k/2), 10^k) Q2 and Q1, Q2 come from the QR of
    standard normals drawn by np.random.default_rng(seed): a unit root
    whose kernel and range of I - B are nearly parallel."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    s = q1 @ np.diag([1.0, 10 ** (k / 2), 10.0 ** k]) @ q2
    return ArPencil(1, 3, [s @ np.diag([1.0, 0.5, -0.3]) @ np.linalg.inv(s)])


# ---------------------------------------------------------------------------
# registry used by the command-line front end
# ---------------------------------------------------------------------------

def build_example(name: str, n: int | None = None, lam: float | None = None,
                  seed: int | None = None, blocks=None):
    """Build a registry model by name with optional overrides.

    A model takes the overrides its example_defaults entry lists: ``n``
    every model but ex-jordan, ``lam`` only ex-c0, ``seed`` ex-selfadjoint
    and ex-jordan, ``blocks`` only ex-jordan; any other raises ValueError.
    An override left None takes its value from that entry.
    Returns (ArPencil, info) where info is {} except for ex-jordan.
    """
    setting = example_defaults(name)
    del setting["about"]
    for key, value in (("n", n), ("lam", lam), ("seed", seed), ("blocks", blocks)):
        if value is not None:
            if key not in setting:
                raise ValueError(f"{name} does not take {key}")
            setting[key] = value
    built = _EXAMPLES[name][0](**setting)
    return built if isinstance(built, tuple) else (built, {})


# name -> (builder, defaults): the builder takes every default but "about" by
# keyword and returns the model, or (model, info) for ex-jordan
_EXAMPLES = {
    "ex-c0": (sequence_shift_model, {
        "n": 8, "lam": 0.5, "about": "unilateral shift truncation; double pole at z=1"}),
    "ex-volterra": (volterra_model, {
        "n": 8, "about": "left-rectangle quadrature; pole order grows with n"}),
    "ex-selfadjoint": (selfadjoint_model, {
        "n": 6, "seed": 0, "about": "symmetric matrix with closed range; simple pole"}),
    "ex-evenodd": (evenodd_model, {
        "n": 16, "about": "reflection averaging on a symmetric grid; simple pole"}),
    "ex-jordan": (lambda seed, blocks: jordan_model(seed, blocks_at_one=blocks), {
        "seed": 0, "blocks": None,
        "about": "seeded Jordan-form builder with known block sizes"}),
}

EXAMPLE_NAMES = tuple(_EXAMPLES)


def example_defaults(name: str) -> dict:
    if name not in _EXAMPLES:
        raise KeyError(f"unknown example {name!r}")
    return dict(_EXAMPLES[name][1])
