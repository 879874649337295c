"""Dense complex linear algebra kernel.

Everything downstream (pencils, Laurent coefficients, representation
components) reduces to a handful of primitives collected here: induced
operator norms, tolerant kernel / range decisions, the idempotency
check of a projection, and the staircase that reads every rank chain.

The class checks read their spaces off the SVD of M = I - B and of two
small matrices, which pencil.CompanionPencil owns: the coupling
C = alpha_perp^H beta_perp, nonsingular if and only if I(1) holds, whose inverse
beta_perp C^+ alpha_perp^H is the I(1) projection or the I(2) graft Q^g, and J = Y^H M^+ K,
which decides I(2) (K = ran M /\\ ker M, Y = (ran M + ker M)^perp).

Conventions
-----------
* Operators are dense ``numpy`` arrays, complex128 throughout; real input
  is embedded with zero imaginary part.  A subspace of C^n is an n x k
  array of basis columns, its dimension k = shape[1]; every basis grjkit
  computes is orthonormal (singular vectors, whatever the reporting norm).
* Every cut-off sits in one table, CUTOFFS, one entry per kind of
  decision; no caller tunes any.  A scalar decision goes through
  within(kind, value, scale), which returns the value and its bound with
  the verdict; vectorised ones (the rank rule, the unit-cluster masks, the
  resolvent's per-node screen and bound) read their entry directly.
* Rank decisions are Euclidean-SVD decisions regardless of the reporting
  norm: numerical rank is an SVD concept, while the one/two/sup norms
  only matter for reported norm values.  They all cut at CUTOFFS["rank"]
  relative to a norm: a kernel, a range, both orthogonal complements and
  the kept singular values come from one full SVD (kernel_and_range), cut
  relative to its largest singular value, so they agree on the rank; a
  staircase fixes one cut from its first block for all its steps.
  Residual checks cut in the operator norm, at CUTOFFS["residual"] for
  solves and CUTOFFS["guard"] for projections.
* The dual pairing is bilinear, ``f(x) = sum_i f_i x_i`` with no
  conjugation, so the adjoint of an operator is its plain transpose and
  the space of functionals annihilating ``ran A`` is the left null space
  of ``A``.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from typing import Iterable

import numpy as np

NORM_KINDS = ("one", "two", "sup")
DECAY_FIT_FLOOR = 1e-300  # fit_geometric_decay treats norms at or below it as zero
RANK_REL = 1e-10  # rank cut-off: singular values <= RANK_REL * s_0 count as zero
RESIDUAL_ABS = 1e-8  # residual cut-off in the operator norm (10 x of it for the guards)
# every cut-off grjkit decides by, one entry per kind of decision (see within)
CUTOFFS = {
    "rank": RANK_REL,
    "residual": RESIDUAL_ABS,  # resolvent solves; also "is the loading zero"
    "hermitian": 1e-14,  # largest |B - B^H| entry over the largest |B|: resolvent by eigh
    "guard": 10 * RESIDUAL_ABS,  # the I(1) projection, the Laurent P
    "reconstruction": (10.0, 100.0 * RESIDUAL_ABS),  # fitted contour tails, plus a floor
    "quadrature": 1e-10,  # largest change between levels that counts as settled
    "cluster scatter": 0.05,  # farthest a unit-cluster eigenvalue may sit from 1
    "isolation": 0.1,  # eta: 1 the only pencil-spectrum point in |z| <= 1 + eta
    "real coefficients": 1e-12, "real operator": 1e-8,  # imaginary over real part
    "covariance asymmetry": 10 * RESIDUAL_ABS, "covariance definiteness": RANK_REL,
    "stationarity": 3.0,  # |variance slope| within this many standard errors
    "sweep slope": 0.5,  # pole order growing at least this fast in n flags essential
    "verify recursion": 1e-8, "verify laurent-algebra": 1e-7, "verify p-cross-check": 1e-6,
    "verify h-coefficient cross-check": 1e-6, "verify n2-cross-check": 1e-7,
    "verify representation": 1e-6,  # verify's invariants; this one times 1 + max|x|
}
_AT_LEAST = frozenset({"sweep slope"})  # the kinds that hold at value >= bound
Decision = namedtuple("Decision", "holds value bound")  # what within() decided


def within(kind: str, value, scale=1.0) -> Decision:
    """Decision(value <= bound, value, bound), bound = CUTOFFS[kind] * scale (factor *
    scale + floor for a (factor, floor) entry); _AT_LEAST kinds hold at value >= bound."""
    entry = CUTOFFS[kind]
    bound = entry[0] * scale + entry[1] if isinstance(entry, tuple) else entry * scale
    return Decision(bool(value >= bound if kind in _AT_LEAST else value <= bound), value, bound)


class NotComplementary(ValueError):
    """Raised when two subspaces fail to decompose the ambient space."""


def as_operator(entries, *, square=False) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array, validating shape."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"operator must be 2-d, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"operator must be at least 1x1, got {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("operator entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square operator, got {m.shape}")
    return m


# ---------------------------------------------------------------------------
# JSON wire format, shared by all modules:
#   matrix   {"rows": r, "cols": c, "entries": [[re, im], ...]}  row-major
#   subspace {"ambient": n, "basis": <matrix> | null}  null for {0}
# ---------------------------------------------------------------------------

def matrix_to_json(m) -> dict:
    m = as_operator(m)
    # (re, im) pairs as Python floats, without a numpy scalar per entry
    entries = np.ascontiguousarray(m).view(np.float64).reshape(-1, 2).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def _json_int(obj, key: str) -> int:
    """obj[key] if it is a JSON integer; a float, bool or string raises ValueError."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, entries = _json_int(obj, "rows"), _json_int(obj, "cols"), obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix must have rows >= 1 and cols >= 1")
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    flat = [complex(*e) for e in entries  # type(): a JSON true is a bool, no int or float
            if type(e) is list and len(e) == 2 and {type(x) for x in e} <= {int, float}]
    if len(flat) != len(entries):
        raise ValueError("each matrix entry must be a pair [re, im] of numbers")
    return as_operator(np.array(flat, dtype=np.complex128).reshape(rows, cols))


def subspace_to_json(basis) -> dict:
    """The subspace spanned by the n x k array ``basis``, the array kept for
    dump_json to write as a matrix; JSON matrices need cols >= 1, so the
    trivial subspace (k = 0) has basis None."""
    return {"ambient": basis.shape[0], "basis": basis if basis.shape[1] else None}


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def operator_norm(m, norm: str = "two") -> float:
    """Induced operator norm of a dense matrix.

    one  -> max absolute column sum (exact)
    sup  -> max absolute row sum (exact)
    two  -> spectral norm (largest singular value)
    """
    m = as_operator(m)
    if norm == "one":
        return float(np.max(np.sum(np.abs(m), axis=0)))
    if norm == "sup":
        return float(np.max(np.sum(np.abs(m), axis=1)))
    if norm == "two":
        return float(np.linalg.norm(m, 2))
    raise ValueError(f"unknown norm kind {norm!r}")


# ---------------------------------------------------------------------------
# tolerant rank / kernel / range
# ---------------------------------------------------------------------------

def kernel_and_range(m) -> tuple:
    """(ker M, ran M, (ker M)^perp, (ran M)^perp, s_r) from one full SVD, cut
    by the rank rule: the rank counts the singular values above
    CUTOFFS["rank"] * s_0 (0 for M = 0).  The right singular vectors past the
    rank span ker M, those up to it (ker M)^perp; the left ones up to it span
    ran M.  s_r are the kept singular values, so M^+ = V_r diag(1/s_r) U_r^H
    with V_r, U_r the bases of (ker M)^perp and ran M."""
    u, s, vh = np.linalg.svd(as_operator(m))
    rank, v = int(np.sum(s > CUTOFFS["rank"] * s[0])), vh.conj().T
    return v[:, rank:], u[:, :rank], v[:, :rank], u[:, rank:], s[:rank]


def kernel_basis(m) -> np.ndarray:
    return kernel_and_range(m)[0]


def range_basis(m) -> np.ndarray:
    return kernel_and_range(m)[1]


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def checked_projection(proj) -> np.ndarray:
    """``proj`` if idempotent within CUTOFFS["guard"], else NotComplementary:
    a nearly touching complement pair blows up the idempotency residual."""
    if not within("guard", operator_norm(proj @ proj - proj)).holds:
        raise NotComplementary("complement pair too ill-conditioned for a reliable projection")
    return proj


# ---------------------------------------------------------------------------
# Jordan structure at eigenvalue 0: the staircase
# ---------------------------------------------------------------------------

def _staircase(block, cut) -> list:
    """Weyr numbers w_1, w_2, ... of the square ``block`` D at 0 by the
    staircase of Golub & Wilkinson (SIAM Rev. 18, 1976), with no power
    formed: the nullity of D (its singular values at or below the cut
    cut(||D||_2)), then that of V_r^H U_r S_r, the map D = U S V^H induces
    on C^m / ker D, and so on while the nullity is positive.  dim ker D^k
    = w_1 + ... + w_k; the w_k sum to the size of D when D is nilpotent."""
    u, s, vh = np.linalg.svd(block)
    bound, weyr = cut(s[0]) if s.size else 0.0, []
    while (rank := int(np.sum(s > bound))) < s.size:
        weyr.append(s.size - rank)
        if not rank:
            break
        u, s, vh = np.linalg.svd((vh[:rank] @ u[:, :rank]) * s[:rank])
    return weyr


def _kernel_chain(split) -> tuple:
    """d_k = dim ker D^k for k = 0, 1, ..., K, the smallest k with d_{k+1} =
    d_k, from ``split`` = kernel_and_range(D): its rank gives d_1, and the
    staircase continues on D_1 = V_r^H U_r S_r from the same split, cut at
    CUTOFFS["rank"] * ||D_1||_2.  For D = I - M, d_K is the algebraic
    multiplicity of the eigenvalue 1 of M and K its largest Jordan block."""
    kernel, ran, kernel_complement, _, s_r = split
    if not kernel.shape[1]:
        return (0,)
    weyr = _staircase((kernel_complement.conj().T @ ran) * s_r,
                      lambda norm: CUTOFFS["rank"] * norm)
    return tuple(np.cumsum([0, kernel.shape[1], *weyr]).tolist())


def ascent_at_one(m) -> int:
    """Size of the largest Jordan block of M at eigenvalue 1 (0 when 1 is
    not an eigenvalue), from a kernel chain of I - M on an SVD of its own:
    an independent oracle for the pole order of (I - zM)^{-1} at z = 1."""
    m = as_operator(m, square=True)
    return len(_kernel_chain(kernel_and_range(np.eye(m.shape[0]) - m))) - 1


# ---------------------------------------------------------------------------
# misc small helpers shared by the test-suite and modules
# ---------------------------------------------------------------------------

def fit_geometric_decay(norms: Iterable[float]):
    """Least-squares fit of ``norms[j] ~ C * rho**j`` on the nonzero tail.

    Returns (C, rho).  All-zero input fits (0.0, 0.0); a single nonzero
    point fits (that value, 0.0).  laurent_algebra_gap's tail bound reads it.
    """
    vals = np.asarray(list(norms), dtype=float)
    idx = np.nonzero(vals > DECAY_FIT_FLOOR)[0]
    if idx.size == 0:
        return 0.0, 0.0
    if idx.size == 1:
        return float(vals[idx[0]]), 0.0
    x = idx.astype(float)
    y = np.log(vals[idx])
    slope, intercept = np.polyfit(x, y, 1)
    return float(math.exp(intercept)), float(math.exp(slope))


def _wire_format(obj):
    """json's default hook: a 2-d array as a matrix."""
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        return matrix_to_json(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json(obj) -> str:
    """Canonical JSON encoding (sorted keys, fixed separators) for
    byte-stable reports.

    Besides plain JSON values, ``obj`` may hold 2-d arrays, subspace_to_json's
    dicts among them, written as matrices in the wire format above.  Each
    one is converted as the encoder reaches it, so only one matrix's nested
    lists are alive at a time; the bytes equal those of converting
    everything beforehand."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_wire_format)
