"""Seeded simulation of AR(p) laws and representation verification.

Every path comes from one recursion kernel, which overwrites a
time-major (horizon, replications, dim) block of innovations in place
with the states they drive from an initial state: simulate_ar runs it on
one replication, simulate_ensemble once on all replications from a zero
initial state.  Innovations come from counter-based (Philox) streams
keyed by (seed, replication), so

  * a fixed (model, seed, horizon) reproduces a path bit-for-bit, and
  * replication r of an ensemble equals, to rounding, the single path
    simulated with that replication index (the ensemble advances all
    replications in one matrix product per lag, whose summation order
    can differ from the single path's in the last bits; thread pools
    spread only the draws, never the recursion).

The representation check needs nothing before t = 1.  Unrolling the
companion recursion from the stored initial state splits every path
into closed-form pieces -- the initial-state levels, the random walk
(and its sum, for a double root), the decaying initial-state transient
and the finite stationary sum of the innovations drawn so far -- so the
check predicts the path exactly from any initial state, fits nothing
and truncates nothing, in one companion pass that is linear in the
horizon (see verify_representation).
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cointegration import positive_definite_check
from .grj import I1Report, I2Report
from .numfield import ascent_at_one, operator_norm, within
from .pencil import ArPencil, linearize


class ClassMismatch(ArithmeticError):
    """The representation class of the report disagrees with the model."""


def _white(seed: int, replication: int, out: np.ndarray) -> np.ndarray:
    """Fill the contiguous ``out`` with the first standard normals of the
    stream keyed (seed, replication), in row order.  The counter stays
    2 * replication so that every path keeps its bytes."""
    key = [np.uint64(int(seed) % (1 << 64)),
           np.uint64(2 * int(replication) % (1 << 64))]
    np.random.Generator(np.random.Philox(key=key)).standard_normal(out=out)
    return out


def _recurse(coeffs, block, initial) -> np.ndarray:
    """Overwrite a time-major (horizon, replications, dim) block holding
    eps_t with the states X_t = sum_j A_j X_{t-j} + eps_t and return it;
    initial[i] is X_{-i}, shared by every replication.  Each step adds
    one product per lag to the contiguous slice block[t]."""
    for t in range(block.shape[0]):
        acc = block[t]
        for j, a in enumerate(coeffs, start=1):
            past = block[t - j] if t >= j else initial[j - t - 1]
            acc += past @ a.T
    return block


def _real_coeffs(ar: ArPencil):
    mats = []
    for c in ar.coeffs:
        if not within("real coefficients", np.max(np.abs(c.imag)),
                      max(1.0, np.max(np.abs(c.real)))).holds:
            raise ValueError("simulation requires real AR coefficients")
        mats.append(np.ascontiguousarray(c.real))
    return mats


def _covariance_factor(cov, dim: int):
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    if cov.shape[0] != dim:
        raise ValueError("covariance dimension does not match the model")
    if not positive_definite_check(cov):
        warnings.warn("innovation covariance is not positive definite", stacklevel=3)
    sym = (cov + cov.T) / 2.0
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(sym)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


@dataclass(frozen=True, eq=False)
class SamplePath:
    """One simulated trajectory plus the innovations that made it.

    states[t-1] is X_t and innovations[t-1] is eps_t for t = 1..horizon;
    initial[i] is X_{-i}.
    """

    model_id: str
    seed: int
    horizon: int
    states: np.ndarray
    innovations: np.ndarray
    initial: np.ndarray

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def to_csv_text(self) -> str:
        parts = ["t," + ",".join(f"coord_{i}" for i in range(self.dim)) + "\n"]
        for t in range(1, self.horizon + 1):
            # one tolist() per row: Python floats, whose repr round-trips
            parts.append(f"{t},{','.join(map(repr, self.states[t - 1].tolist()))}\n")
        return "".join(parts)


def simulate_ar(ar: ArPencil, cov, horizon: int, seed: int, initial=None,
                replication: int = 0, model_id: str = "") -> SamplePath:
    """Simulate X_t = sum_j A_j X_{t-j} + eps_t with Gaussian innovations.

    ``initial`` is a (p, dim) array with row i equal to X_{-i} (zeros by
    default); the recursion itself is applied exactly, so the stored
    states satisfy the law to rounding by construction.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    coeffs = _real_coeffs(ar)
    n, p = ar.dim, ar.p
    factor = _covariance_factor(cov, n)

    if initial is None:
        initial = np.zeros((p, n))
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (p, n):
        raise ValueError(f"initial must have shape ({p}, {n})")

    eps = _white(seed, replication, np.empty((horizon, n))) @ factor.T
    # the path keeps eps, so the kernel overwrites a time-major copy
    states = _recurse(coeffs, eps[:, None].copy(), initial)[:, 0]
    return SamplePath(model_id=model_id, seed=int(seed), horizon=int(horizon),
                      states=states, innovations=eps, initial=initial)


def recursion_residual(ar: ArPencil, path: SamplePath) -> float:
    """Largest violation of the AR law along the stored path, read from
    the stored arrays alone.  Row p - j + t - 1 of the stacked levels
    [initial[::-1]; states] holds X_{t-j}, so each lag takes one stacked
    product over all steps.  The stack keeps one vector-matrix product
    per step, rounded as a single step's product is: a matrix-matrix
    product would round differently, by up to about 1e-16 |A| |X|, which
    on a fast-growing path (a pole of order three or more) tops any fixed
    bound.  A non-finite state gives a non-finite residual."""
    coeffs = _real_coeffs(ar)
    p, t_count = len(coeffs), path.horizon
    levels = np.concatenate([path.initial[::-1], path.states])[:, None]
    acc = path.states - path.innovations
    for j, a in enumerate(coeffs, start=1):
        acc -= (levels[p - j:p - j + t_count] @ a.T)[:, 0]
    return float(np.max(np.abs(acc)))


@dataclass(frozen=True, eq=False)
class RepresentationCheck:
    max_residual: float
    tau0: np.ndarray
    tau1: np.ndarray
    rep_class: str
    transient: float  # ||[(I - P) B^T]_obs||_2 at T = horizon


def _as_real(m, what: str):
    m = np.asarray(m)
    if not within("real operator", np.max(np.abs(m.imag)), 1.0 + np.max(np.abs(m.real))).holds:
        raise ValueError(f"{what} has a non-negligible imaginary part")
    return m.real


def verify_representation(ar: ArPencil, path: SamplePath, report) -> RepresentationCheck:
    """Compare the stored path with the exact representation of ``ar``
    from the path's own initial state.

    With B the companion operator, P the report's long-run projection,
    D = (B - I)P (zero for a simple root, -N_{-2} for a double one),
    Xtilde_0 the stacked initial state and R_j = [(I - P) B^j]_obs,
    unrolling Xtilde_t = B^t Xtilde_0 + sum_s B^{t-s} epstilde_s gives

      X_t = [(P + tD) Xtilde_0]_obs + R_t Xtilde_0 + P_obs xi_t
            + D_obs sum_{s<=t} (t-s) eps_s + sum_{j<t} R_j[:, :n] eps_{t-j}.

    The levels tau0 = [P Xtilde_0]_obs and tau1 = [D Xtilde_0]_obs are
    predicted, not fitted, and nothing is truncated.  The last two terms
    are [(I - P) U_t]_obs with U_t = B U_{t-1} + (eps_t, 0, ..., 0) and
    U_0 = Xtilde_0, so one companion pass adds them in linear time.
    With I - P left of B^j the identity needs P to commute with B,
    whereas in the order B^j (I - P) it holds for every projection onto
    ker M.  Returns the largest Euclidean deviation over t = 1..horizon;
    ``transient`` is ||R_T||_2 (R_{j+1} = R_j B along the pass), how far
    the initial-state term has decayed by the last step.
    """
    if not isinstance(report, (I1Report, I2Report)):
        raise TypeError("report must be an order-one or order-two report")
    rep_class = f"I{report.order}"
    if not report.holds:
        raise ClassMismatch("the report does not certify its own class")
    cp = linearize(ar)
    order = ascent_at_one(cp.a1)
    if order != report.order:
        raise ClassMismatch(f"model has unit-root ascent {order}, report class is {rep_class}")
    if report.p_operator is None:
        raise ValueError("the report carries no long-run projection")
    t_count, n = path.states.shape
    if (n, path.initial.shape[0]) != (ar.dim, ar.p):
        raise ValueError("path dimensions do not match the model")

    b = _as_real(cp.a1, "companion operator")
    p_op = _as_real(report.p_operator, "long-run projection")
    d_op = (b - np.eye(cp.big_dim)) @ p_op
    start = path.initial.reshape(-1)
    tau0, tau1 = (p_op @ start)[:n], (d_op @ start)[:n]

    eps = path.innovations
    xi = np.cumsum(eps, axis=0)
    times = np.arange(1, t_count + 1, dtype=float)[:, None]
    # sum_{s<=t} (t - s) eps_s = xi_1 + ... + xi_{t-1}
    predicted = (tau0 + times * tau1 + xi @ p_op[:n, :n].T
                 + (np.cumsum(xi, axis=0) - xi) @ d_op[:n, :n].T)
    off = rows = np.eye(n, cp.big_dim) - p_op[:n]  # R_0
    state = start
    for t in range(t_count):
        state = b @ state
        state[:n] += eps[t]
        predicted[t] += off @ state
        rows = rows @ b
    residual = float(np.max(np.linalg.norm(path.states - predicted, axis=1)))
    return RepresentationCheck(max_residual=residual, tau0=tau0, tau1=tau1,
                               rep_class=rep_class, transient=operator_norm(rows))


# ---------------------------------------------------------------------------
# ensembles and stationarity diagnostics
# ---------------------------------------------------------------------------

def simulate_ensemble(ar: ArPencil, cov, horizon: int, seed: int,
                      replications: int, threads: int = 1) -> np.ndarray:
    """States array (replications, horizon, dim), every replication
    started from zero initial states; replication r uses the stream keyed
    (seed, r), so row r equals simulate_ar(..., replication=r) to
    rounding.  The array is a transposed view of the time-major
    (horizon, replications, dim) block that the recursion kernel
    overwrites in place, advancing all replications in one pass, one
    matrix product per lag, whose summation order can differ from a
    single path's (models.ar2_unit_root_model: about 6e-13 apart after
    2000 steps).  ``threads`` > 1 spreads only the draws, each into its
    own row, so the output is byte-stable across thread counts."""
    if replications < 1:
        raise ValueError("need at least one replication")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    coeffs = _real_coeffs(ar)
    factor = _covariance_factor(cov, ar.dim)
    white = np.empty((replications, horizon, ar.dim))

    def draw(r):
        _white(seed, r, white[r])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(draw, range(replications)))
    else:
        for r in range(replications):
            draw(r)
    block = white.transpose(1, 0, 2) @ factor.T
    return _recurse(coeffs, block, np.zeros((ar.p, ar.dim))).transpose(1, 0, 2)


@dataclass(frozen=True)
class SlopeReport:
    slope: float
    std_error: float
    stationary: bool
    times: tuple
    variances: tuple

    def to_json(self) -> dict:
        return {"slope": self.slope, "std_error": self.std_error,
                "stationary": self.stationary, "times": list(self.times),
                "variances": list(self.variances)}


def stationarity_slope(series, min_replications: int = 100) -> SlopeReport:
    """Regression of ensemble variance on time at the quarter points.

    An integrated scalar series has ensemble variance growing linearly
    in t; a stationary one is flat.  ``stationary`` means the fitted
    slope is within three standard errors of zero.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2:
        raise ValueError("series must be (replications, horizon)")
    reps, horizon = series.shape
    if reps < min_replications:
        raise ValueError(f"need at least {min_replications} replications, got {reps}")
    if horizon < 8:
        raise ValueError("horizon too short for the quarter-point design")
    times = [horizon // 4, horizon // 2, (3 * horizon) // 4, horizon]
    x = np.array(times, dtype=float)
    y = series[:, [t - 1 for t in times]].var(axis=0, ddof=1)
    xc = x - x.mean()
    denom = float(xc @ xc)
    slope = float(xc @ y / denom)
    intercept = float(y.mean() - slope * x.mean())
    rss = float(np.sum((y - intercept - slope * x) ** 2))
    std_error = float(np.sqrt(rss / 2.0 / denom))
    stationary = (within("stationarity", abs(slope), std_error).holds if std_error > 0
                  else slope == 0.0)
    return SlopeReport(slope=slope, std_error=std_error, stationary=bool(stationary),
                       times=tuple(times), variances=tuple(float(v) for v in y))
