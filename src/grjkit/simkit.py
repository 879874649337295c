"""Seeded simulation of AR(p) laws and representation verification.

Every path comes from one recursion kernel, which overwrites a
time-major (horizon, replications, dim) block of innovations in place
with the states they drive from an initial state: simulate_ar runs it on
one replication, simulate_ensemble once on all replications from a zero
initial state.  Innovations come from counter-based (Philox) streams
keyed by (seed, replication), with a separate key lane for the
PRESAMPLE = 128 pre-sample draws, which simulate_ar and
consistent_initial both take, so

  * a fixed (model, seed, horizon) reproduces a path bit-for-bit,
  * replication r of an ensemble equals, to rounding, the single path
    simulated with that replication index (the ensemble advances all
    replications in one matrix product per lag, whose summation order
    can differ from the single path's in the last bits; thread pools
    spread only the draws, never the recursion), and
  * consistent_initial sees exactly the pre-sample innovations that
    simulate_ar stores for replication 0 of the same seed.

The pre-sample window exists because the stationary component
nu_t = sum_j h_j eps_{t-j} reaches into the infinite past: with enough
pre-sample innovations (and coefficient decay), nu_t is computable
essentially exactly at t = 0, which turns the representation check into
an equality test rather than a burn-in approximation.  The check fits
only the free constants the theory actually leaves free -- a constant
level for a simple unit root, an affine level for a double one -- over
the first few time points, then demands the remaining residual be flat
at rounding scale.  Exactness requires the path's initial state to be
representation-consistent (see consistent_initial); an arbitrary initial
state adds a geometric transient that no constant/affine fit absorbs.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cointegration import MaRepresentation, annihilators, positive_definite_check
from .grj import I1Report, I2Report, NotI2
from .numfield import RESIDUAL_ABS, ascent_at_one, fit_geometric_decay, operator_norm
from .pencil import ArPencil, linearize

PRESAMPLE = 128  # pre-sample innovations per path; bounds verify_representation's j_max
_MAIN_LANE = 0
_PRESAMPLE_LANE = 1


class ClassMismatch(ArithmeticError):
    """The representation class of the report disagrees with the model."""


def _white(seed: int, replication: int, lane: int, out: np.ndarray) -> np.ndarray:
    """Fill the contiguous ``out`` with the first standard normals of the
    stream keyed (seed, replication, lane), in row order."""
    key = [np.uint64(int(seed) % (1 << 64)),
           np.uint64((2 * int(replication) + lane) % (1 << 64))]
    np.random.Generator(np.random.Philox(key=key)).standard_normal(out=out)
    return out


def _draw(seed: int, replication: int, lane: int, rows: int, factor) -> np.ndarray:
    """The first ``rows`` innovations of the stream keyed
    (seed, replication, lane), coloured by the covariance factor."""
    return _white(seed, replication, lane, np.empty((rows, factor.shape[0]))) @ factor.T


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
        if np.max(np.abs(c.imag)) > 1e-12 * max(1.0, np.max(np.abs(c.real))):
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
    """One simulated trajectory plus the innovation history that made it.

    states[t-1] is X_t for t = 1..horizon; initial[i] is X_{-i}; and
    presample[k] is eps_{k - n_pre + 1} (chronological, ending at eps_0).
    """

    model_id: str
    seed: int
    horizon: int
    states: np.ndarray
    innovations: np.ndarray
    initial: np.ndarray
    presample: np.ndarray

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def extended_innovations(self) -> np.ndarray:
        """Innovation rows for t = 1 - n_pre .. horizon, chronological."""
        return np.vstack([self.presample, self.innovations])

    def to_csv_text(self) -> str:
        parts = ["t," + ",".join(f"coord_{i}" for i in range(self.dim)) + "\n"]
        for t in range(1, self.horizon + 1):
            # one tolist() per row: Python floats, whose repr round-trips
            parts.append(f"{t},{','.join(map(repr, self.states[t - 1].tolist()))}\n")
        return "".join(parts)


def simulate_ar(ar: ArPencil, cov, horizon: int, seed: int, initial=None,
                replication: int = 0, model_id: str = "") -> SamplePath:
    """Simulate X_t = sum_j A_j X_{t-j} + eps_t with Gaussian innovations.

    ``initial`` is a (p, dim) array with row i equal to X_{-i}; the
    recursion itself is applied exactly, so the stored states satisfy the
    law to rounding by construction.  The path also stores the PRESAMPLE
    innovations before t = 1.
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

    eps = _draw(seed, replication, _MAIN_LANE, horizon, factor)
    # drawn backwards from t=0, stored chronologically
    pre = _draw(seed, replication, _PRESAMPLE_LANE, PRESAMPLE, factor)[::-1]
    # the path keeps eps, so the kernel overwrites a time-major copy
    states = _recurse(coeffs, eps[:, None].copy(), initial)[:, 0]
    return SamplePath(model_id=model_id, seed=int(seed), horizon=int(horizon),
                      states=states, innovations=eps, initial=initial, presample=pre)


def recursion_residual(ar: ArPencil, path: SamplePath) -> float:
    """Largest violation of the AR law along the stored path."""
    coeffs = _real_coeffs(ar)
    worst = 0.0
    for t in range(1, path.horizon + 1):
        acc = path.states[t - 1] - path.innovations[t - 1]
        for j, a in enumerate(coeffs, start=1):
            back = t - j
            past = path.states[back - 1] if back >= 1 else path.initial[-back]
            acc = acc - a @ past
        worst = max(worst, float(np.max(np.abs(acc))))
    return worst


def consistent_initial(ar: ArPencil, p_op, cov, seed: int, level=None) -> np.ndarray:
    """Initial state vectors that remove the representation transient.

    Solving the companion recursion forward leaves a term
    B^t (I - P)(Xtilde_0 - nu_0) that decays only geometrically; choosing
    Xtilde_0 = nu_0 + level with level in ran P makes it vanish, so the
    closed-form representation is exact from t = 1 on.  The pre-sample
    innovations used here are exactly the ones simulate_ar will draw for
    replication 0 of this seed, by the keyed-stream convention.

    ``level`` is a companion-space vector in ran P (defaults to zero);
    it becomes tau_0 (and feeds tau_1 for a double root).  Returns the
    (p, dim) initial array for simulate_ar.
    """
    cp = linearize(ar)
    pn, n, p = cp.big_dim, ar.dim, ar.p
    p_op = np.asarray(p_op, dtype=np.complex128)
    if p_op.shape != (pn, pn):
        raise ValueError("long-run projection has the wrong shape")
    factor = _covariance_factor(cov, n)
    pre = _draw(seed, 0, _PRESAMPLE_LANE, PRESAMPLE, factor)  # row j is eps_{-j}

    nu0 = np.zeros(pn, dtype=np.complex128)
    power = cp.identity() - p_op  # H_j = B^j (I - P), applied to lifted eps_{-j}
    for j in range(PRESAMPLE):
        nu0 += power[:, :n] @ pre[j]  # lifted eps_{-j} is zero past the first block
        power = cp.a1 @ power

    if level is None:
        level = np.zeros(pn)
    level = np.asarray(level, dtype=np.complex128).ravel()
    if level.shape != (pn,):
        raise ValueError("level must be a companion-space vector")
    drift = np.linalg.norm(p_op @ level - level)
    if drift > 10 * RESIDUAL_ABS * (1.0 + np.linalg.norm(level)):
        raise ValueError("level must lie in the range of the long-run projection")

    start = nu0 + level
    if np.max(np.abs(start.imag)) > 1e-9 * (1.0 + np.max(np.abs(start.real))):
        raise ValueError("consistent initial state came out non-real")
    return start.real.reshape(p, n)


@dataclass(frozen=True, eq=False)
class RepresentationCheck:
    max_residual: float
    tau0: np.ndarray
    tau1: np.ndarray
    rep_class: str


def _as_real(m, what: str):
    m = np.asarray(m)
    if np.max(np.abs(m.imag)) > 1e-8 * (1.0 + np.max(np.abs(m.real))):
        raise ValueError(f"{what} has a non-negligible imaginary part")
    return m.real


def verify_representation(path: SamplePath, report, j_max: int,
                          ar: ArPencil | None = None) -> RepresentationCheck:
    """Compare the stored path against the closed-form representation.

    Builds the stochastic part from the report's long-run operators and
    h-coefficients plus the path's innovation history, fits the free
    level (and trend, for a double root) on the first few points, and
    returns the worst remaining deviation.  When the generating model is
    passed, its unit-root ascent is checked against the report class
    first.
    """
    if not isinstance(report, (I1Report, I2Report)):
        raise TypeError("report must be an order-one or order-two report")
    rep_class = f"I{report.order}"
    if not report.holds:
        raise ClassMismatch("the report does not certify its own class")
    if ar is not None:
        order = ascent_at_one(linearize(ar).a1)
        if order != report.order:
            raise ClassMismatch(
                f"model has unit-root ascent {order}, report class is {rep_class}")
    if len(report.h_coeffs) <= j_max:
        raise ValueError(f"report carries {len(report.h_coeffs)} h-coefficients, "
                         f"need j_max+1 = {j_max + 1}")
    if path.presample.shape[0] < j_max:
        raise ValueError("path pre-sample window is shorter than j_max")

    h = [_as_real(c, "h-coefficient") for c in report.h_coeffs[:j_max + 1]]
    decay_c, decay_rho = fit_geometric_decay([operator_norm(c) for c in h])
    if 0 < decay_rho < 1:
        tail = decay_c * decay_rho ** (j_max + 1) / (1.0 - decay_rho)
        if tail > 1e-10:
            warnings.warn(f"h-coefficient tail bound {tail:.2e} above 1e-10; "
                          "the residual floor is limited by truncation", stacklevel=2)

    t_count, n = path.states.shape
    extended = path.extended_innovations()
    n_pre = path.presample.shape[0]
    nu = np.zeros((t_count, n))
    for j, coeff in enumerate(h):
        # rows for times (1-j)..(T-j) start at offset n_pre - j
        nu += extended[n_pre - j:n_pre - j + t_count] @ coeff.T

    xi = np.cumsum(path.innovations, axis=0)
    if report.order == 1:
        long_run = _as_real(report.long_run, "long-run operator")
        stochastic = xi @ long_run.T + nu
    else:
        lr2 = _as_real(report.long_run2, "second-order long-run operator")
        lr1 = _as_real(report.long_run1, "first-order long-run operator")
        stochastic = -np.cumsum(xi, axis=0) @ lr2.T + xi @ lr1.T + nu

    deviation = path.states - stochastic
    window = min(max(path.initial.shape[0], 3), t_count)
    times = np.arange(1, t_count + 1, dtype=float)
    if report.order == 1:
        tau0 = deviation[:window].mean(axis=0)
        tau1 = np.zeros(n)
    else:
        design = np.column_stack([np.ones(window), times[:window]])
        coef, *_ = np.linalg.lstsq(design, deviation[:window], rcond=None)
        tau0, tau1 = coef[0], coef[1]
    fitted = tau0[None, :] + times[:, None] * tau1[None, :]
    residual = float(np.max(np.linalg.norm(deviation - fitted, axis=1)))
    return RepresentationCheck(max_residual=residual, tau0=tau0, tau1=tau1,
                               rep_class=rep_class)


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
        _white(seed, r, _MAIN_LANE, white[r])

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
    stationary = abs(slope) <= 3.0 * std_error if std_error > 0 else slope == 0.0
    return SlopeReport(slope=slope, std_error=std_error, stationary=bool(stationary),
                       times=tuple(times), variances=tuple(float(v) for v in y))


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Two-tier polynomial cointegration probe over an ensemble.

    Functionals killing the second-order loading should make the
    differenced series stationary; those additionally killing the
    projection loading should make the level series stationary; a
    functional with nonzero second-order loading is the negative control.
    """

    tier1: list
    tier2: list
    negative: dict | None
    all_pass: bool


def _probe_entry(functional, scalar_series) -> dict:
    slope = stationarity_slope(scalar_series)
    return {"functional": [float(v) for v in functional],
            "slope": slope.slope, "std_error": slope.std_error,
            "stationary": slope.stationary}


def polynomial_cointegration_probe(states, i2: I2Report) -> ProbeReport:
    """Check the two-tier stationarity pattern of a double unit root.

    ``states`` is an ensemble (replications, horizon, dim) of the model
    the report describes, initialized with zero level so the free affine
    part vanishes for every probed functional.
    """
    if not i2.holds:
        raise NotI2("the report does not certify a double pole")
    states = np.asarray(states, dtype=float)
    if states.ndim != 3:
        raise ValueError("states must be (replications, horizon, dim)")
    lr2 = _as_real(i2.long_run2, "second-order loading")
    p_load = _as_real(i2.long_run1, "first-order loading") - lr2

    ann2 = annihilators(lr2)
    ann_both = annihilators(lr2, p_load)
    diffs = np.diff(states, axis=1)

    tier1 = []
    for k in range(ann2.dim):
        f = _as_real(ann2.basis[:, k], "functional")
        tier1.append(_probe_entry(f, diffs @ f))
    tier2 = []
    for k in range(ann_both.dim):
        f = _as_real(ann_both.basis[:, k], "functional")
        tier2.append(_probe_entry(f, states @ f))

    negative = None
    u, s, _ = np.linalg.svd(lr2)
    if s[0] > RESIDUAL_ABS:
        f = _as_real(u[:, 0], "functional")
        negative = _probe_entry(f, diffs @ f)

    all_pass = (all(e["stationary"] for e in tier1)
                and all(e["stationary"] for e in tier2)
                and (negative is None or not negative["stationary"]))
    return ProbeReport(tier1=tier1, tier2=tier2, negative=negative,
                       all_pass=bool(all_pass))


def differenced_ma(report: I1Report) -> MaRepresentation:
    """MA form of the first difference of an order-one solution:
    coefficient k is long_run * [k == 0] + h_k - h_{k-1}.  Its
    coefficient sum telescopes back to the long-run operator (up to the
    truncated tail), tying the pencil pipeline to the MA pipeline."""
    if not report.holds or not report.h_coeffs:
        raise ValueError("need a holding order-one report with h-coefficients")
    h = [_as_real(c, "h-coefficient") for c in report.h_coeffs]
    lr = _as_real(report.long_run, "long-run operator")
    coeffs = [lr + h[0]]
    for k in range(1, len(h)):
        coeffs.append(h[k] - h[k - 1])
    return MaRepresentation(coeffs)
