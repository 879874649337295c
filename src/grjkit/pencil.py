"""Autoregressive operator pencils and their companion linearization.

An AR(p) law on C^n is characterized by the polynomial pencil

    A(z) = I - z*A_1 - ... - z^p * A_p ,

which linearizes to the degree-one pencil I - z*B on the p-fold product
space C^{pn}, where B is the block companion operator (top block row
A_1 ... A_p, identity sub-diagonal).  The (1,1) n x n block of
(I - zB)^{-1} is exactly A(z)^{-1} (Schur complement identity), so both
pencils share spectrum and pole structure.
At z = 1 the pencil reads the class geometry of M = I - B off the coupling
C = alpha_perp^H beta_perp (orthonormal bases of (ran M)^perp and ker M):
I(1) holds if and only if C is nonsingular, and dim K + dim W = dim ker M
(K = ran M /\\ ker M = beta_perp null(C), W = (I - P_ran) ker M), and
beta_perp C^+ alpha_perp^H is the I(1) projection or the I(2) graft Q^g.
I(2) holds if and only if K is nontrivial and J = Y^H M^+ K is nonsingular
(Y = alpha_perp null(C^H) = (ran M + ker M)^perp).
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numfield import (CUTOFFS, NORM_KINDS, as_operator, _json_int, _kernel_chain, dump_json,
                       kernel_and_range, matrix_from_json, matrix_to_json, operator_norm,
                       within)


# backward error of a pencil's eigh and the rounding constant of its nodes (eigh_error)
EighError = namedtuple("EighError", "e f lam_max q_fro2 gamma")


class SingularAt(ArithmeticError):
    """Resolvent requested at (numerically) a spectrum point."""

    def __init__(self, z):
        self.z = z
        super().__init__(f"pencil is singular at z = {z} (within the residual tolerance)")


@dataclass(frozen=True)
class ArPencil:
    """AR(p) pencil data: lag order, state dimension, coefficients, norm kind."""

    p: int
    dim: int
    coeffs: list  # [A_1, ..., A_p], each dim x dim
    norm: str = "two"

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("lag order p must be >= 1")
        if self.norm not in NORM_KINDS:
            raise ValueError(f"norm must be one of {NORM_KINDS}")
        if len(self.coeffs) != self.p:
            raise ValueError(f"expected {self.p} coefficient matrices, got {len(self.coeffs)}")
        coeffs = [as_operator(a, square=True) for a in self.coeffs]
        for a in coeffs:
            if a.shape != (self.dim, self.dim):
                raise ValueError(f"coefficient shape {a.shape} != ({self.dim}, {self.dim})")
        object.__setattr__(self, "coeffs", coeffs)

    def to_json(self) -> dict:
        return {"p": self.p, "dim": self.dim, "norm": self.norm,
                "coeffs": [matrix_to_json(a) for a in self.coeffs]}

    @staticmethod
    def from_json(obj) -> "ArPencil":
        try:
            p, dim, norm = _json_int(obj, "p"), _json_int(obj, "dim"), obj.get("norm", "two")
            coeffs = [matrix_from_json(c) for c in obj["coeffs"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed model object: {exc}") from exc
        return ArPencil(p=p, dim=dim, coeffs=coeffs, norm=norm)

    @staticmethod
    def load(path) -> "ArPencil":
        with open(path, "r", encoding="utf-8") as fh:
            return ArPencil.from_json(json.load(fh))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_json(self.to_json()) + "\n")


@dataclass(frozen=True)
class CompanionPencil:
    """Companion linearization of an ArPencil.

    a1  block companion operator on C^{pn}

    The observable block of a companion-space operator X, its compression
    to the first coordinate block, is X[:dim, :dim].

    M = I - a1 is decomposed once per pencil, on first use: one full SVD
    gives its kernel and range, which the class checks read, their
    orthogonal complements, the order-two geometry's default choices, and
    the first staircase step (d_1 = dim ker M, D_1 = V_r^H U_r S_r) of the
    kernel chain at 1 that every spectrum_report of the pencil reads (``m``,
    ``unit_kernel``, ``unit_range``, ``unit_*_complement``, ``kernel_chain``).
    One SVD of the coupling C of those bases (``coupling``) gives K, which the
    class verdicts and dispatch read, the spaces below and ``coupling_inverse``;
    one SVD of J (``order_two_coupling``) decides I(2); ``identity()``'s I once too.

    resolvent samples (I - z a1)^{-1} with one of two kernels, chosen once
    per pencil: in a1's eigenbasis when a1 is Hermitian (``hermitian_eig``,
    one eigh, whose Q and Q^H ``hermitian_basis`` holds as complex128), else
    an LU inverse.  The eigenbasis kernel checks each node against an a-priori
    bound built from the eigh's backward error (``eigh_error``, two products
    once per pencil, with a1 read as float64 when it is real: ``real_a1``);
    the LU kernel measures its residual.  ``eigenvalues`` holds a1's
    eigenvalues, one eigvals per pencil, for every spectrum_report of it.
    """

    a1: np.ndarray
    ar: ArPencil

    @property
    def big_dim(self) -> int:
        return self.a1.shape[0]

    @property
    def dim(self) -> int:
        return self.ar.dim

    @property
    def norm(self) -> str:
        return self.ar.norm

    def identity(self) -> np.ndarray:
        """I on C^{pn}; one read-only array per pencil."""
        return self._identity

    @cached_property
    def _identity(self) -> np.ndarray:
        eye = np.eye(self.big_dim, dtype=np.complex128)
        eye.flags.writeable = False
        return eye

    @cached_property
    def real_a1(self):
        """a1 as a read-only float64 array when its imaginary part is exactly
        zero, else None."""
        if self.a1.imag.any():
            return None
        b = self.a1.real.copy()
        b.flags.writeable = False
        return b

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """a1's eigenvalues, one eigvals per pencil, read-only."""
        eigs = np.linalg.eigvals(self.a1)
        eigs.flags.writeable = False
        return eigs

    @cached_property
    def hermitian_eig(self):
        """(lam, Q, Q^H) with a1 = Q diag(lam) Q^H from one eigh of a1's
        Hermitian part, when max|a1 - a1^H| <= CUTOFFS["hermitian"] max|a1|
        entry by entry (an overflowing difference fails it); else None.  Q
        is real when a1 is."""
        b = self.a1
        if not within("hermitian", np.max(np.abs(b - b.conj().T)), np.max(np.abs(b))).holds:
            return None
        if self.real_a1 is not None:
            b = self.real_a1
        lam, q = np.linalg.eigh((b + b.conj().T) / 2)
        qh = q.conj().T
        q.flags.writeable = qh.flags.writeable = False
        return lam, q, qh

    @cached_property
    def hermitian_basis(self):
        """hermitian_eig's (lam, Q, Q^H) with Q and Q^H as read-only
        complex128, so neither resolvent's full sample nor contour_coefficients'
        Q diag(c_j) Q^H casts them per call; None when hermitian_eig is."""
        if self.hermitian_eig is None:
            return None
        lam, q, qh = self.hermitian_eig
        q, qh = q.astype(np.complex128, copy=False), qh.astype(np.complex128, copy=False)
        q.flags.writeable = qh.flags.writeable = False
        return lam, q, qh

    @cached_property
    def eigh_error(self):
        """EighError(e, f, lam_max, q_fro2, gamma) of hermitian_eig's (lam, Q,
        Q^H), None when hermitian_eig is: e >= ||a1 - Q diag(lam) Q^H||_2
        against the true a1 (so e covers a1's anti-Hermitian part too), f >=
        ||Q^H Q - I||_2, lam_max = max |lam|, q_fro2 = n (1 + f) >= ||Q||_F^2,
        and gamma = 2 gamma_{n+6} (gamma_k = k u / (1 - k u), u = 2^-53, n =
        big_dim), which covers the rounding of one length-n complex inner
        product, a scaling and a division (Higham 2002, sec. 3.1-3.6).  Each
        of e and f is the Frobenius norm of its computed residual plus gamma
        times ||Q||_F^2 (times lam_max for e), the entrywise bound on the
        rounding of its product; f's own rounding term reads ||Q||_F^2 <= n (1
        + f), hence its divisor 1 - gamma n."""
        if self.hermitian_eig is None:
            return None
        lam, q, qh = self.hermitian_eig
        n = self.big_dim
        b = self.a1 if self.real_a1 is None else self.real_a1
        u = np.finfo(np.float64).eps / 2
        gamma = 2 * (n + 6) * u / (1 - (n + 6) * u)
        gram = qh @ q
        gram[np.diag_indices(n)] -= 1.0  # exact: each diagonal entry is near 1
        f = ((1 + gamma) * float(np.linalg.norm(gram)) + gamma * n) / (1 - gamma * n)
        lam_max, q_fro2 = float(np.max(np.abs(lam))), n * (1 + f)
        e = (1 + gamma) * float(np.linalg.norm(b - (q * lam) @ qh)) + gamma * lam_max * q_fro2
        return EighError(e, f, lam_max, q_fro2, gamma)

    @cached_property
    def m(self) -> np.ndarray:
        m = self.identity() - self.a1
        m.flags.writeable = False
        return m

    @cached_property
    def _kernel_and_range(self) -> tuple:
        return kernel_and_range(self.m)

    # orthonormal bases of ker M, ran M, (ker M)^perp and (ran M)^perp from that one SVD
    unit_kernel = property(lambda self: self._kernel_and_range[0])
    unit_range = property(lambda self: self._kernel_and_range[1])
    unit_kernel_complement = property(lambda self: self._kernel_and_range[2])
    unit_range_complement = property(lambda self: self._kernel_and_range[3])

    @cached_property
    def coupling(self) -> tuple:
        """(u, s, vh, rank), the SVD of C = U_0^H V_0 (U_0, V_0 the bases of
        (ran M)^perp and ker M above).  s are the sines of the angles between ker M
        and ran M, so the rank cuts at the absolute CUTOFFS["rank"], not at one
        relative to s_0, which would call a 1 x 1 C of 1e-17 nonsingular."""
        u0, v0 = self.unit_range_complement, self.unit_kernel
        u, s, vh = np.linalg.svd(u0.conj().T @ v0)
        return u, s, vh, int(np.sum(s > CUTOFFS["rank"]))

    @cached_property
    def coupling_inverse(self) -> np.ndarray:
        """V_0 C^+ U_0^H, C^+ cut at ``coupling``'s rank: the projection onto
        ker M along ran M when C is nonsingular, else the order-two graft Q^g
        for every pair of complements of ran M and ker M."""
        u, s, vh, rank = self.coupling
        out = ((self.unit_kernel @ (vh[:rank].conj().T / s[:rank]))
               @ (self.unit_range_complement @ u[:, :rank]).conj().T)
        out.flags.writeable = False
        return out

    @cached_property
    def _coupling_spaces(self) -> tuple:
        u, _, vh, rank = self.coupling
        v = self.unit_kernel @ vh.conj().T
        return v[:, rank:], v[:, :rank], self.unit_range_complement @ u[:, rank:]

    # K = ran M /\ ker M = V_0 null(C), {0} exactly when C is nonsingular; K_C =
    # V_0 row(C), K's orthogonal complement in ker M; (ran M + ker M)^perp = U_0 null(C^H)
    unit_intersection = property(lambda self: self._coupling_spaces[0])
    unit_intersection_complement = property(lambda self: self._coupling_spaces[1])
    unit_sum_complement = property(lambda self: self._coupling_spaces[2])

    @cached_property
    def order_two_coupling(self) -> tuple:
        """(u, s, vh, rank), the SVD of J = Y^H M^+ K (Y = unit_sum_complement,
        K = unit_intersection, M^+ = V_r diag(1/s_r) U_r^H), empty when K is
        {0}.  J = Y^H M^g K for every complement pair, as M^g x - M^+ x is in
        ker M for x in K: the paper's restricted map of M^g from K to
        Y = (ran M + ker M)^perp.  s_r[-1] s <= 1, cut at CUTOFFS["rank"]."""
        k = self.unit_intersection
        if not k.shape[1]:
            return np.zeros((0, 0)), np.zeros(0), np.zeros((0, 0)), 0
        s_r = self._kernel_and_range[4]
        j = ((self.unit_sum_complement.conj().T @ self.unit_kernel_complement) / s_r
             @ (self.unit_range.conj().T @ k))
        u, s, vh = np.linalg.svd(j)
        return u, s, vh, int(np.sum(s_r[-1] * s > CUTOFFS["rank"]))

    @cached_property
    def kernel_chain(self) -> tuple:
        return _kernel_chain(self._kernel_and_range)


def linearize(ar: ArPencil) -> CompanionPencil:
    """Exact block assembly of the companion operator.

    Top block row carries A_1 ... A_p; the sub-diagonal carries identity
    blocks; everything else is zero.  For p = 1 the companion operator is
    A_1 itself.
    """
    n, p = ar.dim, ar.p
    a1 = np.zeros((p * n, p * n), dtype=np.complex128)
    for j, a in enumerate(ar.coeffs):
        a1[:n, j * n:(j + 1) * n] = a
    for i in range(1, p):
        a1[i * n:(i + 1) * n, (i - 1) * n:i * n] = np.eye(n)
    return CompanionPencil(a1=a1, ar=ar)


def residual_bound(cp: CompanionPencil, z: complex, lhs_eigs: np.ndarray) -> float:
    """Upper bound on ||(I - z a1) X - I||_2 for the sample X that resolvent
    forms at z on a Hermitian pencil, lhs_eigs = 1 - z lam as computed there.

    With EighError (e, f, lam_max, q_fro2, gamma) = cp.eigh_error, s = |z|,
    a = lam_max and g = max_k 1/|1 - z lam_k|, the exact X = Q diag(d) Q^H
    (d_k = 1/(1 - z lam_k)) leaves the residual
    (QQ^H - I) - z Q diag(lam) (Q^H Q - I) diag(d) Q^H - z E Q diag(d) Q^H,
    E = a1 - Q diag(lam) Q^H, whose norm is at most f + s (1 + f)(a f + e) g
    (Higham 2002, normwise backward error).  Rounding adds (1 + f) gamma
    (1 + s a g) for the computed 1 - z lam_k and (1 + s((1 + f) a + e)) gamma
    q_fro2 g, ||I - z a1||_2 times the bound gamma |Q| diag(|d|) |Q^H| on
    forming X.  NaN when an input is not finite.
    """
    e, f, a, q_fro2, gamma = cp.eigh_error
    s, g = abs(z), 1.0 / float(np.min(np.abs(lhs_eigs)))
    return (f + (1 + f) * (gamma * (1 + s * a * g) + s * g * (a * f + e))
            + (1 + s * ((1 + f) * a + e)) * gamma * q_fro2 * g)


def resolvent(cp: CompanionPencil, z: complex, coordinates: bool = False) -> np.ndarray:
    """(I - z*a1)^{-1}, checked against r = CUTOFFS["residual"].

    Two kernels, chosen by the pencil.  When cp.hermitian_basis holds
    (lam, Q, Q^H), the check costs O(n): an exact zero 1 - z lam raises
    SingularAt(z), and so does residual_bound(cp, z, 1 - z lam) above r or
    not finite.  That bound is an upper bound on the residual
    ||(I - z a1) X - I||_2 of the X returned, so it never accepts a node the
    measured residual would refuse, and no n x n residual is formed.  The
    sample is X = (Q diag(1/(1 - z lam))) Q^H, one product, or, with
    coordinates=True (contour_coefficients' integrand), just the vector
    1/(1 - z lam) of its eigen-coordinates, O(n) in all.

    Otherwise X is one LAPACK gesv against the identity right-hand side
    (``np.linalg.inv``), the same factorization and the same bits as
    ``np.linalg.solve(I - z*a1, I)``, a singular solve raises SingularAt(z),
    and the residual R = (I - z a1) X - I is measured in the spectral norm.
    The O(n^2) squared Frobenius norm screens first, compared with r
    squared: it bounds ||R||_2 from above, so sum |R_ij|^2 <= r^2 accepts
    without an SVD.  A non-finite screen (z a1 may overflow) raises
    SingularAt(z), and any other R gets the exact spectral-norm test.
    coordinates=True on this kernel is a ValueError.
    """
    basis = cp.hermitian_basis
    if basis is not None:
        lam, q, qh = basis
        lhs_eigs = 1.0 - z * lam
        if not (lhs_eigs.all() and residual_bound(cp, z, lhs_eigs) <= CUTOFFS["residual"]):
            raise SingularAt(z)
        return 1.0 / lhs_eigs if coordinates else (q / lhs_eigs) @ qh
    if coordinates:
        raise ValueError("eigen-coordinates need a Hermitian pencil")
    lhs = z * cp.a1
    np.subtract(cp.identity(), lhs, out=lhs)
    try:
        out = np.linalg.inv(lhs)
    except np.linalg.LinAlgError as exc:
        raise SingularAt(z) from exc
    res = lhs @ out
    res -= cp.identity()
    cut = CUTOFFS["residual"]  # read once per node: the screen builds no Decision
    screen = np.vdot(res, res).real
    if not (screen <= cut * cut
            or np.isfinite(screen) and within("residual", operator_norm(res)).holds):
        raise SingularAt(z)
    return out


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of the companion operator and of the pencil.

    pencil_spectrum collects 1/lambda over the nonzero eigenvalues of the
    companion operator (the points where I - z a1 is singular).
    unit_root_ok is true iff the unit cluster lies within the "cluster
    scatter" cut-off of 1 and nothing else is in the closed disk of radius
    1 + eta ("isolation").  nearest_other is the distance from 1 to the
    closest other spectrum point (inf when none) -- used to pick contour radii.
    ascent is the size of the largest Jordan block at 1, read off the same
    kernel chain as the multiplicity (not part of to_json).
    """

    eigenvalues: np.ndarray
    pencil_spectrum: np.ndarray
    unit_root_ok: bool
    unit_root_present: bool
    nearest_other: float
    ascent: int

    def to_json(self) -> dict:
        return {
            "eigenvalues": [[float(v.real), float(v.imag)] for v in self.eigenvalues],
            "pencil_spectrum": [[float(v.real), float(v.imag)] for v in self.pencil_spectrum],
            "eta": CUTOFFS["isolation"],
            "unit_root_ok": self.unit_root_ok,
            "unit_root_present": self.unit_root_present,
            "nearest_other": self.nearest_other if np.isfinite(self.nearest_other) else None,
        }


def spectrum_report(cp: CompanionPencil) -> SpectrumReport:
    """Spectrum of the pencil from the eigenvalues of the companion operator.

    Finite dimensions give the exact reciprocal relationship between
    companion eigenvalues and pencil singular points; a zero-scan of
    det A(z) is kept only as a test oracle.  The kernel chain at 1 is
    cp.kernel_chain and the eigenvalues are cp.eigenvalues, so a repeat
    report on one pencil takes no SVD and no eigvals.
    """
    eigs = cp.eigenvalues
    nonzero = eigs[np.abs(eigs) > CUTOFFS["rank"]]  # a zero eigenvalue has no pencil root
    roots = np.sort_complex(1.0 / nonzero)

    # Eigenvalues of a defective unit root scatter like eps**(1/k) around 1
    # (k the largest Jordan block), far beyond any honest merge radius, so
    # membership in the unit cluster is decided by rank instead: the
    # algebraic multiplicity at 1 ends the kernel chain of (I - B), and
    # that many nearest eigenvalues form the cluster.
    chain = cp.kernel_chain
    multiplicity = chain[-1]

    order = np.argsort(np.abs(roots - 1.0), kind="stable")
    cluster_count = min(multiplicity, roots.size)
    cluster = roots[order[:cluster_count]]
    others = roots[order[cluster_count:]]
    scatter = float(np.max(np.abs(cluster - 1.0))) if cluster.size else 0.0
    inside = others[np.abs(others) <= 1.0 + CUTOFFS["isolation"]] if others.size else others
    nearest = float(np.min(np.abs(others - 1.0))) if others.size else float("inf")
    present = multiplicity > 0
    ok = present and inside.size == 0 and within("cluster scatter", scatter).holds
    return SpectrumReport(
        eigenvalues=eigs,
        pencil_spectrum=roots,
        unit_root_ok=bool(ok),
        unit_root_present=bool(present),
        nearest_other=nearest,
        ascent=len(chain) - 1,
    )
