"""Berry-phase line integrals along paths of symplectic matrices.

A differentiable path t -> M(t) in Sp(2n, R) drags a Gaussian state around;
the accumulated geometric phase is the line integral of the connection

    -(1 / 4 hbar) Tr[diag(l^2, hbar^2 / l^2) M^T Omega dM/dt]

over t in [0, 1]. This module provides the path container, sampled in
stacks with analytic or finite-difference tangents, the integral directly
and split into covariance and metaplectic-winding parts, a reduced form
for paths whose upper-right block vanishes, the exact sum over a geodesic
polygon through given knots, and an invariance check under constant left
translations (classical canonical transformations leave the phase alone).

The integrands are evaluated over stacks of path samples, one quadrature
call (a G7K15 panel or a split into two panels) at a time.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Sequence

import numpy as np

from ._quadrature import adaptive_gauss_kronrod, fixed_gauss_kronrod
from .gaussian_states import OscParams, _check_modes, _covariance_stack, _metric_diag, _vacuum_frame
from .symplectic_core import (
    DEFAULT_TOL_SYMP,
    GROUPED,
    SympMatrix,
    _group_gates,
    _omega_cached,
    _passes_group_check,
    _real_array,
    omega,
)

__all__ = [
    "ADAPTIVE",
    "FIXED",
    "NonFiniteIntegrand",
    "NotBZeroForm",
    "QuadSpec",
    "PhaseResult",
    "SympPath",
    "connection_integrand",
    "integrate_phase",
    "integrate_phase_boundary_form",
    "phase_b_zero",
    "polygon_phase",
    "check_canonical_invariance",
]

ADAPTIVE = "adaptive"
FIXED = "fixed"

# construction-time sample points for path validation
_PARAM_SAMPLES = (0.0, 0.25, 0.5, 0.75, 1.0)
_CLOSURE_TOL = 1e-10
_FD_STEP_FACTOR = 1e-6
_B_ZERO_TOL = 1e-12
_INV_TRANSPOSE_TOL = 1e-10


class NonFiniteIntegrand(ValueError):
    """A path sample or tangent produced a non-finite connection value."""


class NotBZeroForm(ValueError):
    """The path leaves the zero-upper-right-block family."""


@dataclasses.dataclass(frozen=True)
class QuadSpec:
    """Quadrature choice: adaptive refinement or a fixed composite rule."""

    kind: str = ADAPTIVE
    tol: float = 1e-10
    max_evals: int = 10**6
    panels: int = 64

    def __post_init__(self) -> None:
        if self.kind not in (ADAPTIVE, FIXED):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if not isinstance(self.max_evals, (int, np.integer)) or self.max_evals < 15:
            raise ValueError(f"budget must be an integer >= 15 (one panel), got {self.max_evals!r}")
        if not isinstance(self.panels, (int, np.integer)) or self.panels < 1:
            raise ValueError(f"panel count must be an integer >= 1, got {self.panels!r}")


_DEFAULT_QUAD = QuadSpec()  # frozen, so every caller can share it


@dataclasses.dataclass(frozen=True)
class PhaseResult:
    """Integrated phase in radians with the quadrature's own error estimate.

    error_estimate is the sum over panels of |K15 - G7|, the disagreement of
    the two Gauss-Kronrod rules on the sampled integrand, and nothing else.
    It does not cover finite-difference tangents or symplectic drift of the
    path. On a path that converges in one panel (the squeeze circles, whose
    integrand is constant) it is rounding noise: 0 to about 6e-14, changing
    with the summation order of the same node values. On finite-difference
    paths it under-reports the true error: it reads 5.1e-12 against an
    actual 3.1e-10 (60x) on a reparametrized circle. polygon_phase uses no
    quadrature; its error_estimate bounds the rounding of its finite sum.
    """

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError("phase value must be finite")
        if not self.error_estimate >= 0:
            raise ValueError("error estimate must be nonnegative")


@dataclasses.dataclass(frozen=True)
class SympPath:
    """Path t in [0, 1] -> M(t) in Sp(2n, R), grouped ordering.

    eval_batch and tangent_batch, given together, map a 1-D array of k
    parameters to (k, 2n, 2n) stacks of M(t) and dM/dt. A path given per point
    instead, by eval (t -> SympMatrix) and an optional tangent, is adapted to
    that pair at construction; without a tangent, dM/dt is a second-order
    finite difference with step 1e-6 * max(1, |M(0)|_max), one-sided within a
    step of either end. sample() checks every stacked matrix as SympMatrix
    does. Construction checks five samples, and closure when closed, the
    flag's only effect. eval(t) and derivative(t) are one-point views.
    """

    n: int
    eval: Callable[[float], SympMatrix] | None = None
    tangent: Callable[[float], np.ndarray] | None = None
    closed: bool = False
    eval_batch: Callable[[np.ndarray], np.ndarray] | None = None
    tangent_batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if (self.eval_batch is None) != (self.tangent_batch is None):
            raise ValueError("eval_batch and tangent_batch must be given together")
        n, eval_point, eval_batch = self.n, self.eval, self.eval_batch
        if eval_batch is None:
            if eval_point is None:
                raise TypeError("a path needs eval or eval_batch")
            eval_batch = lambda ts: np.array([_point_data(eval_point(t), t, n) for t in ts])
            object.__setattr__(self, "eval_batch", eval_batch)
        elif eval_point is None:
            object.__setattr__(self, "eval", lambda t: SympMatrix(n, eval_batch(np.array([t]))[0]))
        samples = self._matrices(np.array(_PARAM_SAMPLES), omega)  # omega validates n, once
        if self.closed:
            gap = float(np.max(np.abs(samples[-1] - samples[0])))
            if gap > _CLOSURE_TOL:
                raise ValueError(f"closed path fails closure: |M(1) - M(0)|_max = {gap:.3e}")
        if self.tangent_batch is None:
            if self.tangent is None:
                h = _FD_STEP_FACTOR * max(1.0, float(np.max(np.abs(samples[0]))))
                tangent_batch = functools.partial(_fd_tangents, eval_batch, n, h)
            else:
                tangent = self.tangent
                tangent_batch = lambda ts: np.array([tangent(t) for t in ts])
            object.__setattr__(self, "tangent_batch", tangent_batch)

    def _matrices(self, ts: np.ndarray, form_of: Callable = _omega_cached) -> np.ndarray:
        """eval_batch(ts), with every stacked matrix checked like a SympMatrix.

        A passing stack costs one residual reduction; the finiteness check and the
        per-node gates that name the first bad t run only on failure.
        """
        Ms = _stack(self.eval_batch(ts), ts, self.n, "eval_batch")
        form = form_of(self.n)
        if not _passes_group_check(Ms, form, DEFAULT_TOL_SYMP):
            if not np.isfinite(Ms).all():
                bad = ~np.isfinite(Ms).all(axis=(1, 2))
                raise NonFiniteIntegrand(f"path sample is non-finite at t={ts[np.argmax(bad)]}")
            resid, det, passed = _group_gates(Ms, form, DEFAULT_TOL_SYMP)
            if not passed.all():
                i = int(np.argmax(~passed))
                raise ValueError(
                    f"sample at t={ts[i]} fails the symplectic condition: residual "
                    f"{resid[i]:.3e}, determinant {float(det[i])!r}"
                )
        return Ms

    def sample(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """(Ms, dMs), each (k, 2n, 2n): checked path matrices and tangents at the 1-D ts."""
        ts = np.asarray(ts, dtype=float)
        return self._matrices(ts), _stack(self.tangent_batch(ts), ts, self.n, "tangent_batch")

    def derivative(self, t: float) -> np.ndarray:
        """dM/dt at t."""
        ts = np.array([t], dtype=float)
        return _stack(self.tangent_batch(ts), ts, self.n, "tangent_batch")[0]


def _point_data(M, t: float, n: int) -> np.ndarray:
    """M.data for a per-point eval(t), checking what a stack cannot show."""
    if not isinstance(M, SympMatrix):
        raise TypeError(f"eval({t}) returned {type(M).__name__}, not SympMatrix")
    if M.n != n:
        raise ValueError(f"eval({t}) has {M.n} modes, path declares {n}")
    if M.ordering != GROUPED:
        raise ValueError("paths require grouped ordering")
    return M.data


def _fd_tangents(eval_batch: Callable, n: int, h: float, ts: np.ndarray) -> np.ndarray:
    """Second-order differences of eval_batch with step h: central, or the
    three-point one-sided rule within h of an end (mirrored by s = -1 at t = 1)."""
    lo = ts < h
    hi = ~lo & (ts > 1.0 - h)
    mid = ~(lo | hi)
    dMs = np.empty((ts.size, 2 * n, 2 * n))
    if mid.any():
        dMs[mid] = (eval_batch(ts[mid] + h) - eval_batch(ts[mid] - h)) / (2.0 * h)
    for end, s in ((lo, 1.0), (hi, -1.0)):
        if end.any():
            m0, m1, m2 = (eval_batch(ts[end] + s * k * h) for k in range(3))
            dMs[end] = (-3.0 * s * m0 + 4.0 * s * m1 - s * m2) / (2.0 * h)
    return dMs


def _stack(values, ts: np.ndarray, n: int, source: str) -> np.ndarray:
    """values as a real float array of shape (len(ts), 2n, 2n), or ValueError."""
    arr = _real_array(values, source, copy=False)
    expected = (ts.size, 2 * n, 2 * n)
    if arr.shape != expected:
        raise ValueError(f"{source} returned shape {arr.shape}, expected {expected}")
    return arr


def _connection_values(Ms: np.ndarray, dMs: np.ndarray, p: OscParams) -> np.ndarray:
    """-(1 / 4 hbar) Tr[diag(l^2, hbar^2 / l^2) M^T Omega dM] for each stacked pair."""
    # diagonal of M^T (Omega dM): sum over j of M_ji (Omega dM)_ji
    core = np.einsum("kji,kji->ki", Ms, _omega_cached(p.n) @ dMs)
    return -(0.25 / p.hbar) * (core @ _metric_diag(p))


def connection_integrand(M: SympMatrix, dM: np.ndarray, p: OscParams) -> float:
    """Berry connection paired with a tangent:
    -(1 / 4 hbar) Tr[diag(l^2, hbar^2 / l^2) M^T Omega dM]."""
    dM = np.asarray(dM, dtype=float)
    if dM.shape != M.data.shape:
        raise ValueError(f"tangent shape {dM.shape} does not match {M.data.shape}")
    _check_modes(M.n, p)
    return float(_connection_values(M.data[None], dM[None], p)[0])


def polygon_phase(knots: Sequence[SympMatrix], p: OscParams) -> PhaseResult:
    """Phase of the geodesic polygon through the knots, as an exact finite sum.

    Segment i is M_i expm(s X_i), s in [0, 1], X_i = log(M_i^{-1} M_{i+1}). Its
    tangent is M X_i and M^T Omega M = Omega, so its connection is constant:
    the value at the identity paired with X_i. One logm per segment and no
    quadrature; evaluations counts the segments, and error_estimate bounds
    the rounding of the sum, segments * eps * sum |term_i|. A logarithm with
    an imaginary part above 1e-8 (knots too far apart) raises ValueError.
    """
    import scipy.linalg

    if len(knots) < 2:
        raise ValueError(f"a polygon needs at least two knots, got {len(knots)}")
    n = knots[0].n
    _check_modes(n, p)
    if any(M.n != n or M.ordering != GROUPED for M in knots):
        raise ValueError("knots must share the mode count and use grouped ordering")
    logs = np.empty((len(knots) - 1, 2 * n, 2 * n))
    for i in range(len(logs)):
        log = scipy.linalg.logm(np.linalg.solve(knots[i].data, knots[i + 1].data))
        if np.max(np.abs(np.imag(log))) > 1e-8:
            raise ValueError(
                f"segment {i}: matrix logarithm is not real; samples are too "
                f"far apart or leave the real group"
            )
        logs[i] = np.real(log)
    terms = _connection_values(np.broadcast_to(np.eye(2 * n), logs.shape), logs, p)
    error = len(terms) * np.finfo(float).eps * float(np.sum(np.abs(terms)))
    return PhaseResult(value=float(np.sum(terms)), error_estimate=error, evaluations=len(terms))


def _integrate(
    path: SympPath, p: OscParams, quad: QuadSpec | None, kernel: Callable
) -> PhaseResult:
    """Every phase integral runs here: kernel(Ms, dMs, ts) integrated over [0, 1].

    The engines are looked up in this module's namespace at each call, so a
    wrapper installed there sees every engine call and its integrand nodes.
    """
    quad = _DEFAULT_QUAD if quad is None else quad
    _check_modes(path.n, p)

    def f(ts: np.ndarray) -> np.ndarray:
        values = kernel(*path.sample(ts), ts)
        if not np.isfinite(values).all():
            bad = ts[np.argmax(~np.isfinite(values))]
            raise NonFiniteIntegrand(f"integrand is non-finite at t={bad}")
        return values

    if quad.kind == ADAPTIVE:
        value, error, evals = adaptive_gauss_kronrod(f, 0.0, 1.0, tol=quad.tol, max_evals=quad.max_evals)
    else:
        value, error, evals = fixed_gauss_kronrod(f, 0.0, 1.0, panels=quad.panels)
    return PhaseResult(value=value, error_estimate=error, evaluations=evals)


def integrate_phase(
    path: SympPath, p: OscParams, quad: QuadSpec | None = None
) -> PhaseResult:
    """Geometric phase of the path: the connection integrated over [0, 1]."""
    return _integrate(path, p, quad, lambda Ms, dMs, ts: _connection_values(Ms, dMs, p))


def _covariance_values(Ms: np.ndarray, dMs: np.ndarray, p: OscParams) -> np.ndarray:
    """-(1 / 2 hbar) Tr[V_xx d(V_px V_xx^-1)], as (Tr[V_xx^-1 dV_xx V_px] - Tr dV_px) / 2 hbar."""
    n = p.n
    V = _covariance_stack(Ms, p)
    half = 0.5 * dMs @ (Ms * _metric_diag(p)).transpose(0, 2, 1)
    dV = half + half.transpose(0, 2, 1)  # (dM W M^T + M W dM^T) / 2, the derivative along dM
    moved = np.linalg.solve(V[:, :n, :n], dV[:, :n, :n] @ V[:, n:, :n])  # V_xx > 0
    return (0.5 / p.hbar) * np.trace(moved - dV[:, n:, :n], axis1=1, axis2=2)


def _winding_values(Ms: np.ndarray, dMs: np.ndarray, p: OscParams) -> np.ndarray:
    """(1/2) Im Tr[(A + B Z0)^-1 (dA + dB Z0)], Z0 = i hbar diag(1 / l^2): the rate of
    (1/2) arg det(A + B Z0), whose matrix is invertible for every symplectic M."""
    n = p.n
    F, dF = (_vacuum_frame(X, p)[:, :n] for X in (Ms, dMs))
    return 0.5 * np.trace(np.linalg.solve(F, dF), axis1=1, axis2=2).imag


def integrate_phase_boundary_form(
    path: SympPath, p: OscParams, quad: QuadSpec | None = None
) -> PhaseResult:
    """Phase as the covariance connection plus the metaplectic winding (NOTES.md).

    The first term sees only the covariance; the second, from the factor
    det(A + B Z0)^(-1/2), is (1/2) d arg det(A + B Z0), integrated so its branch
    is followed. With no arithmetic shared, the sum equals integrate_phase on
    every path; on an open one both return the integral, with no closing term.
    """
    kernel = lambda Ms, dMs, ts: _covariance_values(Ms, dMs, p) + _winding_values(Ms, dMs, p)
    return _integrate(path, p, quad, kernel)


def phase_b_zero(
    path: SympPath, p: OscParams, quad: QuadSpec | None = None
) -> PhaseResult:
    """Phase for paths with vanishing upper-right block.

    Such matrices have D = A^{-T} and the connection collapses to
    -(1 / 4 hbar) Tr[diag(l^2) (A^T dC - C^T dA)]. Every evaluated sample is
    checked against the block form; NotBZeroForm reports a violation.
    """
    n = path.n
    l2 = _metric_diag(p)[:n]

    def kernel(Ms: np.ndarray, dMs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        A, B, C, D = Ms[:, :n, :n], Ms[:, :n, n:], Ms[:, n:, :n], Ms[:, n:, n:]
        b_max = np.max(np.abs(B), axis=(1, 2))
        if np.any(b_max > _B_ZERO_TOL):
            i = int(np.argmax(b_max > _B_ZERO_TOL))
            raise NotBZeroForm(f"upper-right block reaches {b_max[i]:.3e} at t={ts[i]}")
        d_resid = np.max(np.abs(D - np.linalg.inv(A).transpose(0, 2, 1)), axis=(1, 2))
        if np.any(d_resid > _INV_TRANSPOSE_TOL):
            i = int(np.argmax(d_resid > _INV_TRANSPOSE_TOL))
            raise NotBZeroForm(
                f"lower-right block deviates from inverse-transpose form by "
                f"{d_resid[i]:.3e} at t={ts[i]}"
            )
        dA, dC = dMs[:, :n, :n], dMs[:, n:, :n]
        # diagonal of A^T dC - C^T dA
        core = np.einsum("kji,kji->ki", A, dC) - np.einsum("kji,kji->ki", C, dA)
        return -(0.25 / p.hbar) * (core @ l2)

    return _integrate(path, p, quad, kernel)


def check_canonical_invariance(
    path: SympPath,
    fixedM: SympMatrix,
    p: OscParams,
    quad: QuadSpec | None = None,
) -> tuple[float, float, float]:
    """Phase before and after left translation by a constant symplectic matrix.

    Returns (original, translated, |difference|). The connection only sees
    M^T Omega dM, which the translation leaves fixed, so the difference is
    pure quadrature noise. The translated path is sampled stack by stack.
    """
    if fixedM.n != path.n:
        raise ValueError(f"translation has {fixedM.n} modes, path has {path.n}")
    if fixedM.ordering != GROUPED:
        raise ValueError("translation must use grouped ordering")
    base = integrate_phase(path, p, quad)
    S = fixedM.data
    moved = SympPath(
        n=path.n,
        closed=path.closed,
        eval_batch=lambda ts: S @ path.eval_batch(ts),
        tangent_batch=lambda ts: S @ path.tangent_batch(ts),
    )
    translated = integrate_phase(moved, p, quad)
    return base.value, translated.value, abs(translated.value - base.value)
