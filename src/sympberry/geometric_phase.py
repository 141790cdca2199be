"""Berry-phase line integrals along paths of symplectic matrices.

A differentiable path t -> M(t) in Sp(2n, R) drags a Gaussian state around;
the accumulated geometric phase is the line integral of the connection

    -(1 / 4 hbar) Tr[diag(l^2, hbar^2 / l^2) M^T Omega dM/dt]

over t in [0, 1]: -(1/4) Tr[M'^T Omega dM'] for M' = D^-1 M D, D = diag(l, hbar / l)
(NOTES.md). So the kernels work at hbar = l = 1 on stacks converted once by
gaussian_states._unit_conversion. This module provides the path container, sampled in
stacks with analytic or finite-difference tangents (spectral ones on a closed
loop's trapezoid grid), the integral directly
and split into covariance and metaplectic-winding parts, a reduced form
for paths whose upper-right block vanishes, the exact sum over a geodesic
polygon through given knots, and an invariance check under constant left
translations (classical canonical transformations leave the phase alone).

The integrands are evaluated over stacks of path samples, one quadrature
call (a G7K15 panel, a split into two panels, or a trapezoid level) at a time.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from ._quadrature import (
    NonFiniteIntegrand, QuadratureBudgetExceeded, adaptive_gauss_kronrod, periodic_trapezoid,
)
from .gaussian_states import OscParams, _check_modes, _covariance_stack, _unit_conversion, _vacuum_frame
from .symplectic_core import (
    DEFAULT_TOL_SYMP,
    SympMatrix,
    _group_failure,
    _is_integer,
    _mode_count,
    _omega_cached,
    _real_array,
)

__all__ = [
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

# construction-time sample points for path validation, shared read-only
_PARAM_SAMPLES = np.array((0.0, 0.25, 0.5, 0.75, 1.0))
_PARAM_SAMPLES.setflags(write=False)
_CLOSURE_TOL = 1e-10
_FD_STEP_FACTOR = 1e-6
# the trapezoid budget of a closed path without a tangent, one evaluation per node and
# the tangent spectral, before G7K15 takes over with the stencil
_PERIODIC_NODES = 256
_B_ZERO_TOL = 1e-12
_INV_TRANSPOSE_TOL = 1e-10


class NotBZeroForm(ValueError):
    """The path leaves the zero-upper-right-block family."""


@dataclasses.dataclass(frozen=True)
class QuadSpec:
    """Quadrature settings, shared by both rules: error tolerance and evaluation budget."""

    tol: float = 1e-10
    max_evals: int = 10**6

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol!r}")
        if self.tol == math.inf:
            raise ValueError(f"tolerance must be finite, got {self.tol!r}")
        if not _is_integer(self.max_evals) or self.max_evals < 15:
            raise ValueError(f"budget must be an integer >= 15 (one panel), got {self.max_evals!r}")


_DEFAULT_QUAD = QuadSpec()  # frozen, so every caller can share it


@dataclasses.dataclass(frozen=True)
class PhaseResult:
    """Integrated phase in radians with the quadrature's own error estimate.

    error_estimate is the rule's own estimate and nothing else: from G7K15
    the sum over panels of |K15 - G7|, the disagreement of the two
    Gauss-Kronrod rules on the sampled integrand; on a closed path without a
    tangent, which the periodic trapezoid integrates on the spectral
    derivative of its samples, the aliasing error that the spectrum of the
    integrand extrapolates. It does not cover finite-difference tangents or
    symplectic drift of the path. On a path that converges in one panel (the
    squeeze circles, whose integrand is constant) it is rounding noise: 0 to
    about 6e-14, changing with the summation order of the same node values.
    On an open path without a tangent it under-reports the true error, which
    the stencil's bias sets: on a reparametrized R = 1 circle left open,
    G7K15 reads 5.5e-12 against an actual 2.2e-10 (40x). Closed, the same
    circle reads 5.1e-15 on the trapezoid, where the error is 0.0.
    polygon_phase uses no quadrature; its error_estimate bounds the rounding
    of its finite sum.
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

    The path is sampled in stacks: eval_batch and tangent_batch map a 1-D
    array of k parameters to (k, 2n, 2n) stacks of M(t) and dM/dt. Either
    may be given per point instead, as eval (t -> SympMatrix) or tangent, not
    both ways, and is adapted to its stack at construction: any evaluator goes
    with any tangent, or with none. A path without a tangent, stacked or per
    point, gets the two-point stencil. With h = 1e-6 * max(1, |M(0)|_max), a node t
    is evaluated at t + h/2 and t - h/2 only: its matrix is their mean and
    dM/dt their difference over h, both O(h^2) from M(t) and M'(t)
    (NOTES.md). A node within h/2 of either end takes M(t) and the one-sided
    three-point difference with step h. sample() takes a non-empty 1-D ts and
    checks every evaluated stack (both stencil stacks, never the mean) as
    SympMatrix does. Construction checks five samples, and closure when
    closed. A closed path without a tangent is integrated by the periodic
    trapezoid first, which evaluates it once per node and differentiates its
    samples spectrally (_integrate); the stencil serves sample(), open paths
    and the G7K15 hand-off. eval(t) and derivative(t) are one-point views.
    """

    n: int
    eval: Callable[[float], SympMatrix] | None = None
    tangent: Callable[[float], np.ndarray] | None = None
    closed: bool = False
    eval_batch: Callable[[np.ndarray], np.ndarray] | None = None
    tangent_batch: Callable[[np.ndarray], np.ndarray] | None = None
    _fd_step = None  # not a field: h, set on a path built without a tangent

    def __post_init__(self) -> None:
        for point, batch in (("eval", "eval_batch"), ("tangent", "tangent_batch")):
            if getattr(self, point) is not None and getattr(self, batch) is not None:
                raise TypeError(f"a path takes {point} or {batch}, not both")
        n, eval_point, eval_batch = _mode_count(self.n), self.eval, self.eval_batch
        if eval_batch is None:
            if eval_point is None:
                raise TypeError("a path needs eval or eval_batch")
            eval_batch = lambda ts: np.array([_point_data(eval_point(t), t, n) for t in ts])
            object.__setattr__(self, "eval_batch", eval_batch)
        elif eval_point is None:
            object.__setattr__(self, "eval", lambda t: SympMatrix(n, eval_batch(np.array([t]))[0]))
        samples = self._matrices(_PARAM_SAMPLES)
        if self.closed:
            gap = float(abs(samples[-1] - samples[0]).max())
            if gap > _CLOSURE_TOL:
                raise ValueError(f"closed path fails closure: |M(1) - M(0)|_max = {gap:.3e}")
        if self.tangent_batch is None:
            if self.tangent is None:
                h = _FD_STEP_FACTOR * max(1.0, float(abs(samples[0]).max()))
                object.__setattr__(self, "_fd_step", h)
                tangent_batch = lambda ts: self.sample(ts)[1]
            else:
                tangent = self.tangent
                tangent_batch = lambda ts: np.array([tangent(t) for t in ts])
            object.__setattr__(self, "tangent_batch", tangent_batch)

    def _matrices(self, ts: np.ndarray, check: Callable | None = None) -> np.ndarray:
        """eval_batch(ts), checked by _check_group and then by check(stack, ts) if given."""
        Ms = _stack(self.eval_batch(ts), ts, self.n, "eval_batch")
        _check_group(Ms, ts, _omega_cached(self.n))
        if check is not None:
            check(Ms, ts)
        return Ms

    def sample(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """(Ms, dMs), each (k, 2n, 2n): path matrices and tangents at the 1-D ts."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1 or not ts.size:
            raise ValueError(f"ts must be a non-empty 1-D array, got shape {ts.shape}")
        return self._sample(ts)

    def _sample(self, ts: np.ndarray, check: Callable | None = None) -> tuple[np.ndarray, np.ndarray]:
        """sample(ts), every evaluated stack checked by _matrices (and check)."""
        h = self._fd_step
        if h is None:
            Ms = self._matrices(ts, check=check)
            return Ms, _stack(self.tangent_batch(ts), ts, self.n, "tangent_batch")
        end = (ts < 0.5 * h) | (ts > 1.0 - 0.5 * h)
        mid, te = ts[~end], ts[end]
        step = np.where(te < 0.5, h, -h)  # forward from t = 0, backward from t = 1
        pts = np.concatenate((mid + 0.5 * h, mid - 0.5 * h, te, te + step, te + 2.0 * step))
        sizes = np.cumsum((mid.size, mid.size, te.size, te.size))
        plus, minus, m0, m1, m2 = np.split(self._matrices(pts, check=check), sizes)
        Ms, dMs = np.empty((2, ts.size, 2 * self.n, 2 * self.n))
        Ms[~end], dMs[~end] = 0.5 * (plus + minus), (plus - minus) / h
        Ms[end], dMs[end] = m0, (-3.0 * m0 + 4.0 * m1 - m2) / (2.0 * step[:, None, None])
        return Ms, dMs

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
    return M.data


def _check_group(Ms: np.ndarray, ts: np.ndarray, form: np.ndarray) -> None:
    """Check every stacked matrix with SympMatrix's group check; a failure names the
    first non-finite t, or else the first failing t with its residual and determinant."""
    failure = _group_failure(Ms, form, DEFAULT_TOL_SYMP)
    if failure is not None:
        if not np.isfinite(Ms).all():
            bad = ~np.isfinite(Ms).all(axis=(1, 2))
            raise NonFiniteIntegrand(f"path sample is non-finite at t={ts[np.argmax(bad)]}")
        i, resid, det = failure
        raise ValueError(
            f"sample at t={ts[i]} fails the symplectic condition: residual "
            f"{resid:.3e}, determinant {float(det)!r}"
        )


def _stack(values, ts: np.ndarray, n: int, source: str) -> np.ndarray:
    """values as a real float array of shape (len(ts), 2n, 2n), or ValueError."""
    arr = _real_array(values, source, copy=False)
    expected = (ts.size, 2 * n, 2 * n)
    if arr.shape != expected:
        raise ValueError(f"{source} returned shape {arr.shape}, expected {expected}")
    return arr


def _connection_values(Ms: np.ndarray, dMs: np.ndarray) -> np.ndarray:
    """-(1/4) Tr[M^T Omega dM] for each stacked unit pair."""
    # diagonal of M^T (Omega dM): sum over j of M_ji (Omega dM)_ji
    core = np.einsum("kji,kji->ki", Ms, _omega_cached(Ms.shape[-1] // 2) @ dMs)
    return -0.25 * (core @ np.ones(core.shape[1]))  # a BLAS dot: np.sum adds in another order


def connection_integrand(M: SympMatrix, dM: np.ndarray, p: OscParams) -> float:
    """Berry connection paired with a tangent:
    -(1 / 4 hbar) Tr[diag(l^2, hbar^2 / l^2) M^T Omega dM]."""
    dM = np.asarray(dM, dtype=float)
    if dM.shape != M.data.shape:
        raise ValueError(f"tangent shape {dM.shape} does not match {M.data.shape}")
    _check_modes(M.n, p)
    q = _unit_conversion(p)
    return float(_connection_values(M.data[None] / q, dM[None] / q)[0])


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
    if any(M.n != n for M in knots):
        raise ValueError("knots must share the mode count")
    logs = np.empty((len(knots) - 1, 2 * n, 2 * n))
    for i in range(len(logs)):
        log = scipy.linalg.logm(np.linalg.solve(knots[i].data, knots[i + 1].data))
        if np.max(np.abs(np.imag(log))) > 1e-8:
            raise ValueError(
                f"segment {i}: matrix logarithm is not real; samples are too "
                f"far apart or leave the real group"
            )
        logs[i] = np.real(log)
    # log(D^-1 X D) = D^-1 log(X) D: each segment's generator converts like a matrix
    terms = _connection_values(np.broadcast_to(np.eye(2 * n), logs.shape), logs / _unit_conversion(p))
    error = len(terms) * np.finfo(float).eps * float(np.sum(np.abs(terms)))
    return PhaseResult(value=float(np.sum(terms)), error_estimate=error, evaluations=len(terms))


def _spectral_tangents(Ms: np.ndarray) -> np.ndarray:
    """dM/dt of a 1-periodic path from its samples on a uniform grid of an even number N of
    t, stacked along axis 0: the derivative of their trigonometric interpolant (NOTES.md).
    The Nyquist mode, whose derivative the samples cannot tell from zero, is dropped."""
    modes = np.fft.rfft(Ms, axis=0)
    modes *= 2j * np.pi * np.arange(modes.shape[0])[:, None, None]
    modes[-1] = 0.0
    return np.fft.irfft(modes, Ms.shape[0], axis=0)


def _integrate(
    path: SympPath, p: OscParams, quad: QuadSpec | None, kernel: Callable, check: Callable | None = None
) -> PhaseResult:
    """Every phase integral runs here: kernel(Ms, dMs) on each sampled pair at hbar = l = 1,
    integrated over [0, 1], with check(stack, ts) run on every evaluated physical stack if given.

    A closed path without a tangent is periodic, so it first takes the
    periodic trapezoid, on at most 256 nodes: one evaluation per node, with
    dM/dt the spectral derivative of the level's samples. One that fails to
    meet the tolerance there (a kink, or a steep reparametrization) and every
    other path take G7K15, on what is left of the budget, with the stencil
    where the path has no tangent. evaluations counts both.
    The engines are looked up in this module's namespace at each call, so a
    wrapper installed there sees every engine call and its integrand nodes.
    """
    quad = _DEFAULT_QUAD if quad is None else quad
    _check_modes(path.n, p)
    q = _unit_conversion(p)

    def f(ts: np.ndarray) -> np.ndarray:
        Ms, dMs = path._sample(ts, check)
        with np.errstate(over="ignore", invalid="ignore"):  # the engine reports non-finite values
            return kernel(Ms / q, dMs / q)

    spent = 0
    if path.closed and path._fd_step is not None:
        samples = lambda ts: path._matrices(ts, check) / q

        def grid_values(Ms: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):  # the engine reports non-finite values
                return kernel(Ms, _spectral_tangents(Ms))

        budget = min(quad.max_evals, _PERIODIC_NODES)
        try:
            return PhaseResult(*periodic_trapezoid(samples, quad.tol, budget, values=grid_values))
        except QuadratureBudgetExceeded as exc:
            if quad.max_evals - exc.evaluations < 15:  # not even one panel left
                raise
            spent = exc.evaluations
    try:
        value, error, evals = adaptive_gauss_kronrod(f, 0.0, 1.0, quad.tol, quad.max_evals - spent)
    except QuadratureBudgetExceeded as exc:
        raise QuadratureBudgetExceeded(spent + exc.evaluations, exc.tol, exc.error) from None
    return PhaseResult(value=value, error_estimate=error, evaluations=spent + evals)


def integrate_phase(path: SympPath, p: OscParams, quad: QuadSpec | None = None) -> PhaseResult:
    """Geometric phase of the path: the connection integrated over [0, 1]."""
    return _integrate(path, p, quad, _connection_values)


def _covariance_values(Ms: np.ndarray, dMs: np.ndarray) -> np.ndarray:
    """-(1/2) Tr[V_xx d(V_px V_xx^-1)] of unit pairs, as (Tr[V_xx^-1 dV_xx V_px] - Tr dV_px) / 2."""
    n = Ms.shape[-1] // 2
    V = _covariance_stack(Ms)
    half = 0.5 * dMs @ Ms.transpose(0, 2, 1)
    dV = half + half.transpose(0, 2, 1)  # (dM M^T + M dM^T) / 2, the derivative along dM
    moved = np.linalg.solve(V[:, :n, :n], dV[:, :n, :n] @ V[:, n:, :n])  # V_xx > 0
    return 0.5 * np.trace(moved - dV[:, n:, :n], axis1=1, axis2=2)


def _winding_values(Ms: np.ndarray, dMs: np.ndarray) -> np.ndarray:
    """(1/2) Im Tr[(A + i B)^-1 (dA + i dB)] of unit pairs: the rate of (1/2) arg det(A + i B),
    whose matrix is invertible for every symplectic M."""
    n = Ms.shape[-1] // 2
    F, dF = (_vacuum_frame(X)[:, :n] for X in (Ms, dMs))
    return 0.5 * np.trace(np.linalg.solve(F, dF), axis1=1, axis2=2).imag


def integrate_phase_boundary_form(
    path: SympPath, p: OscParams, quad: QuadSpec | None = None
) -> PhaseResult:
    """Phase as the covariance connection plus the metaplectic winding (NOTES.md).

    The first term sees only the covariance; the second, from the factor
    det(A + B Z0)^(-1/2), is (1/2) d arg det(A + B Z0), integrated so its branch
    is followed. Sharing only the unit conversion, the sum equals integrate_phase to
    rounding on every path with a tangent, and on a closed path without one,
    whose samples the periodic trapezoid differentiates spectrally; on an
    open path both return the integral, with no closing term. An open path
    without a tangent gives both the stencil mean, which is symplectic only
    to O(h^2), so they agree to the finite-difference error: 8.8e-11 on the
    reparametrized R = 1 circle left open.
    """
    kernel = lambda Ms, dMs: _covariance_values(Ms, dMs) + _winding_values(Ms, dMs)
    return _integrate(path, p, quad, kernel)


def phase_b_zero(path: SympPath, p: OscParams, quad: QuadSpec | None = None) -> PhaseResult:
    """Phase for paths with vanishing upper-right block.

    Such matrices have D = A^{-T} and the connection collapses to
    -(1 / 4 hbar) Tr[diag(l^2) (A^T dC - C^T dA)], which the kernel takes at
    hbar = l = 1 on the converted samples. Every evaluated sample is checked
    against the block form; NotBZeroForm reports a violation.
    """
    n = path.n

    def check(Ms: np.ndarray, ts: np.ndarray) -> None:
        A, B, D = Ms[:, :n, :n], Ms[:, :n, n:], Ms[:, n:, n:]
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

    def kernel(Ms: np.ndarray, dMs: np.ndarray) -> np.ndarray:
        A, C, dA, dC = Ms[:, :n, :n], Ms[:, n:, :n], dMs[:, :n, :n], dMs[:, n:, :n]
        # diagonal of A^T dC - C^T dA
        core = np.einsum("kji,kji->ki", A, dC) - np.einsum("kji,kji->ki", C, dA)
        return -0.25 * (core @ np.ones(n))

    return _integrate(path, p, quad, kernel, check)


def check_canonical_invariance(
    path: SympPath, fixedM: SympMatrix, p: OscParams, quad: QuadSpec | None = None
) -> tuple[float, float, float]:
    """Phase before and after left translation by a constant symplectic matrix.

    Returns (original, translated, |difference|). The connection only sees
    M^T Omega dM, which the translation leaves fixed, so the difference is
    rounding. The translate reads the path's own sample pairs times S, so a
    path without a tangent keeps its tangent: the spectral derivative of its
    trapezoid samples when closed, its stencil and step when open or handed
    off to G7K15.
    """
    if fixedM.n != path.n:
        raise ValueError(f"translation has {fixedM.n} modes, path has {path.n}")
    base = integrate_phase(path, p, quad)
    S, form = fixedM.data, _omega_cached(path.n)
    S_unit = S / _unit_conversion(p)  # D^-1 S M D = (D^-1 S D)(D^-1 M D)
    # S dM: a difference of translated samples would divide their rounding by the step
    kernel = lambda Ms, dMs: _connection_values(S_unit @ Ms, S_unit @ dMs)
    translated = _integrate(path, p, quad, kernel, lambda Ms, ts: _check_group(S @ Ms, ts, form))
    return base.value, translated.value, abs(translated.value - base.value)
