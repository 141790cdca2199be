"""Berry-phase line integrals along paths of symplectic matrices.

A differentiable path t -> M(t) in Sp(2n, R) drags a Gaussian state around;
the accumulated geometric phase is the line integral of the connection

    -(1 / 4 hbar) Tr[diag(l^2, hbar^2 / l^2) M^T Omega dM/dt]

over t in [0, 1]. This module provides the path container with finite
difference tangents and optional batch evaluation, the integral in its
direct and boundary-term forms, a reduced expression for paths whose
upper-right block vanishes, and an invariance check under constant left
translations (classical canonical transformations leave the phase alone).

The integrands are evaluated over stacks of path samples, one quadrature
call (a G7K15 panel or a split into two panels) at a time.
"""
from __future__ import annotations

import dataclasses
import warnings
from typing import Callable

import numpy as np

from ._quadrature import adaptive_gauss_kronrod, fixed_gauss_kronrod
from .gaussian_states import OscParams, covariance
from .symplectic_core import _DET_TOL, DEFAULT_TOL_SYMP, GROUPED, SympMatrix, omega

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
    "check_canonical_invariance",
]

ADAPTIVE = "adaptive"
FIXED = "fixed"

# construction-time sample points for path validation
_PARAM_SAMPLES = (0.0, 0.25, 0.5, 0.75, 1.0)
_SAMPLE_SYMP_TOL = 1e-9
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
        if self.max_evals < 15:
            raise ValueError("budget must allow at least one panel")
        if self.panels < 1:
            raise ValueError("panel count must be >= 1")


@dataclasses.dataclass(frozen=True)
class PhaseResult:
    """Integrated phase in radians with the quadrature's own error estimate.

    error_estimate is the sum over panels of |K15 - G7|, the disagreement of
    the two Gauss-Kronrod rules on the sampled integrand, and nothing else.
    It does not cover finite-difference tangents, interpolation between
    samples or symplectic drift of the path. On a path that converges in
    one panel (the squeeze circles, whose integrand is constant) it is
    rounding noise: 0 to about 6e-14, changing with the summation order of
    the same node values. On finite-difference paths it under-reports the
    true error: it reads 5.1e-12 against an actual 3.1e-10 (60x) on a
    reparametrized circle, and 5.4e-13 against 2.5e-10 (460x) on the R=1
    circle given as 33 custom-samples knots.
    """

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise ValueError("phase value must be finite")
        if not self.error_estimate >= 0:
            raise ValueError("error estimate must be nonnegative")


@dataclasses.dataclass(frozen=True)
class SympPath:
    """Path t in [0, 1] -> M(t) in Sp(2n, R), grouped ordering.

    eval returns the SympMatrix at t; tangent, when given, returns dM/dt as a
    plain array. Without an analytic tangent, derivatives fall back to
    second-order finite differences with step 1e-6 * max(1, |M(0)|_max),
    one-sided at the interval ends. closed asserts M(1) = M(0); construction
    samples five parameter values and checks symplecticity and closure.

    eval_batch and tangent_batch, given together or not at all, evaluate the
    same path at a 1-D array of k parameters in one call: each returns a
    (k, 2n, 2n) array of grouped-ordering matrices, row i belonging to ts[i].
    They must agree with eval and with the path's tangent. The phase
    integrals then evaluate whole quadrature panels through them and build
    no SympMatrix per node; sample() checks the shape, finiteness, group
    condition and determinant of every stacked matrix instead, with the
    thresholds SympMatrix applies. Construction validates its five samples
    through one eval_batch call. Paths without them are sampled by looping
    over eval and derivative.
    """

    n: int
    eval: Callable[[float], SympMatrix]
    tangent: Callable[[float], np.ndarray] | None = None
    closed: bool = False
    eval_batch: Callable[[np.ndarray], np.ndarray] | None = None
    tangent_batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if (self.eval_batch is None) != (self.tangent_batch is None):
            raise ValueError("eval_batch and tangent_batch must be given together")
        if self.eval_batch is not None:
            samples = self._matrices(np.array(_PARAM_SAMPLES))
        else:
            samples = np.array([self._scalar_sample(t) for t in _PARAM_SAMPLES])
        if self.closed:
            gap = float(np.max(np.abs(samples[-1] - samples[0])))
            if gap > _CLOSURE_TOL:
                raise ValueError(f"closed path fails closure: |M(1) - M(0)|_max = {gap:.3e}")
        scale = max(1.0, float(np.max(np.abs(samples[0]))))
        object.__setattr__(self, "_fd_step", _FD_STEP_FACTOR * scale)

    def _scalar_sample(self, t: float) -> np.ndarray:
        """Construction check of eval(t): type, modes, ordering, group condition."""
        M = self.eval(t)
        if not isinstance(M, SympMatrix):
            raise TypeError(f"eval({t}) returned {type(M).__name__}, not SympMatrix")
        if M.n != self.n:
            raise ValueError(f"eval({t}) has {M.n} modes, path declares {self.n}")
        if M.ordering != GROUPED:
            raise ValueError("paths require grouped ordering")
        om = omega(self.n)
        resid = float(np.max(np.abs(M.data @ om @ M.data.T - om)))
        if resid > _SAMPLE_SYMP_TOL:
            raise ValueError(
                f"sample at t={t} fails the symplectic condition: residual {resid:.3e}"
            )
        return M.data

    def _matrices(self, ts: np.ndarray) -> np.ndarray:
        """eval_batch(ts), with every stacked matrix checked like a SympMatrix."""
        Ms = _stack(self.eval_batch(ts), ts, self.n, "eval_batch")
        bad = ~np.all(np.isfinite(Ms), axis=(1, 2))
        if bad.any():
            raise NonFiniteIntegrand(f"path sample is non-finite at t={ts[np.argmax(bad)]}")
        om = omega(self.n)
        resid = np.max(np.abs(Ms @ om @ Ms.transpose(0, 2, 1) - om), axis=(1, 2))
        det = np.linalg.det(Ms)
        bad = (resid > DEFAULT_TOL_SYMP) | (np.abs(det - 1.0) > _DET_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"sample at t={ts[i]} fails the symplectic condition: residual "
                f"{resid[i]:.3e}, determinant {det[i]!r}"
            )
        return Ms

    def sample(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Stacked path matrices and tangents at the 1-D parameter array ts.

        Returns (Ms, dMs), each of shape (k, 2n, 2n), from one call each of
        eval_batch and tangent_batch when the path has them, else by looping
        over eval and derivative.
        """
        ts = np.asarray(ts, dtype=float)
        if self.eval_batch is None:
            Ms = _stack([self.eval(t).data for t in ts], ts, self.n, "eval")
            dMs = _stack([self.derivative(t) for t in ts], ts, self.n, "tangent")
        else:
            Ms = self._matrices(ts)
            dMs = _stack(self.tangent_batch(ts), ts, self.n, "tangent_batch")
        return Ms, dMs

    def derivative(self, t: float) -> np.ndarray:
        """dM/dt at t: the analytic tangent if supplied, else finite difference."""
        if self.tangent is not None:
            return np.asarray(self.tangent(t), dtype=float)
        h = self._fd_step
        if t < h:
            m0, m1, m2 = (self.eval(t + k * h).data for k in range(3))
            return (-3.0 * m0 + 4.0 * m1 - m2) / (2.0 * h)
        if t > 1.0 - h:
            m0, m1, m2 = (self.eval(t - k * h).data for k in range(3))
            return (3.0 * m0 - 4.0 * m1 + m2) / (2.0 * h)
        return (self.eval(t + h).data - self.eval(t - h).data) / (2.0 * h)


def _stack(values, ts: np.ndarray, n: int, source: str) -> np.ndarray:
    """values as a float array of shape (len(ts), 2n, 2n), or ValueError."""
    arr = np.asarray(values, dtype=float)
    expected = (ts.size, 2 * n, 2 * n)
    if arr.shape != expected:
        raise ValueError(f"{source} returned shape {arr.shape}, expected {expected}")
    return arr


def _metric_diag(p: OscParams) -> np.ndarray:
    """diag(l^2, hbar^2 / l^2), the connection's metric weights."""
    l = p.length_array()
    return np.concatenate([l * l, p.hbar**2 / (l * l)])


def _check_modes(n: int, p: OscParams) -> None:
    if p.n != n:
        raise ValueError(f"parameter modes {p.n} do not match matrix modes {n}")


def _connection_values(Ms: np.ndarray, dMs: np.ndarray, p: OscParams) -> np.ndarray:
    """-(1 / 4 hbar) Tr[diag(l^2, hbar^2 / l^2) M^T Omega dM] for each stacked pair."""
    # diagonal of M^T (Omega dM): sum over j of M_ji (Omega dM)_ji
    core = np.einsum("kji,kji->ki", Ms, omega(p.n) @ dMs)
    return -(0.25 / p.hbar) * (core @ _metric_diag(p))


def connection_integrand(M: SympMatrix, dM: np.ndarray, p: OscParams) -> float:
    """Berry connection paired with a tangent:
    -(1 / 4 hbar) Tr[diag(l^2, hbar^2 / l^2) M^T Omega dM]."""
    dM = np.asarray(dM, dtype=float)
    if dM.shape != M.data.shape:
        raise ValueError(f"tangent shape {dM.shape} does not match {M.data.shape}")
    _check_modes(M.n, p)
    return float(_connection_values(M.data[None], dM[None], p)[0])


def _run_quadrature(
    f: Callable[[np.ndarray], np.ndarray], quad: QuadSpec
) -> tuple[float, float, int]:
    if quad.kind == ADAPTIVE:
        return adaptive_gauss_kronrod(f, 0.0, 1.0, tol=quad.tol, max_evals=quad.max_evals)
    return fixed_gauss_kronrod(f, 0.0, 1.0, panels=quad.panels)


def _finite_or_raise(values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(values)
    if bad.any():
        raise NonFiniteIntegrand(f"integrand is non-finite at t={ts[np.argmax(bad)]}")
    return values


def integrate_phase(
    path: SympPath, p: OscParams, quad: QuadSpec | None = None
) -> PhaseResult:
    """Geometric phase of the path: the connection integrated over [0, 1]."""
    if quad is None:
        quad = QuadSpec()
    _check_modes(path.n, p)

    def f(ts: np.ndarray) -> np.ndarray:
        return _finite_or_raise(_connection_values(*path.sample(ts), p), ts)

    value, error, evals = _run_quadrature(f, quad)
    return PhaseResult(value=value, error_estimate=error, evaluations=evals)


def _omega_v_trace(M: SympMatrix, p: OscParams) -> float:
    """Tr[Omega V] for the dimension-full covariance V of the state at M.

    Written out as the antisymmetric pairing sum(V[n+i, i] - V[i, n+i]); V is
    symmetric, so this vanishes identically. Kept as an honest evaluation so
    the boundary-term form stays a literal transcription.
    """
    V = covariance(M, p).data
    n = M.n
    return float(sum(V[n + i, i] - V[i, n + i] for i in range(n)))


def integrate_phase_boundary_form(
    path: SympPath, p: OscParams, quad: QuadSpec | None = None
) -> PhaseResult:
    """Phase via integration by parts: +(1 / 4 hbar) integral of
    Tr[Omega M diag(l^2, hbar^2 / l^2) dM^T] minus the covariance boundary
    term (1 / 2 hbar) [Tr(Omega V)] at the endpoints.

    Equals integrate_phase on closed paths. On open paths the vanishing
    boundary argument does not apply; the value is still computed but a
    warning flags it.
    """
    if quad is None:
        quad = QuadSpec()
    if not path.closed:
        warnings.warn(
            "boundary-form phase evaluated on an open path; the endpoint "
            "term only cancels for closed paths",
            UserWarning,
            stacklevel=2,
        )
    _check_modes(path.n, p)
    weights = _metric_diag(p)
    om = omega(path.n)

    def f(ts: np.ndarray) -> np.ndarray:
        Ms, dMs = path.sample(ts)
        # Tr[(Omega M) W dM^T] = sum over a, b of (Omega M)_ab w_b dM_ab
        core = np.einsum("kab,b,kab->k", om @ Ms, weights, dMs)
        return _finite_or_raise((0.25 / p.hbar) * core, ts)

    value, error, evals = _run_quadrature(f, quad)
    boundary = (0.5 / p.hbar) * (
        _omega_v_trace(path.eval(1.0), p) - _omega_v_trace(path.eval(0.0), p)
    )
    return PhaseResult(value=value - boundary, error_estimate=error, evaluations=evals)


def phase_b_zero(
    path: SympPath, p: OscParams, quad: QuadSpec | None = None
) -> PhaseResult:
    """Phase for paths with vanishing upper-right block.

    Such matrices have D = A^{-T} and the connection collapses to
    -(1 / 4 hbar) Tr[diag(l^2) (A^T dC - C^T dA)]. Every evaluated sample is
    checked against the block form; NotBZeroForm reports a violation.
    """
    if quad is None:
        quad = QuadSpec()
    n = path.n
    _check_modes(n, p)
    l2 = np.asarray(p.lengths, dtype=float) ** 2

    def f(ts: np.ndarray) -> np.ndarray:
        Ms, dMs = path.sample(ts)
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
        return _finite_or_raise(-(0.25 / p.hbar) * (core @ l2), ts)

    value, error, evals = _run_quadrature(f, quad)
    return PhaseResult(value=value, error_estimate=error, evaluations=evals)


def check_canonical_invariance(
    path: SympPath,
    fixedM: SympMatrix,
    p: OscParams,
    quad: QuadSpec | None = None,
) -> tuple[float, float, float]:
    """Phase before and after left translation by a constant symplectic matrix.

    Returns (original, translated, |difference|). The connection only sees
    M^T Omega dM, which the translation leaves fixed, so the difference is
    pure quadrature noise. A path with eval_batch and tangent_batch is
    translated stack by stack and stays a batch path.
    """
    if fixedM.n != path.n:
        raise ValueError(f"translation has {fixedM.n} modes, path has {path.n}")
    if fixedM.ordering != GROUPED:
        raise ValueError("translation must use grouped ordering")
    base = integrate_phase(path, p, quad)
    S = fixedM.data

    def moved_eval(t: float) -> SympMatrix:
        return fixedM @ path.eval(t)

    def moved_tangent(t: float) -> np.ndarray:
        return S @ path.derivative(t)

    batch = {}
    if path.eval_batch is not None:
        # sample() checks each stacked S M(t) at 1e-10, stricter than the
        # compounded 1e-9 of SympMatrix products on the scalar route
        batch = dict(
            eval_batch=lambda ts: S @ path.eval_batch(ts),
            tangent_batch=lambda ts: S @ path.tangent_batch(ts),
        )
    moved = SympPath(
        n=path.n, eval=moved_eval, tangent=moved_tangent, closed=path.closed, **batch
    )
    translated = integrate_phase(moved, p, quad)
    return base.value, translated.value, abs(translated.value - base.value)
