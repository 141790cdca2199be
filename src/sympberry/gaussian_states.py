"""Covariance matrices and displacement-operator amplitudes for pure
Gaussian states labelled by a symplectic matrix.

The state attached to a grouped-ordering symplectic matrix M (with oscillator
parameters hbar and per-mode characteristic lengths l_j) has zero first
moments and second moments fixed by M:

* dimension-full covariance V = M W M^T / 2 with W = D^2 = diag(l^2, hbar^2/l^2),
* displacement amplitude exp(-(a, b) Lambda (a, b)^T / 4), Lambda = (2/hbar^2) V,
* quadrature covariance V_q = M M^T / 2 (the hbar = l = 1 case).

The units live here alone: d = (l, hbar / l), D = diag(d), makes a unit M' the
physical D M' D^-1 and a unit generator L' hbar D^-1 L' D^-1 (NOTES.md). Phase kernels
read M' = D^-1 M D from the one conversion _unit_conversion; physical outputs use d.

For one mode, numeric_overlap_n1 builds the state's wavefunction from its
Siegel matrix Z = (C + D Z0)(A + B Z0)^-1, which reads M's blocks and not V,
and integrates the displaced self-overlap numerically: the package's
independent check on the amplitude formula.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from ._quadrature import tanh_sinh_nodes
from .symplectic_core import (
    _SYMMETRY_TOL,
    GROUPED,
    INTERLEAVED,
    SympMatrix,
    _asymmetry,
    _is_integer,
    _mode_count,
    _real_array,
    symplectic_residual,
)

__all__ = [
    "DIMENSION_FULL",
    "QUADRATURE",
    "OscParams",
    "CovarianceMatrix",
    "OverlapGrid",
    "lambda_matrix",
    "covariance",
    "covariance_quadrature",
    "weyl_amplitude",
    "numeric_overlap_n1",
]

DIMENSION_FULL = "dimension_full"
QUADRATURE = "quadrature"

_PURITY_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class OscParams:
    """Oscillator parameters: hbar plus one characteristic length per mode."""

    hbar: float
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        hbar = float(self.hbar)
        if not (math.isfinite(hbar) and hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {hbar!r}")
        arr = np.asarray(self.lengths, float)
        if arr.ndim > 1:
            raise ValueError(f"lengths must be a flat sequence, got shape {arr.shape}")
        lengths = tuple(arr.reshape(-1).tolist())
        if len(lengths) < 1:
            raise ValueError("need at least one mode length")
        if not all(math.isfinite(l) and l > 0 for l in lengths):
            bad = next(l for l in lengths if not (math.isfinite(l) and l > 0))
            raise ValueError(f"lengths must be positive and finite, got {bad!r}")
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def from_mass_frequency(
        cls, hbar: float, masses: Sequence[float], frequencies: Sequence[float]
    ) -> "OscParams":
        """Lengths l_j = sqrt(hbar / (m_j omega_j)) in Python floats: a ValueError naming the input,
        with no numpy warning, unless hbar, m, omega and each length are positive and finite."""
        m = np.asarray(masses, dtype=float)
        w = np.asarray(frequencies, dtype=float)
        if m.shape != w.shape or m.ndim != 1:
            raise ValueError("masses and frequencies must be flat sequences of matching lengths")
        hbar, m, w = float(hbar), m.tolist(), w.tolist()
        for name, values in (("hbar", [hbar]), ("masses", m), ("frequencies", w)):
            if bad := [v for v in values if not (math.isfinite(v) and v > 0)]:
                raise ValueError(f"{name} must be positive and finite, got {bad[0]!r}")
        lengths = [math.sqrt(hbar / (mj * wj)) if mj * wj else math.inf for mj, wj in zip(m, w)]
        for mj, wj, length in zip(m, w, lengths):
            if not 0.0 < length < math.inf:
                raise ValueError(f"mass {mj!r} and frequency {wj!r} give length {length!r}, "
                                 "outside the float range")
        return cls(hbar=hbar, lengths=tuple(lengths))

    @property
    def n(self) -> int:
        return len(self.lengths)

    def length_array(self) -> np.ndarray:
        return np.asarray(self.lengths, dtype=float)


def _check_modes(n: int, p: OscParams) -> None:
    if p.n != n:
        raise ValueError(f"parameter modes {p.n} do not match matrix modes {n}")


def _scales(p: OscParams) -> np.ndarray:
    """d = (l, hbar / l) in grouped ordering: x = l x' and p = (hbar / l) p' for unit quadratures."""
    return np.array([*p.lengths, *[p.hbar / l for l in p.lengths]])


def _unit_conversion(p: OscParams) -> np.ndarray:
    """q_ij = d_i / d_j, so that D^-1 X D = X / q for a physical matrix or stack X: the one
    conversion to hbar = l = 1, taken once per call and applied to every stack."""
    d = _scales(p)
    return d[:, None] / d


def _physical_generator(L: np.ndarray, p: OscParams, ordering: str = GROUPED) -> np.ndarray:
    """hbar D^-1 L D^-1: the physical generator of D exp(Omega L) D^-1 for a unit generator L,
    with d in L's ordering, since D Omega = hbar Omega D^-1 (NOTES.md)."""
    d = _scales(p)
    if ordering == INTERLEAVED:
        d = d.reshape(2, -1).T.reshape(-1)  # (l_1, hbar / l_1, l_2, ...)
    return p.hbar * L / np.multiply.outer(d, d)


def _vacuum_frame(X: np.ndarray) -> np.ndarray:
    """X [I; i I], complex (..., 2n, n), for a unit matrix or stack X: for X = M it is F = A + i B
    over G = C + i D, and the state's Siegel matrix is Z = G F^-1; linear in X, so dM gives dF."""
    n = X.shape[-1] // 2
    return X[..., :, :n] + X[..., :, n:] * 1j


def _covariance_stack(Ms: np.ndarray) -> np.ndarray:
    """V = M M^T / 2 of a unit matrix or stack, not symmetrized; of M D it is M W M^T / 2."""
    return 0.5 * Ms @ Ms.swapaxes(-1, -2)


@dataclasses.dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive-definite second-moment matrix, grouped ordering.

    convention is "dimension_full" (x, p units) or "quadrature"
    (dimensionless; purity then requires 2 * data to be symplectic, which is
    validated at construction).
    """

    n: int
    data: np.ndarray
    convention: str = DIMENSION_FULL

    def __post_init__(self) -> None:
        n = _mode_count(self.n)
        arr = _real_array(self.data, "covariance")
        if arr.shape != (2 * n, 2 * n):
            raise ValueError(f"expected shape {(2 * n, 2 * n)}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("covariance contains non-finite entries")
        asym = _asymmetry(arr)
        if asym > _SYMMETRY_TOL:
            raise ValueError(f"covariance must be symmetric: asymmetry {asym:.3e}")
        min_eig = float(np.min(np.linalg.eigvalsh(arr)))
        if min_eig <= 0:
            raise ValueError(f"covariance must be positive definite, min eig {min_eig:.3e}")
        if self.convention not in (DIMENSION_FULL, QUADRATURE):
            raise ValueError(f"unknown convention {self.convention!r}")
        if self.convention == QUADRATURE:
            with np.errstate(over="ignore"):  # an overflowing 2V fails as an inf or nan residual
                resid = symplectic_residual(2 * arr)
            if not resid <= _PURITY_TOL:
                raise ValueError(
                    f"2 x covariance fails the symplectic purity condition: "
                    f"residual {resid:.3e}"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "n", n)


def _require_grouped(M: SympMatrix) -> None:
    if M.ordering != GROUPED:
        raise ValueError("state constructions require grouped ordering")


def _symmetrized(X: np.ndarray) -> np.ndarray:
    return (X + X.T) / 2.0


def _state_covariance(M: SympMatrix, p: OscParams) -> np.ndarray:
    """Symmetrized V = M W M^T / 2 of a grouped-ordering M whose modes match p."""
    _require_grouped(M)
    _check_modes(M.n, p)
    return _symmetrized(_covariance_stack(M.data * _scales(p)))


def lambda_matrix(M: SympMatrix, p: OscParams) -> np.ndarray:
    """Quadratic-form matrix of the displacement amplitude: Lambda = (2 / hbar^2) V."""
    return (2.0 / p.hbar**2) * _state_covariance(M, p)


def covariance(M: SympMatrix, p: OscParams) -> CovarianceMatrix:
    """Dimension-full covariance V = M W M^T / 2; first moments are zero."""
    return CovarianceMatrix(n=M.n, data=_state_covariance(M, p), convention=DIMENSION_FULL)


def covariance_quadrature(M: SympMatrix) -> CovarianceMatrix:
    """Quadrature covariance M M^T / 2 (equal to covariance at hbar = l = 1)."""
    _require_grouped(M)
    return CovarianceMatrix(n=M.n, data=_symmetrized(_covariance_stack(M.data)), convention=QUADRATURE)


def weyl_amplitude(M: SympMatrix, p: OscParams, a, b) -> float:
    """Displacement-operator expectation exp(-(a, b) Lambda (a, b)^T / 4).

    a and b are the n position-like and momentum-like displacement
    parameters; the value lies in (0, 1] and equals 1 only at the origin.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (M.n,) or b.shape != (M.n,):
        raise ValueError(f"displacement vectors must have length {M.n}")
    v = np.concatenate([a, b])
    if not np.isfinite(v).all():
        raise ValueError(f"displacements must be finite, got a={a}, b={b}")
    with np.errstate(over="ignore"):  # a form beyond the float range is exp(-inf) = 0
        return float(np.exp(-0.25 * v @ lambda_matrix(M, p) @ v))


@dataclasses.dataclass(frozen=True)
class OverlapGrid:
    """Quadrature window spec for numeric_overlap_n1.

    points tanh-sinh nodes spanning halfwidth_sigmas standard deviations of
    the position density (plus the displacement), clamped to at least 200
    points and 8 sigmas so the window always captures the state.
    """

    points: int = 400
    halfwidth_sigmas: float = 10.0

    def __post_init__(self) -> None:
        if not _is_integer(self.points) or self.points < 200:
            raise ValueError(f"need an integer of at least 200 quadrature points, got {self.points!r}")
        if not math.isfinite(self.halfwidth_sigmas):
            raise ValueError(f"window halfwidth must be finite, got {self.halfwidth_sigmas!r}")
        if self.halfwidth_sigmas < 8.0:
            raise ValueError("window must cover at least 8 standard deviations")


def numeric_overlap_n1(
    M: SympMatrix,
    p: OscParams,
    a: float,
    b: float,
    grid: OverlapGrid | None = None,
) -> complex:
    """Displaced self-overlap of the one-mode state, by numeric quadrature.

    Builds the wavefunction psi(x) = (Im Z / pi hbar)^(1/4) exp(i Z x^2 / 2 hbar)
    from the Siegel matrix Z = (C + D Z0) / (A + B Z0), Z0 = i hbar / l^2,
    read as hbar / l^2 times the unit one of D^-1 M D (NOTES.md), applies the
    displacement action psi(x) -> exp(i a b / (2 hbar)) exp(i a x / hbar)
    psi(x + b), and integrates conj(psi) times the displaced psi with
    tanh-sinh quadrature over the window of halfwidth_sigmas position
    deviations sqrt(hbar / (2 Im Z)) plus |b|. The complex value must equal
    weyl_amplitude, a positive real, and be stable under grid refinement. A
    displacement a whose factor turns by pi or more between adjacent nodes is
    a ValueError naming the points that resolve it.
    """
    _require_grouped(M)
    if M.n != 1 or p.n != 1:
        raise ValueError("the Siegel overlap is a one-mode construction")
    if grid is None:
        grid = OverlapGrid()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"displacements must be finite, got a={a}, b={b}")
    hbar = p.hbar
    l, p_scale = _scales(p).tolist()
    F, G = _vacuum_frame(M.data / _unit_conversion(p))[:, 0].tolist()
    Z = (G / F) * p_scale / l  # Z = (hbar / l^2) Z' (NOTES.md)
    half = grid.halfwidth_sigmas * math.sqrt(hbar / (2.0 * Z.imag)) + abs(b)
    nodes, weights, gap = tanh_sinh_nodes(grid.points)
    turn = abs(a) * half * gap / hbar
    if turn >= math.pi:
        # the widest gap, at the centre, is below (pi/2) h with h = 8 / (points - 1)
        needed = math.floor(4.0 * abs(a) * half / hbar) + 2
        raise ValueError(
            f"displacement a={a} turns exp(i a x / hbar) by {turn:.3g} rad between nodes of "
            f"{grid.points} points; OverlapGrid(points={needed}) resolves it"
        )
    xs = half * nodes
    ws = half * weights
    norm = (Z.imag / (math.pi * hbar)) ** 0.25
    psi = lambda x: norm * np.exp(0.5j * Z * x * x / hbar)
    phase = np.exp(0.5j * a * b / hbar) * np.exp(1j * a * xs / hbar)
    vals = np.conj(psi(xs)) * phase * psi(xs + b)
    return complex(np.sum(vals * ws))
