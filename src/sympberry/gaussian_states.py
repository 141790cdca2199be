"""Covariance matrices and displacement-operator amplitudes for pure
Gaussian states labelled by a symplectic matrix.

The state attached to a grouped-ordering symplectic matrix M (with oscillator
parameters hbar and per-mode characteristic lengths l_j) has zero first
moments and second moments fixed by M:

* dimension-full covariance V = (hbar^2 / 2) M E M^T with
  E = diag(l^2/hbar^2, 1/l^2),
* quadrature covariance V_q = M M^T / 2 (the hbar = l = 1 case),
* displacement amplitude exp(-(a, b) Lambda (a, b)^T / 4) with
  Lambda = M E M^T = (2/hbar^2) V.

For one mode, the same state can be built as an integral operator acting on
the ground state; numeric_overlap_n1 does that numerically and is the
package's independent check on the amplitude formula.
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
    SympMatrix,
    _asymmetry,
    _mode_count,
    _real_array,
    _residual,
    omega,
)

__all__ = [
    "DIMENSION_FULL",
    "QUADRATURE",
    "SingularB",
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
_SINGULAR_B_TOL = 1e-8


class SingularB(ValueError):
    """The upper-right block vanishes; the integral-kernel form is singular."""


@dataclasses.dataclass(frozen=True)
class OscParams:
    """Oscillator parameters: hbar plus one characteristic length per mode."""

    hbar: float
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        hbar = float(self.hbar)
        if not (math.isfinite(hbar) and hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar!r}")
        arr = np.asarray(self.lengths, float)
        if arr.ndim > 1:
            raise ValueError(f"lengths must be a flat sequence, got shape {arr.shape}")
        lengths = tuple(arr.reshape(-1).tolist())
        if len(lengths) < 1:
            raise ValueError("need at least one mode length")
        if not all(math.isfinite(l) and l > 0 for l in lengths):
            raise ValueError(f"lengths must be positive and finite, got {self.lengths!r}")
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def from_mass_frequency(
        cls, hbar: float, masses: Sequence[float], frequencies: Sequence[float]
    ) -> "OscParams":
        """Build lengths l_j = sqrt(hbar / (m_j omega_j))."""
        m = np.asarray(masses, dtype=float)
        w = np.asarray(frequencies, dtype=float)
        if m.shape != w.shape:
            raise ValueError("masses and frequencies must have matching lengths")
        if not (np.all(m > 0) and np.all(w > 0)):
            raise ValueError("masses and frequencies must be positive")
        return cls(hbar=hbar, lengths=tuple(np.sqrt(float(hbar) / (m * w))))

    @property
    def n(self) -> int:
        return len(self.lengths)

    def length_array(self) -> np.ndarray:
        return np.asarray(self.lengths, dtype=float)


def _check_modes(n: int, p: OscParams) -> None:
    if p.n != n:
        raise ValueError(f"parameter modes {p.n} do not match matrix modes {n}")


def _weight_diag(p: OscParams) -> np.ndarray:
    """E = diag(l^2 / hbar^2, 1 / l^2), the vacuum quadratic-form weights."""
    l = p.length_array()
    return np.concatenate([l**2 / p.hbar**2, 1.0 / l**2])


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
            resid = _residual(2 * arr, omega(self.n))
            if resid > _PURITY_TOL:
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


def lambda_matrix(M: SympMatrix, p: OscParams) -> np.ndarray:
    """Quadratic-form matrix of the displacement amplitude: M E M^T."""
    _require_grouped(M)
    _check_modes(M.n, p)
    return _symmetrized(M.data @ np.diag(_weight_diag(p)) @ M.data.T)


def covariance(M: SympMatrix, p: OscParams) -> CovarianceMatrix:
    """Dimension-full covariance (hbar^2 / 2) M E M^T; first moments are zero."""
    return CovarianceMatrix(
        n=M.n,
        data=(p.hbar**2 / 2.0) * lambda_matrix(M, p),
        convention=DIMENSION_FULL,
    )


def covariance_quadrature(M: SympMatrix) -> CovarianceMatrix:
    """Quadrature covariance M M^T / 2 (equal to covariance at hbar = l = 1)."""
    _require_grouped(M)
    return CovarianceMatrix(
        n=M.n, data=_symmetrized(M.data @ M.data.T) / 2.0, convention=QUADRATURE
    )


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
    lam = lambda_matrix(M, p)
    return float(np.exp(-0.25 * v @ lam @ v))


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
        if not isinstance(self.points, (int, np.integer)) or self.points < 200:
            raise ValueError(f"need an integer of at least 200 quadrature points, got {self.points!r}")
        if self.halfwidth_sigmas < 8.0:
            raise ValueError("window must cover at least 8 standard deviations")


def _psi_closed_form(M: SympMatrix, p: OscParams):
    """Position wavefunction of the one-mode state, via the integral kernel.

    The kernel against the ground state is a Gaussian integral
    integral exp(-q x'^2 + r x') dx' = sqrt(pi / q) exp(r^2 / (4 q)),
    which leaves a closed-form complex Gaussian in x. Requires a
    non-vanishing upper-right entry.
    """
    A, B = M.data[0, 0], M.data[0, 1]
    D = M.data[1, 1]
    hbar = p.hbar
    l = p.lengths[0]
    if abs(B) <= _SINGULAR_B_TOL:
        raise SingularB(
            f"upper-right block {B:.3e} is numerically singular; the kernel "
            f"form does not apply"
        )
    q = 1.0 / (2.0 * l * l) - 1j * A / (2.0 * hbar * B)
    prefactor = (np.pi * l * l) ** (-0.25) / np.sqrt(2j * np.pi * hbar * B)
    gauss = np.sqrt(np.pi / q)

    def psi(x: np.ndarray) -> np.ndarray:
        r = -1j * x / (hbar * B)
        return prefactor * gauss * np.exp(1j * D * x * x / (2.0 * hbar * B) + r * r / (4.0 * q))

    return psi


def numeric_overlap_n1(
    M: SympMatrix,
    p: OscParams,
    a: float,
    b: float,
    grid: OverlapGrid | None = None,
) -> complex:
    """Displaced self-overlap of the one-mode state, by numeric quadrature.

    Builds the wavefunction from the integral kernel, applies the
    displacement action psi(x) -> exp(i a b / (2 hbar)) exp(i a x / hbar)
    psi(x + b), and integrates conj(psi) times the displaced psi with
    tanh-sinh quadrature. The modulus must reproduce weyl_amplitude; the
    phase must be stable under grid refinement.
    """
    _require_grouped(M)
    if M.n != 1 or p.n != 1:
        raise ValueError("the kernel overlap is a one-mode construction")
    if grid is None:
        grid = OverlapGrid()
    a = float(a)
    b = float(b)
    psi = _psi_closed_form(M, p)
    sigma = float(np.sqrt(covariance(M, p).data[0, 0]))
    half = grid.halfwidth_sigmas * sigma + abs(b)
    nodes, weights = tanh_sinh_nodes(grid.points)
    xs = half * nodes
    ws = half * weights
    phase = np.exp(0.5j * a * b / p.hbar) * np.exp(1j * a * xs / p.hbar)
    vals = np.conj(psi(xs)) * phase * psi(xs + b)
    return complex(np.sum(vals * ws))
