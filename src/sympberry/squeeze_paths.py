"""Squeeze-transformation generators, matrices, and parameter-circle paths.

One-mode squeezing with magnitude r and angle theta, and its two-mode
counterpart with magnitude R and angle phi, written directly in dimension
full variables (hbar, characteristic lengths). The circle paths sweep the
angle once at fixed magnitude; their phases have closed forms

    -pi sinh^2(R)      (one mode)
    -2 pi sinh^2(R)    (two modes)

independent of hbar and the lengths, which makes them the package's main
end-to-end oracle.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .gaussian_states import OscParams
from .geometric_phase import SympPath
from .symplectic_core import GROUPED, LieAlgElement, SympMatrix

__all__ = [
    "SqueezeSpec",
    "squeeze_lie_n1",
    "squeeze_matrix_n1",
    "squeeze_b_block_n2",
    "squeeze_matrix_n2",
    "squeeze_circle_path",
    "reference_phase",
]

_TWO_PI = 2.0 * np.pi


@dataclasses.dataclass(frozen=True)
class SqueezeSpec:
    """Squeeze magnitude and angle for a one- or two-mode transformation.

    The angle is stored normalized to [0, 2 pi). params carries hbar and the
    mode lengths and must match the declared mode count.
    """

    modes: int
    R: float
    angle: float
    params: OscParams

    def __post_init__(self) -> None:
        if self.modes not in (1, 2):
            raise ValueError(f"squeeze transformations cover 1 or 2 modes, got {self.modes}")
        R = float(self.R)
        if not (np.isfinite(R) and R >= 0):
            raise ValueError(f"magnitude must be finite and >= 0, got {self.R!r}")
        angle = float(self.angle)
        if not np.isfinite(angle):
            raise ValueError("angle must be finite")
        if self.params.n != self.modes:
            raise ValueError(
                f"params carry {self.params.n} mode lengths, spec declares {self.modes}"
            )
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "angle", angle % _TWO_PI)


def _require_modes(spec: SqueezeSpec, modes: int) -> None:
    if spec.modes != modes:
        raise ValueError(f"expected a {modes}-mode spec, got {spec.modes}")


def squeeze_lie_n1(spec: SqueezeSpec) -> LieAlgElement:
    """Symmetric generator of one-mode squeezing; traceless by construction."""
    _require_modes(spec, 1)
    r, th = spec.R, spec.angle
    hbar = spec.params.hbar
    l2 = spec.params.lengths[0] ** 2
    L = np.array(
        [
            [(hbar / l2) * r * np.sin(th), -r * np.cos(th)],
            [-r * np.cos(th), -(l2 / hbar) * r * np.sin(th)],
        ]
    )
    return LieAlgElement(1, L)


def squeeze_matrix_n1(spec: SqueezeSpec) -> SympMatrix:
    """One-mode squeeze matrix, in closed form.

    The generator's square is r^2 I, so the exponential series splits into
    cosh(r) I plus sinh(r) times the direction matrix.
    """
    _require_modes(spec, 1)
    return _spec_matrix(spec)


def squeeze_b_block_n2(spec: SqueezeSpec) -> np.ndarray:
    """Upper-right generator block of the two-mode squeeze, dimension full.

    With zx = R cos(phi), zy = R sin(phi), lengths l1, l2:
    [[(hbar / (l1 l2)) zy, -(l2 / l1) zx], [-(l1 / l2) zx, -(l1 l2 / hbar) zy]].
    Its determinant is -R^2 for every angle.
    """
    _require_modes(spec, 2)
    zx = spec.R * np.cos(spec.angle)
    zy = spec.R * np.sin(spec.angle)
    hbar = spec.params.hbar
    l1, l2 = spec.params.lengths
    return np.array(
        [
            [(hbar / (l1 * l2)) * zy, -(l2 / l1) * zx],
            [-(l1 / l2) * zx, -(l1 * l2 / hbar) * zy],
        ]
    )


def squeeze_matrix_n2(spec: SqueezeSpec) -> SympMatrix:
    """Two-mode squeeze matrix cosh(R) I + sinh(R) K(phi), grouped ordering.

    K is the direction matrix with K^2 = I; the (4, 3) entry carries
    cos(phi), matching the exponential of the generator (see NOTES.md).
    """
    _require_modes(spec, 2)
    return _spec_matrix(spec)


def _direction_n1(params: OscParams, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """cosh/sinh split direction matrices for the one-mode squeeze, stacked.

    c and s are arrays of cos/sin of the angle (or their derivatives, for
    tangents); the result has shape (len(c), 2, 2).
    """
    k = params.lengths[0] ** 2 / params.hbar
    K = np.empty((c.size, 2, 2))
    K[:, 0, 0] = -c
    K[:, 0, 1] = -k * s
    K[:, 1, 0] = -s / k
    K[:, 1, 1] = c
    return K


def _direction_n2(params: OscParams, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """cosh/sinh split direction matrices for the two-mode squeeze, stacked.

    c and s are arrays of cos/sin of the angle (or their derivatives, for
    tangents); the result has shape (len(c), 4, 4). Ordering is grouped
    (x1, x2, p1, p2).
    """
    hbar = params.hbar
    l1, l2 = params.lengths
    k1 = l1 / l2
    k2 = l1 * l2 / hbar
    k3 = hbar / (l1 * l2)
    K = np.zeros((c.size, 4, 4))
    K[:, 0, 1] = -k1 * c
    K[:, 0, 3] = -k2 * s
    K[:, 1, 0] = -c / k1
    K[:, 1, 2] = -k2 * s
    K[:, 2, 1] = -k3 * s
    K[:, 2, 3] = c / k1
    K[:, 3, 0] = -k3 * s
    K[:, 3, 2] = k1 * c
    return K


_DIRECTIONS = {1: _direction_n1, 2: _direction_n2}


def _squeeze_matrices(modes: int, R: float, params: OscParams, angles: np.ndarray) -> np.ndarray:
    """cosh(R) I + sinh(R) K(angle) for each angle: the squeeze closed form."""
    K = _DIRECTIONS[modes](params, np.cos(angles), np.sin(angles))
    return np.cosh(R) * np.eye(2 * modes) + np.sinh(R) * K


def _squeeze_tangents(modes: int, R: float, params: OscParams, angles: np.ndarray) -> np.ndarray:
    """d/dangle of _squeeze_matrices: dK/dangle swaps c -> -s, s -> c in K."""
    return np.sinh(R) * _DIRECTIONS[modes](params, -np.sin(angles), np.cos(angles))


def _spec_matrix(spec: SqueezeSpec) -> SympMatrix:
    data = _squeeze_matrices(spec.modes, spec.R, spec.params, np.array([spec.angle]))[0]
    return SympMatrix(spec.modes, data)


def squeeze_circle_path(modes: int, R: float, params: OscParams) -> SympPath:
    """Closed path sweeping the squeeze angle once at fixed magnitude.

    t in [0, 1] maps to angle 2 pi t; tangents are the hand-differentiated
    matrices times 2 pi, so no finite-difference error enters downstream
    phase integrals, which evaluate each quadrature panel in one call of the
    stacked closed form. The magnitude and params are validated once,
    through a SqueezeSpec.
    """
    if modes not in (1, 2):
        raise ValueError(f"squeeze circles cover 1 or 2 modes, got {modes}")
    R = SqueezeSpec(modes=modes, R=R, angle=0.0, params=params).R

    def angles(ts) -> np.ndarray:
        return (_TWO_PI * np.asarray(ts, dtype=float)) % _TWO_PI

    def eval_batch(ts: np.ndarray) -> np.ndarray:
        return _squeeze_matrices(modes, R, params, angles(ts))

    def tangent_batch(ts: np.ndarray) -> np.ndarray:
        return _TWO_PI * _squeeze_tangents(modes, R, params, angles(ts))

    return SympPath(n=modes, closed=True, eval_batch=eval_batch, tangent_batch=tangent_batch)


def reference_phase(modes: int, R: float) -> float:
    """Closed-form circle phase: -pi sinh^2(R), doubled for two modes."""
    if modes not in (1, 2):
        raise ValueError(f"reference phases cover 1 or 2 modes, got {modes}")
    R = float(R)
    if not (np.isfinite(R) and R >= 0):
        raise ValueError(f"magnitude must be finite and >= 0, got {R!r}")
    return -modes * np.pi * np.sinh(R) ** 2
