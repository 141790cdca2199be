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
import math

import numpy as np

from .gaussian_states import OscParams
from .geometric_phase import SympPath
from .symplectic_core import LieAlgElement, SympMatrix

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
        if not (math.isfinite(R) and R >= 0):
            raise ValueError(f"magnitude must be finite and >= 0, got {self.R!r}")
        angle = float(self.angle)
        if not math.isfinite(angle):
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


def _circle_constants(modes: int, R: float, params: OscParams) -> tuple[np.ndarray, ...]:
    """C0 = cosh(R) I, C1 = sinh(R) Kc and C2 = sinh(R) Ks, with the direction
    matrix K(angle) = cos(angle) Kc + sin(angle) Ks split by its trig factor
    (see NOTES.md); the squeeze matrix at an angle is C0 + cos C1 + sin C2."""
    if modes == 1:
        k = params.lengths[0] ** 2 / params.hbar
        Kc = [[-1.0, 0.0], [0.0, 1.0]]
        Ks = [[0.0, -k], [-1.0 / k, 0.0]]
    else:
        l1, l2 = params.lengths
        k1, k2, k3 = l1 / l2, l1 * l2 / params.hbar, params.hbar / (l1 * l2)
        Kc = [[0, -k1, 0, 0], [-1 / k1, 0, 0, 0], [0, 0, 0, 1 / k1], [0, 0, k1, 0]]
        Ks = [[0, 0, 0, -k2], [0, 0, -k2, 0], [0, -k3, 0, 0], [-k3, 0, 0, 0]]
    sh = np.sinh(R)
    return np.cosh(R) * np.eye(2 * modes), sh * np.array(Kc), sh * np.array(Ks)


def _circle_matrices(C: tuple[np.ndarray, ...], angles: np.ndarray) -> np.ndarray:
    """C0 + cos(angle) C1 + sin(angle) C2 for each angle: the squeeze closed form."""
    C0, C1, C2 = C
    return C0 + np.cos(angles)[:, None, None] * C1 + np.sin(angles)[:, None, None] * C2


def _spec_matrix(spec: SqueezeSpec) -> SympMatrix:
    C = _circle_constants(spec.modes, spec.R, spec.params)
    return SympMatrix(spec.modes, _circle_matrices(C, np.array([spec.angle]))[0])


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
    C = _circle_constants(modes, R, params)
    _, C1, C2 = C

    def angles(ts) -> np.ndarray:
        return (_TWO_PI * np.asarray(ts, dtype=float)) % _TWO_PI

    def eval_batch(ts: np.ndarray) -> np.ndarray:
        return _circle_matrices(C, angles(ts))

    def tangent_batch(ts: np.ndarray) -> np.ndarray:
        a = angles(ts)
        return _TWO_PI * (np.cos(a)[:, None, None] * C2 - np.sin(a)[:, None, None] * C1)

    return SympPath(n=modes, closed=True, eval_batch=eval_batch, tangent_batch=tangent_batch)


def reference_phase(modes: int, R: float) -> float:
    """Closed-form circle phase: -pi sinh^2(R), doubled for two modes."""
    if modes not in (1, 2):
        raise ValueError(f"reference phases cover 1 or 2 modes, got {modes}")
    R = float(R)
    if not (math.isfinite(R) and R >= 0):
        raise ValueError(f"magnitude must be finite and >= 0, got {R!r}")
    with np.errstate(over="ignore"):
        gamma = -modes * np.pi * np.sinh(R) ** 2
    if not math.isfinite(gamma):
        raise ValueError(f"reference phase overflows at R={R!r}: sinh(R)^2 exceeds the float range")
    return gamma
