"""Squeeze-transformation generators, matrices, and parameter-circle paths.

One-mode squeezing with magnitude r and angle theta, and its two-mode
counterpart with magnitude R and angle phi, each written at hbar = l = 1 and
carried to dimension-full variables by gaussian_states' d = (l, hbar / l):
M_ij d_i / d_j, or hbar L_ij / (d_i d_j) for a generator (NOTES.md). The
circle paths sweep the angle once at fixed magnitude; their phases have closed forms

    -pi sinh^2(R)      (one mode)
    -2 pi sinh^2(R)    (two modes)

independent of hbar and the lengths, which makes them the package's main
end-to-end oracle.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .gaussian_states import OscParams, _physical_generator, _scales
from .geometric_phase import SympPath
from .symplectic_core import INTERLEAVED, LieAlgElement, SympMatrix, _is_integer

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
_TRIG_CACHED_NODES = 30  # one adaptive call: a first panel, or both halves of a split
# (I, Kc, Ks) at hbar = l = 1, K(angle) = cos(angle) Kc + sin(angle) Ks (NOTES.md); read-only
_UNIT_STACKS = {
    1: np.array([[[1, 0], [0, 1]], [[-1, 0], [0, 1]], [[0, -1], [-1, 0]]], dtype=float),
    2: np.array([np.eye(4), [[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 [[0, 0, 0, -1], [0, 0, -1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]]),
}
for _stack in _UNIT_STACKS.values():
    _stack.setflags(write=False)


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
        if not _is_integer(self.modes) or self.modes not in (1, 2):
            raise ValueError(f"squeeze transformations cover 1 or 2 modes, got {self.modes}")
        R = _magnitude(self.R)
        angle = float(self.angle) % _TWO_PI  # NaN for a non-finite angle
        if not math.isfinite(angle):
            raise ValueError("angle must be finite")
        if self.params.n != self.modes:
            raise ValueError(
                f"params carry {self.params.n} mode lengths, spec declares {self.modes}"
            )
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "angle", angle if angle < _TWO_PI else 0.0)  # -1e-20 % 2 pi is 2 pi


def _magnitude(raw) -> float:
    """float(raw), or ValueError, naming raw by its repr, unless that is finite and >= 0."""
    R = float(raw)
    if not (math.isfinite(R) and R >= 0):
        raise ValueError(f"magnitude must be finite and >= 0, got {raw!r}")
    return R


def _require_modes(spec: SqueezeSpec, modes: int) -> None:
    if spec.modes != modes:
        raise ValueError(f"expected a {modes}-mode spec, got {spec.modes}")


def squeeze_lie_n1(spec: SqueezeSpec) -> LieAlgElement:
    """Symmetric generator of one-mode squeezing; traceless by construction."""
    _require_modes(spec, 1)
    r, th = spec.R, spec.angle
    unit = r * np.array([[np.sin(th), -np.cos(th)], [-np.cos(th), -np.sin(th)]])
    return LieAlgElement(1, _physical_generator(unit, spec.params))


def squeeze_matrix_n1(spec: SqueezeSpec) -> SympMatrix:
    """One-mode squeeze matrix, in closed form.

    The generator's square is r^2 I, so the exponential series splits into
    cosh(r) I plus sinh(r) times the direction matrix.
    """
    _require_modes(spec, 1)
    return SympMatrix(1, _squeeze_stack(1, spec.R, [spec.angle], spec.params)[0])  # a stack of one


def squeeze_b_block_n2(spec: SqueezeSpec) -> np.ndarray:
    """Upper-right generator block of the two-mode squeeze, dimension full.

    With zx = R cos(phi), zy = R sin(phi), the unit block [[zy, -zx], [-zx, -zy]]
    of an interleaved-ordering generator becomes, with lengths l1, l2:
    [[(hbar / (l1 l2)) zy, -(l2 / l1) zx], [-(l1 / l2) zx, -(l1 l2 / hbar) zy]].
    Its determinant is -R^2 for every angle.
    """
    _require_modes(spec, 2)
    zx = spec.R * np.cos(spec.angle)
    zy = spec.R * np.sin(spec.angle)
    L = np.zeros((4, 4))
    L[:2, 2:] = L[2:, :2] = [[zy, -zx], [-zx, -zy]]  # symmetric, so it is its own transpose
    return _physical_generator(L, spec.params, INTERLEAVED)[:2, 2:]


def squeeze_matrix_n2(spec: SqueezeSpec) -> SympMatrix:
    """Two-mode squeeze matrix cosh(R) I + sinh(R) K(phi), grouped ordering.

    K is the direction matrix with K^2 = I; the (4, 3) entry carries
    cos(phi), matching the exponential of the generator (see NOTES.md).
    """
    _require_modes(spec, 2)
    return SympMatrix(2, _squeeze_stack(2, spec.R, [spec.angle], spec.params)[0])  # a stack of one


def _circle_constants(modes: int, R, params: OscParams) -> np.ndarray:
    """The stack C0 = cosh(R) I, C1 = sinh(R) Kc and C2 = sinh(R) Ks in dimension-full
    variables, each unit matrix times d_i / d_j, or one such stack per entry of an array R;
    the squeeze matrix at an angle is C0 + cos C1 + sin C2. Its entries are at most
    m = cosh(R) + sinh(R) max|K|, and those of M Omega M^T at most 2 modes m^2; ValueError,
    with no numpy warning, for the first R where that overflows."""
    d = _scales(params)  # not the inbound conversion, so that a fault there shows in the phase
    C = _UNIT_STACKS[modes] * (d[:, None] / d)  # D C' D^-1
    k_max = float(np.abs(C[1:]).max())
    # math.cosh may raise past R = 710, where m^2 overflows anyway
    for r in R.ravel().tolist() if isinstance(R, np.ndarray) else [R]:
        m = math.cosh(r) + math.sinh(r) * k_max if r <= 710.0 else math.inf
        if not math.isfinite(2 * modes * m * m):
            raise ValueError(f"squeeze matrices overflow at R={r!r}: M Omega M^T leaves the float range")
    sh = np.sinh(R)
    return C * np.array([np.cosh(R), sh, sh]).T[..., None, None]


def _squeeze_stack(modes: int, R, angles, params: OscParams) -> np.ndarray:
    """The squeeze closed form C0 + cos(angle) C1 + sin(angle) C2 at each of k angles, for one
    R or one per angle, as a (k, 2n, 2n) stack; the circles evaluate the same form at cached angles."""
    # contiguous copies, so that each entry takes the ufunc loop of one value
    R, angles = np.array(R, dtype=float), np.array(angles, dtype=float)
    C0, C1, C2 = _circle_constants(modes, R, params).swapaxes(0, -3)  # (3, k, 2n, 2n) for k R
    return C0 + np.cos(angles)[:, None, None] * C1 + np.sin(angles)[:, None, None] * C2


def squeeze_circle_path(modes: int, R: float, params: OscParams) -> SympPath:
    """Closed path sweeping the squeeze angle once at fixed magnitude.

    t in [0, 1] maps to angle 2 pi t; tangents are the hand-differentiated
    matrices times 2 pi, so no finite-difference error enters downstream
    phase integrals, which evaluate each quadrature panel in one call of the
    stacked closed form. The mode count, magnitude and params are validated once,
    through a SqueezeSpec.
    """
    R = SqueezeSpec(modes=modes, R=R, angle=0.0, params=params).R
    C0, C1, C2 = _circle_constants(modes, R, params)

    def eval_batch(ts: np.ndarray) -> np.ndarray:
        c, s = _circle_trig(ts)
        return C0 + c * C1 + s * C2

    def tangent_batch(ts: np.ndarray) -> np.ndarray:
        c, s = _circle_trig(ts)
        return _TWO_PI * (c * C2 - s * C1)

    return SympPath(n=modes, closed=True, eval_batch=eval_batch, tangent_batch=tangent_batch)


def _circle_trig(ts) -> tuple[np.ndarray, np.ndarray]:
    """(cos a, sin a) at a = 2 pi t, as (k, 1, 1) stacks. Every circle samples the same few
    node sets, so a 1-D ts of at most 30 nodes is cached by its bytes (NOTES.md)."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim == 1 and ts.size <= _TRIG_CACHED_NODES:
        return _cached_trig(ts.tobytes())
    return _trig(ts)


@functools.lru_cache(maxsize=8)
def _cached_trig(key: bytes) -> tuple[np.ndarray, np.ndarray]:
    c, s = _trig(np.frombuffer(key))
    c.flags.writeable = s.flags.writeable = False  # shared by every circle
    return c, s


def _trig(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = (_TWO_PI * ts) % _TWO_PI
    return np.cos(a)[:, None, None], np.sin(a)[:, None, None]


def reference_phase(modes: int, R: float) -> float:
    """Closed-form circle phase: -pi sinh^2(R), doubled for two modes."""
    if not _is_integer(modes) or modes not in (1, 2):
        raise ValueError(f"reference phases cover 1 or 2 modes, got {modes}")
    R = _magnitude(float(R))
    with np.errstate(over="ignore"):
        gamma = -modes * np.pi * np.sinh(R) ** 2
    if not math.isfinite(gamma):
        raise ValueError(f"reference phase overflows at R={R!r}: sinh(R)^2 exceeds the float range")
    return gamma
