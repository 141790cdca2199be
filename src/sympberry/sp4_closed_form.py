"""Closed-form exponential for the two-mode symplectic Lie algebra.

A generator in interleaved ordering (x1, p1, x2, p2) has the symmetric block
form L = [[a, b], [b^T, c]] with a, c symmetric 2x2 blocks. Writing
J = [[0, 1], [-1, 0]] and U = diag(J, J) L, the square S = U^2 has the
structure [[alpha_1 I, beta_1 J d], [-beta_1 J d^T, gamma_1 I]] with
d = a J b + b J c, which every power S^k inherits. Summing even and odd
powers separately yields exp(U) in closed form from six scalar series whose
closed forms involve only cosh/sinh at the square roots of the two
eigenvalues of S. The generic dense exponential (symplectic_core.exp_map)
serves as the oracle throughout, and takes over when the eigenvalues
degenerate and the closed-form denominators vanish.

Formula pitfalls validated against the oracle are recorded in NOTES.md.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .symplectic_core import (
    INTERLEAVED,
    LieAlgElement,
    SympMatrix,
    _asymmetry,
    exp_map,
    gamma_permutation,
    omega_interleaved,
)

__all__ = [
    "DegenerateEigenvalues",
    "Sp4Generator",
    "SeriesCoefficients",
    "s_matrix",
    "eigenvalues",
    "coeff_recurrence",
    "coeff_closed",
    "series_coefficients",
    "closed_form_exp",
    "squeeze_block_exp",
    "BRANCH_CLOSED_FORM",
    "BRANCH_FALLBACK",
]

_J = omega_interleaved(1)  # J = [[0, 1], [-1, 0]]
_JJ = omega_interleaved(2)  # diag(J, J)
_CLOSED_FORM_TOL = 1e-9
_IMAG_RESIDUE_TOL = 1e-10
_SINHC_TAYLOR_CUTOFF = 1e-6
_DEG_FACTOR = 1e-8
_SYMMETRY_TOL = 1e-12

BRANCH_CLOSED_FORM = "non-degenerate"
BRANCH_FALLBACK = "degenerate-fallback"


class DegenerateEigenvalues(ValueError):
    """Eigenvalues coincide; the closed-form denominators vanish."""


def _join22(A, B, C, D) -> np.ndarray:
    """The 4x4 matrix [[A, B], [C, D]] of four 2x2 blocks."""
    out = np.empty((4, 4))
    out[:2, :2] = A
    out[:2, 2:] = B
    out[2:, :2] = C
    out[2:, 2:] = D
    return out


def _block22(data, name: str) -> np.ndarray:
    arr = np.array(data, dtype=float)  # copies
    if arr.shape != (2, 2):
        raise ValueError(f"block {name} must be 2x2, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"block {name} contains non-finite entries")
    return arr


@dataclasses.dataclass(frozen=True)
class Sp4Generator:
    """Blocks (a, b, c) of a two-mode generator; a and c must be symmetric.

    The blocks are stored read-only and the dataclass is frozen, so the
    derived block d and the determinant invariants are computed once per
    instance, on first use, and cached: no later change can make them stale.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            arr = _block22(getattr(self, name), name)
            if name in ("a", "c"):
                asym = _asymmetry(arr)
                if asym > _SYMMETRY_TOL:
                    raise ValueError(
                        f"block {name} must be symmetric: asymmetry {asym:.3e}"
                    )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @functools.cached_property
    def d(self) -> np.ndarray:
        """Derived off-diagonal structure block d = a J b + b J c (read-only)."""
        d = self.a @ _J @ self.b + self.b @ _J @ self.c
        d.setflags(write=False)
        return d

    @functools.cached_property
    def invariants(self) -> tuple[float, float, float, float]:
        """(det a, det b, det c, det d), the scalars every closed form uses."""
        return (
            float(np.linalg.det(self.a)),
            float(np.linalg.det(self.b)),
            float(np.linalg.det(self.c)),
            float(np.linalg.det(self.d)),
        )

    def lie_element(self) -> LieAlgElement:
        """The full 4x4 symmetric generator in interleaved ordering."""
        return LieAlgElement(2, _join22(self.a, self.b, self.b.T, self.c))

    def u_matrix(self) -> np.ndarray:
        """U = diag(J, J) L, the matrix actually exponentiated."""
        return _JJ @ self.lie_element().data


@dataclasses.dataclass(frozen=True)
class SeriesCoefficients:
    """The six scalar series sums assembling the closed-form exponential.

    even entries weight S^k/(2k)!, odd entries S^k/(2k+1)!; alpha scales the
    upper-left identity block, beta the J d off-diagonal structure, gamma the
    lower-right identity block.
    """

    alpha_e: float
    alpha_o: float
    beta_e: float
    beta_o: float
    gamma_e: float
    gamma_o: float


def s_matrix(g: Sp4Generator) -> np.ndarray:
    """The structured square S = (diag(J, J) L)^2.

    Uses the 2x2 identity X J X^T = det(X) J to reduce each block:
    S = [[-(det a + det b) I, J d], [-J d^T, -(det b + det c) I]].
    """
    d = g.d
    det_a, det_b, det_c, _ = g.invariants
    eye = np.eye(2)
    return _join22(
        -(det_a + det_b) * eye, _J @ d, -(_J @ d.T), -(det_b + det_c) * eye
    )


def eigenvalues(g: Sp4Generator) -> tuple[complex, complex]:
    """The two (doubly repeated) eigenvalues of S.

    lambda_pm = -(det a + det c + 2 det b)/2 +- sqrt((det a - det c)^2
    + 4 det d)/2; complex when the radicand is negative.
    """
    det_a, det_b, det_c, det_d = g.invariants
    center = -(det_a + det_c + 2.0 * det_b) / 2.0
    radicand = (det_a - det_c) ** 2 + 4.0 * det_d
    root = np.sqrt(complex(radicand)) / 2.0
    return complex(center + root), complex(center - root)


def _separated_eigenvalues(g: Sp4Generator, remedy: str) -> tuple[float, complex, complex, complex]:
    """(gamma_1, lam_p, lam_m, lam_p - lam_m), or DegenerateEigenvalues naming the
    remedy when the eigenvalues of S are too close for the closed-form denominators."""
    _, det_b, det_c, _ = g.invariants
    lam_p, lam_m = eigenvalues(g)
    den = lam_p - lam_m
    if abs(den) < _DEG_FACTOR * max(1.0, abs(lam_p), abs(lam_m)):
        raise DegenerateEigenvalues(
            f"|lambda_+ - lambda_-| = {abs(den):.3e} is below the degeneracy threshold; {remedy}"
        )
    return -(det_c + det_b), lam_p, lam_m, den


def coeff_recurrence(g: Sp4Generator, n: int) -> tuple[float, float, float]:
    """(alpha_n, beta_n, gamma_n) of S^n by iterated linear recurrence.

    S^n keeps the block pattern of S with scalar coefficients obeying
    alpha_k = alpha_1 alpha_{k-1} + det d * beta_{k-1},
    beta_k  = alpha_{k-1} + gamma_1 beta_{k-1},
    gamma_k = det d * beta_{k-1} + gamma_1 gamma_{k-1}.
    Serves as the oracle for coeff_closed.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"power must be a positive integer, got {n!r}")
    det_a, det_b, det_c, det_d = g.invariants
    alpha_1 = -(det_a + det_b)
    gamma_1 = -(det_c + det_b)
    alpha, beta, gamma = alpha_1, 1.0, gamma_1
    for _ in range(n - 1):
        alpha, beta, gamma = (
            alpha_1 * alpha + det_d * beta,
            alpha + gamma_1 * beta,
            det_d * beta + gamma_1 * gamma,
        )
    return float(alpha), float(beta), float(gamma)


def _real_with_residue_check(z: complex, what: str) -> float:
    scale = max(1.0, abs(z))
    if abs(z.imag) > _IMAG_RESIDUE_TOL * scale:
        raise ValueError(
            f"imaginary residue {abs(z.imag):.3e} of {what} exceeds "
            f"{_IMAG_RESIDUE_TOL} x scale; branch evaluation is inconsistent"
        )
    return float(z.real)


def coeff_closed(g: Sp4Generator, n: int) -> tuple[float, float, float]:
    """(alpha_n, beta_n, gamma_n) of S^n in eigenvalue closed form.

    With the eigenvalues lam_p, lam_m of the two-term recurrence:
    alpha_n = [(lam_p - gamma_1) lam_p^n - (lam_m - gamma_1) lam_m^n] / (lam_p - lam_m),
    beta_n  = (lam_p^n - lam_m^n) / (lam_p - lam_m),
    gamma_n carries the same (lam_pm - gamma_1) factors as alpha_n but with
    the opposite power attached, i.e. lam_p^n and lam_m^n swapped.
    Raises DegenerateEigenvalues when the denominator is numerically zero.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"power must be a positive integer, got {n!r}")
    gamma_1, lam_p, lam_m, den = _separated_eigenvalues(g, "use coeff_recurrence")
    alpha = ((lam_p - gamma_1) * lam_p**n - (lam_m - gamma_1) * lam_m**n) / den
    beta = (lam_p**n - lam_m**n) / den
    gamma = ((lam_p - gamma_1) * lam_m**n - (lam_m - gamma_1) * lam_p**n) / den
    return (
        _real_with_residue_check(alpha, f"alpha_{n}"),
        _real_with_residue_check(beta, f"beta_{n}"),
        _real_with_residue_check(gamma, f"gamma_{n}"),
    )


def _sinhc(lam: complex) -> complex:
    """sinh(sqrt(lam))/sqrt(lam); Taylor series near zero to avoid 0/0."""
    if abs(lam) < _SINHC_TAYLOR_CUTOFF:
        return 1.0 + lam / 6.0 + lam * lam / 120.0 + lam * lam * lam / 5040.0
    root = np.sqrt(complex(lam))
    return complex(np.sinh(root) / root)


def _cosh_sqrt(lam: complex) -> complex:
    return complex(np.cosh(np.sqrt(complex(lam))))


def series_coefficients(g: Sp4Generator) -> SeriesCoefficients:
    """Closed forms of the six series sums.

    Summing the power coefficients against 1/(2k)! produces cosh at the
    eigenvalue square roots; against 1/(2k+1)! produces sinh(sqrt)/sqrt.
    Everything is evaluated through the complex branch and the imaginary
    residue is checked before taking real parts.
    """
    gamma_1, lam_p, lam_m, den = _separated_eigenvalues(g, "fall back to the generic exponential")
    ch_p, ch_m = _cosh_sqrt(lam_p), _cosh_sqrt(lam_m)
    sc_p, sc_m = _sinhc(lam_p), _sinhc(lam_m)
    wp, wm = lam_p - gamma_1, lam_m - gamma_1
    return SeriesCoefficients(
        alpha_e=_real_with_residue_check((wp * ch_p - wm * ch_m) / den, "alpha_e"),
        alpha_o=_real_with_residue_check((wp * sc_p - wm * sc_m) / den, "alpha_o"),
        beta_e=_real_with_residue_check((ch_p - ch_m) / den, "beta_e"),
        beta_o=_real_with_residue_check((sc_p - sc_m) / den, "beta_o"),
        gamma_e=_real_with_residue_check((wp * ch_m - wm * ch_p) / den, "gamma_e"),
        gamma_o=_real_with_residue_check((wp * sc_m - wm * sc_p) / den, "gamma_o"),
    )


def _assemble(g: Sp4Generator, coeffs: SeriesCoefficients) -> np.ndarray:
    """exp(U) = E + U O from the six series sums.

    E and O share the block pattern of S; multiplying O by
    U = [[J a, J b], [J b^T, J c]] and adding E gives the four blocks below.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    eye = np.eye(2)
    jd = _J @ d
    jdt = _J @ d.T
    A = coeffs.alpha_e * eye + coeffs.alpha_o * (_J @ a) - coeffs.beta_o * (_J @ b @ jdt)
    B = coeffs.beta_e * jd + coeffs.beta_o * (_J @ a @ jd) + coeffs.gamma_o * (_J @ b)
    C = -coeffs.beta_e * jdt + coeffs.alpha_o * (_J @ b.T) - coeffs.beta_o * (_J @ c @ jdt)
    D = coeffs.gamma_e * eye + coeffs.gamma_o * (_J @ c) + coeffs.beta_o * (_J @ b.T @ jd)
    return _join22(A, B, C, D)


def closed_form_exp(
    g: Sp4Generator, return_branch: bool = False
) -> SympMatrix | tuple[SympMatrix, str]:
    """exp(diag(J, J) L) for a two-mode generator, interleaved ordering.

    Uses the closed-form series sums when the eigenvalues are separated;
    otherwise falls back to the generic dense exponential on the
    grouped-ordering conjugate and converts back. With return_branch=True
    also reports which route was taken.
    """
    try:
        coeffs = series_coefficients(g)
    except DegenerateEigenvalues:
        gamma = gamma_permutation(2)
        grouped = LieAlgElement(2, gamma @ g.lie_element().data @ gamma.T)
        M = exp_map(grouped, tol=_CLOSED_FORM_TOL)
        result = SympMatrix(
            2, gamma.T @ M.data @ gamma, INTERLEAVED, _CLOSED_FORM_TOL
        )
        return (result, BRANCH_FALLBACK) if return_branch else result
    result = SympMatrix(2, _assemble(g, coeffs), INTERLEAVED, _CLOSED_FORM_TOL)
    return (result, BRANCH_CLOSED_FORM) if return_branch else result


def squeeze_block_exp(b) -> SympMatrix:
    """Closed form of the a = c = 0 case, interleaved ordering.

    There S = -det(b) I, so exp(U) has cosh(sqrt(-det b)) I on BOTH diagonal
    blocks (a first power, not squared; see NOTES.md) and
    sinh(sqrt(-det b))/sqrt(-det b) scaling J b (upper right) and J b^T
    (lower left). The complex branch covers det b of either sign.
    """
    b = _block22(b, "b")
    mu = complex(-float(np.linalg.det(b)))
    ch = _real_with_residue_check(_cosh_sqrt(mu), "diagonal scale")
    sc = _real_with_residue_check(_sinhc(mu), "off-diagonal scale")
    eye = np.eye(2)
    M = _join22(ch * eye, sc * (_J @ b), sc * (_J @ b.T), ch * eye)
    return SympMatrix(2, M, INTERLEAVED, _CLOSED_FORM_TOL)
