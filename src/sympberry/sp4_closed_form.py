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

import cmath
import dataclasses
import functools
import math

import numpy as np

from .symplectic_core import (
    _SYMMETRY_TOL,
    INTERLEAVED,
    LieAlgElement,
    SympMatrix,
    _real_array,
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

_JJ = omega_interleaved(2)  # diag(J, J)
_GAMMA = gamma_permutation(2)  # interleaved -> grouped mode permutation
_GAMMA.setflags(write=False)
_EYE = (1.0, 0.0, 0.0, 1.0)
_CLOSED_FORM_TOL = 1e-9
_IMAG_RESIDUE_TOL = 1e-10
_SINHC_TAYLOR_CUTOFF = 1e-6
_DEG_FACTOR = 1e-8
_OVERFLOW = "the coefficients of S^{} overflow the float range"

BRANCH_CLOSED_FORM = "non-degenerate"
BRANCH_FALLBACK = "degenerate-fallback"


class DegenerateEigenvalues(ValueError):
    """Eigenvalues coincide; the closed-form denominators vanish."""


# 2x2 blocks as row-major sequences of four Python floats (NOTES.md: why not numpy)
def _det22(x) -> float:
    """ad - bc of the 2x2 block (a, b, c, d)."""
    return x[0] * x[3] - x[1] * x[2]


def _mul22(p, q) -> tuple:
    """The 2x2 product p q."""
    return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])


def _j(x) -> tuple:
    """J x."""
    return (x[2], x[3], -x[0], -x[1])


def _t(x) -> tuple:
    """x^T."""
    return (x[0], x[2], x[1], x[3])


def _join22(A, B, C, D) -> np.ndarray:
    """The 4x4 array [[A, B], [C, D]] of four 2x2 blocks."""
    return np.array([A[0], A[1], B[0], B[1], A[2], A[3], B[2], B[3],
                     C[0], C[1], D[0], D[1], C[2], C[3], D[2], D[3]]).reshape(4, 4)


def _block22(data, name: str) -> tuple[np.ndarray, list]:
    """A read-only float copy of a 2x2 block and its entries, or ValueError."""
    arr = _real_array(data, f"block {name}")
    if arr.shape != (2, 2):
        raise ValueError(f"block {name} must be 2x2, got shape {arr.shape}")
    entries = arr.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise ValueError(f"block {name} contains non-finite entries")
    arr.setflags(write=False)
    return arr, entries


@dataclasses.dataclass(frozen=True)
class Sp4Generator:
    """Blocks (a, b, c) of a two-mode generator; a and c must be symmetric.

    The blocks are stored read-only and the dataclass is frozen. Their
    Python-float entries and d = a J b + b J c are kept from construction;
    the determinant invariants, the spectrum of S and the 4x4 generator are
    computed on first use and cached. No later change can make them stale.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        entries = []
        for name in ("a", "b", "c"):
            arr, x = _block22(getattr(self, name), name)
            if name != "b" and (asym := abs(x[1] - x[2])) > _SYMMETRY_TOL:  # max|x - x^T|
                raise ValueError(f"block {name} must be symmetric: asymmetry {asym:.3e}")
            object.__setattr__(self, name, arr)
            entries.append(x)
        a, b, c = entries
        d = [p + q for p, q in zip(_mul22(a, _j(b)), _mul22(b, _j(c)))]
        object.__setattr__(self, "_blocks", (a, b, c, d))

    @functools.cached_property
    def d(self) -> np.ndarray:
        """Derived off-diagonal structure block d = a J b + b J c (read-only)."""
        d = np.array(self._blocks[3]).reshape(2, 2)
        d.setflags(write=False)
        return d

    @functools.cached_property
    def invariants(self) -> tuple[float, float, float, float]:
        """(det a, det b, det c, det d), the scalars every closed form uses."""
        return tuple(_det22(x) for x in self._blocks)

    @functools.cached_property
    def _spectrum(self) -> tuple[float, complex, complex, complex]:
        """(gamma_1, lam_p, lam_m, lam_p - lam_m); see eigenvalues."""
        det_a, det_b, det_c, det_d = self.invariants
        center = -(det_a + det_c + 2.0 * det_b) / 2.0
        root = cmath.sqrt((det_a - det_c) ** 2 + 4.0 * det_d) / 2.0
        lam_p, lam_m = center + root, center - root
        return -(det_c + det_b), lam_p, lam_m, lam_p - lam_m

    @functools.cached_property
    def _lie(self) -> LieAlgElement:
        a, b, c, _ = self._blocks
        return LieAlgElement(2, _join22(a, b, _t(b), c))

    def lie_element(self) -> LieAlgElement:
        """The full 4x4 symmetric generator in interleaved ordering."""
        return self._lie

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
    d = g._blocks[3]
    det_a, det_b, det_c, _ = g.invariants
    a1, g1 = -(det_a + det_b), -(det_b + det_c)
    return _join22((a1, 0.0, 0.0, a1), _j(d), [-x for x in _j(_t(d))], (g1, 0.0, 0.0, g1))


def eigenvalues(g: Sp4Generator) -> tuple[complex, complex]:
    """The two (doubly repeated) eigenvalues of S.

    lambda_pm = -(det a + det c + 2 det b)/2 +- sqrt((det a - det c)^2
    + 4 det d)/2; complex when the radicand is negative.
    """
    return g._spectrum[1:3]


def _separated_eigenvalues(g: Sp4Generator, remedy: str) -> tuple[float, complex, complex, complex]:
    """(gamma_1, lam_p, lam_m, lam_p - lam_m), or DegenerateEigenvalues naming the
    remedy when the eigenvalues of S are too close for the closed-form denominators."""
    _, lam_p, lam_m, den = spectrum = g._spectrum
    if abs(den) < _DEG_FACTOR * max(1.0, abs(lam_p), abs(lam_m)):
        raise DegenerateEigenvalues(
            f"|lambda_+ - lambda_-| = {abs(den):.3e} is below the degeneracy threshold; {remedy}"
        )
    return spectrum


def coeff_recurrence(g: Sp4Generator, n: int) -> tuple[float, float, float]:
    """(alpha_n, beta_n, gamma_n) of S^n by iterated linear recurrence.

    S^n keeps the block pattern of S with scalar coefficients obeying
    alpha_k = alpha_1 alpha_{k-1} + det d * beta_{k-1},
    beta_k  = alpha_{k-1} + gamma_1 beta_{k-1},
    gamma_k = det d * beta_{k-1} + gamma_1 gamma_{k-1}.
    Serves as the oracle for coeff_closed. Raises ValueError when a
    coefficient overflows the float range.
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
    return _finite_coefficients((float(alpha), float(beta), float(gamma)), n)


def _finite_coefficients(coeffs: tuple[float, float, float], n: int) -> tuple[float, float, float]:
    """coeffs, or ValueError naming the power S^n whose coefficients overflow."""
    if not all(map(math.isfinite, coeffs)):
        raise ValueError(_OVERFLOW.format(n))
    return coeffs


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
    Raises DegenerateEigenvalues when the denominator is numerically zero,
    and ValueError when a coefficient overflows the float range.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"power must be a positive integer, got {n!r}")
    gamma_1, lam_p, lam_m, den = _separated_eigenvalues(g, "use coeff_recurrence")
    try:
        pn, mn = lam_p**n, lam_m**n
    except OverflowError:  # complex powers raise where float arithmetic gives inf
        raise ValueError(_OVERFLOW.format(n)) from None
    wp, wm = lam_p - gamma_1, lam_m - gamma_1
    coeffs = (
        _real_with_residue_check((wp * pn - wm * mn) / den, f"alpha_{n}"),
        _real_with_residue_check((pn - mn) / den, f"beta_{n}"),
        _real_with_residue_check((wp * mn - wm * pn) / den, f"gamma_{n}"),
    )
    return _finite_coefficients(coeffs, n)


def _cosh_sinhc(lam: complex) -> tuple[complex, complex]:
    """(cosh(sqrt(lam)), sinh(sqrt(lam))/sqrt(lam)); a Taylor series near zero avoids 0/0."""
    root = cmath.sqrt(lam)
    try:
        ch, sh = cmath.cosh(root), cmath.sinh(root)
    except OverflowError:  # numpy's inf, which the result's validation then rejects
        return complex(math.inf), complex(math.inf)
    if abs(lam) < _SINHC_TAYLOR_CUTOFF:
        return ch, 1.0 + lam / 6.0 + lam * lam / 120.0 + lam * lam * lam / 5040.0
    return ch, sh / root


def series_coefficients(g: Sp4Generator) -> SeriesCoefficients:
    """Closed forms of the six series sums.

    Summing the power coefficients against 1/(2k)! produces cosh at the
    eigenvalue square roots; against 1/(2k+1)! produces sinh(sqrt)/sqrt.
    Everything is evaluated through the complex branch and the imaginary
    residue is checked before taking real parts.
    """
    gamma_1, lam_p, lam_m, den = _separated_eigenvalues(g, "fall back to the generic exponential")
    (ch_p, sc_p), (ch_m, sc_m) = _cosh_sinhc(lam_p), _cosh_sinhc(lam_m)
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
    a, b, c, d = g._blocks
    ja, jb, jbt, jc, jd, jdt = _j(a), _j(b), _j(_t(b)), _j(c), _j(d), _j(_t(d))
    ae, ao, be, bo, ge, go = vars(coeffs).values()  # in field order
    A = [ae * e + ao * x - bo * y for e, x, y in zip(_EYE, ja, _mul22(jb, jdt))]
    B = [be * x + bo * y + go * z for x, y, z in zip(jd, _mul22(ja, jd), jb)]
    C = [-be * x + ao * y - bo * z for x, y, z in zip(jdt, jbt, _mul22(jc, jdt))]
    D = [ge * e + go * x + bo * y for e, x, y in zip(_EYE, jc, _mul22(jbt, jd))]
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
        grouped = LieAlgElement(2, _GAMMA @ g.lie_element().data @ _GAMMA.T)
        M = exp_map(grouped, tol=_CLOSED_FORM_TOL)
        result = SympMatrix(2, _GAMMA.T @ M.data @ _GAMMA, INTERLEAVED, _CLOSED_FORM_TOL)
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
    b = _block22(b, "b")[1]
    mu = complex(-_det22(b))
    ch, sc = _cosh_sinhc(mu)
    ch = _real_with_residue_check(ch, "diagonal scale")
    sc = _real_with_residue_check(sc, "off-diagonal scale")
    diag = (ch, 0.0, 0.0, ch)
    M = _join22(diag, [sc * x for x in _j(b)], [sc * x for x in _j(_t(b))], diag)
    return SympMatrix(2, M, INTERLEAVED, _CLOSED_FORM_TOL)
