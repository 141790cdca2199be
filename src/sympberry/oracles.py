"""The cross-checks behind ``sympberry verify``, and the loop they share with the tests.

``CHECKS`` maps each check name, in report order, to ``(rng, count, fault)
-> (residual, tol)``: the worst disagreement (NaN if either route gives one)
of two independent routes to one quantity over inputs drawn from rng in a
fixed order, and the bound it must stay under. A check takes its inputs from
one array-bounded ``Generator.uniform`` call (the a = c = 0 draws, and each
retry after a degenerate draw, take one more), bit for bit the draws of a
per-draw loop (NOTES.md). fault perturbs one input by ``_FAULT_SIZE``, a
negative control the check must catch. Library layers are called through
their modules, so tracing that rebinds module functions sees these calls
too. Every exponential here is the numpy stacked one, ``symplectic_core._expm``,
so ``sympberry verify`` loads no scipy. The ``symplectic`` squeezes are one stacked
closed form per mode count, of which ``squeeze_matrix_n1/n2`` are a stack of one.
"""
from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from . import gaussian_states, geometric_phase, sp4_closed_form, squeeze_paths, symplectic_core
from ._random import SYMPLECTIC_SCALE, random_generators, random_symplectics, symmetric_part
from .gaussian_states import OscParams
from .geometric_phase import SympPath
from .sp4_closed_form import DegenerateEigenvalues, Sp4Generator
from .squeeze_paths import SqueezeSpec
from .symplectic_core import DEFAULT_TOL_SYMP

__all__ = ["CHECKS", "b_zero_loop", "expm_comparison"]

_FAULT_SIZE = 1e-3  # negative-control perturbation for verify --inject-fault


def b_zero_loop(
    K0, G0=None, G1=None, *, g0_weight: float | None = None, scale: float = 1.0
) -> SympPath:
    """The closed two-mode loop [[A, 0], [G A, A^{-T}]]: zero upper-right block.

    A(t) = expm(sin(2 pi t) K0); G(t) = scale (w(t) G0 + (1 - cos 2 pi t) G1),
    symmetric and periodic for symmetric G0, G1, with w(t) = sin(2 pi t) or
    the constant g0_weight. Without G0 and G1, G = 0: no shear, C = 0. One
    stacked _expm and one inverse per stack of samples, which its exact tangent
    reuses: dA = 2 pi cos(2 pi t) K0 A, dD = -A^{-T} dA^T A^{-T}, dC = dG A + G dA.
    """
    @functools.lru_cache(maxsize=1)
    def stacks(key: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (M, dM/dt) stacks at the ts whose float bytes are key."""
        angle = 2.0 * np.pi * np.frombuffer(key)[:, None, None]
        s, c = np.sin(angle), np.cos(angle)
        A = symplectic_core._expm(s * K0)
        dA = 2.0 * np.pi * c * (K0 @ A)
        M, dM = np.zeros((2, angle.size, 4, 4))
        M[:, :2, :2], dM[:, :2, :2] = A, dA
        M[:, 2:, 2:] = D = np.linalg.inv(A).transpose(0, 2, 1)
        dM[:, 2:, 2:] = -D @ dA.transpose(0, 2, 1) @ D
        if G0 is not None:
            w, dw = (s, 2.0 * np.pi * c) if g0_weight is None else (g0_weight, 0.0)
            G = scale * (w * G0 + (1.0 - c) * G1)
            M[:, 2:, :2] = G @ A
            dM[:, 2:, :2] = scale * (dw * G0 + 2.0 * np.pi * s * G1) @ A + G @ dA
        M.flags.writeable = dM.flags.writeable = False
        return M, dM

    sample = lambda ts: stacks(np.asarray(ts, dtype=float).tobytes())
    return SympPath(
        n=2, eval_batch=lambda ts: sample(ts)[0], tangent_batch=lambda ts: sample(ts)[1], closed=True
    )


def _worst(deviations) -> float:
    """max |deviation| in one reduction, which propagates a NaN: a NaN fails residual <= tol."""
    return float(np.maximum.reduce(np.abs(deviations), axis=None, initial=0.0))


def _generic_exp(gs) -> np.ndarray:
    """The generic exponential of each generator's U = diag(J, J) L, one _expm of the (k, 4, 4) stack."""
    a, b, c = (np.array([getattr(g, name) for g in gs]) for name in "abc")
    return symplectic_core._expm(sp4_closed_form._JJ @ np.block([[a, b], [b.swapaxes(1, 2), c]]))


def expm_comparison(g: Sp4Generator) -> tuple:
    """closed_form_exp(g) against the generic exponential of its U.

    Returns (closed form, branch taken, generic exponential, max |difference|).
    """
    M, branch = sp4_closed_form.closed_form_exp(g, return_branch=True)
    generic = _generic_exp([g])[0]
    return M, branch, generic, _worst(M.data - generic)


def _check_closed_form(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    """closed_form_exp per draw against the generic exponential, which runs once on the stacked draws.

    A degenerate draw (a = c = 0) has the scalar square S = -det(b) I, which closed_form_exp
    exponentiates as cosh(sqrt lam) I + sinhc(sqrt lam) U without _expm: those draws compare
    two routes too, and the mpmath tests stay the independent oracle of both."""
    zero = np.broadcast_to(0.0, (2, 2))  # read-only; a = c = 0 forces the degenerate pair
    gs = random_generators(rng, count)
    gs += [Sp4Generator(a=zero, b=b, c=zero) for b in rng.uniform(-1, 1, (max(20, count // 5), 2, 2))]
    used = [Sp4Generator(a=gs[0].a, b=gs[0].b + _FAULT_SIZE, c=gs[0].c)] + gs[1:] if fault else gs
    closed = [sp4_closed_form.closed_form_exp(g).data for g in used]
    return _worst(np.array(closed) - _generic_exp(gs)), 1e-9


def _check_coefficients(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    """coeff_closed per draw and order against coeff_recurrence; one relative difference on the stack."""
    pairs = []
    while len(pairs) < 10 * count:
        for g in random_generators(rng, count - len(pairs) // 10):
            g_used = Sp4Generator(a=g.a, b=g.b + _FAULT_SIZE, c=g.c) if fault and not pairs else g
            try:
                pairs += [(sp4_closed_form.coeff_recurrence(g, k),
                           sp4_closed_form.coeff_closed(g_used, k)) for k in range(1, 11)]
            except DegenerateEigenvalues:
                continue
    exact, closed = np.reshape(pairs, (-1, 2, 3)).swapaxes(0, 1)  # (k, 2, 3); k = 0 over no draws
    return _worst((exact - closed) / np.maximum(1.0, np.abs(exact))), 1e-9


def _check_symplectic(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    """Squeezes and random group elements against symplectic_residual, one stack of each per mode count.

    One uniform call draws each r, angle, 2x2 and 4x4 generator in turn, as a per-draw loop would.
    Per mode count, the stacked squeeze closed form (of which squeeze_matrix_n1/n2 are a stack of
    one) builds the squeezes and one _expm exponentiates the generators; each stack, squeezes
    first, gets SympMatrix's group check and error, and the fault then moves the first squeeze."""
    if count == 0:  # no draws, no stack to reduce
        return 0.0, 1e-9
    low, high = [0.0, 0.0] + [-SYMPLECTIC_SCALE] * 20, [2.0, 2 * np.pi] + [SYMPLECTIC_SCALE] * 20
    X = rng.uniform(low, high, size=(count, 22))
    generators = (X[:, 2:6].reshape(-1, 2, 2), X[:, 6:].reshape(-1, 4, 4))
    squeezes = [squeeze_paths._squeeze_stack(n, *X[:, :2].T, OscParams(1.0, (1.0,) * n)) for n in (1, 2)]
    forms = [symplectic_core.omega(n) for n in (1, 2)]
    randoms = [symplectic_core._expm(form @ symmetric_part(L)) for form, L in zip(forms, generators)]
    for kind, group in (("squeeze", squeezes), ("random", randoms)):
        for n, (Ms, form) in enumerate(zip(group, forms), start=1):
            if (failure := symplectic_core._group_failure(Ms, form, DEFAULT_TOL_SYMP)) is not None:
                i, resid, det = failure
                raise ValueError(f"{kind} {n}-mode element {i} fails the group check at tolerance "
                                 f"{DEFAULT_TOL_SYMP:.1e}: residual {resid:.3e}, "
                                 f"determinant {float(det)!r}")
    if fault:
        squeezes[0][0] += _FAULT_SIZE
    stacks = map(np.concatenate, zip(squeezes, randoms))
    return _worst([symplectic_core.symplectic_residual(stack) for stack in stacks]), 1e-9


# Non-unit hbar and unequal lengths, where D = diag(l, hbar/l) is not the identity: a
# conversion that swapped l and hbar/l, or dropped hbar, fails.
_P1 = OscParams(0.7, (1.4,))
_P2 = OscParams(2.0, (0.5, 1.5))


def _arc(path: SympPath, end: float) -> SympPath:
    """The open part t in [0, end] of path, rescaled to [0, 1]."""
    tangents = lambda ts: end * path.tangent_batch(end * ts)
    return SympPath(path.n, eval_batch=lambda ts: path.eval_batch(end * ts), tangent_batch=tangents)


def _check_two_form(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    """integrate_phase against its covariance-plus-winding split, and each closed circle
    against reference_phase, per path; no stack to share."""
    # the arcs t in [0, 0.3] expose a wrong winding sign, and reference_phase a fault of the
    # conversion both integrals share; the fault moves the split's R
    del rng, count  # deterministic check
    deviations = []
    for p in (_P1, _P2):
        R = 1.0 + (_FAULT_SIZE if fault else 0.0)
        circles = [squeeze_paths.squeeze_circle_path(p.n, r, p) for r in (1.0, R)]
        for direct, split in (circles, [_arc(c, 0.3) for c in circles]):
            a = geometric_phase.integrate_phase(direct, p).value
            deviations.append(a - geometric_phase.integrate_phase_boundary_form(split, p).value)
            if direct.closed:
                deviations.append(a - squeeze_paths.reference_phase(p.n, 1.0))
    return _worst(deviations), 1e-9


def _check_invariance(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    """The phase of left-translated circles against the untranslated one, per draw; no stack."""
    deviations = []
    p = OscParams(1.0, (1.0,))
    path = squeeze_paths.squeeze_circle_path(1, 1.0 + (_FAULT_SIZE if fault else 0.0), p)
    base = squeeze_paths.squeeze_circle_path(1, 1.0, p)
    gamma0 = geometric_phase.integrate_phase(base, p).value
    for S0 in random_symplectics(rng, 1, min(count, 5)):
        _, translated, _ = geometric_phase.check_canonical_invariance(path, S0, p)
        deviations.append(translated - gamma0)
    return _worst(deviations), 1e-8


def _check_b_zero(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    """integrate_phase against phase_b_zero on one loop per draw; no stack. The fault scales G."""
    deviations = []
    bound = np.array([0.7, 1.0, 1.0])[:, None, None]  # the entries of K0, G0 and G1
    X = rng.uniform(-bound, bound, size=(min(count, 3), 3, 2, 2))
    for i, (K0, G0, G1) in enumerate(zip(X[:, 0], symmetric_part(X[:, 1]), symmetric_part(X[:, 2]))):
        plain = b_zero_loop(K0, G0, G1)
        special = b_zero_loop(K0, G0, G1, scale=1.0 + _FAULT_SIZE) if fault and i == 0 else plain
        full = geometric_phase.integrate_phase(plain, _P2)
        reduced = geometric_phase.phase_b_zero(special, _P2)
        deviations.append(full.value - reduced.value)
    return _worst(deviations), 1e-9


def _check_overlap(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    """numeric_overlap_n1 against the real weyl_amplitude as complex numbers, per draw; one reduction."""
    deviations = []
    X = rng.uniform([0.5, 0.5, 0.2, 0.0, -1, -1], [2.0, 2.0, 1.2, 2 * np.pi, 1, 1], (min(count, 5), 6))
    for i, (hbar, length, r, th, a, b) in enumerate(X.tolist()):
        p = OscParams(hbar, (length,))
        M = squeeze_paths.squeeze_matrix_n1(SqueezeSpec(1, r, th, p))
        overlap = gaussian_states.numeric_overlap_n1(M, p, a, b)
        a_used = a + (_FAULT_SIZE if fault and i == 0 else 0.0)
        deviations.append(overlap - gaussian_states.weyl_amplitude(M, p, [a_used], [b]))
    return _worst(deviations), 1e-9


CHECKS: dict[str, Callable[[np.random.Generator, int, bool], tuple[float, float]]] = {
    "closed_form": _check_closed_form,
    "coefficients": _check_coefficients,
    "symplectic": _check_symplectic,
    "two_form": _check_two_form,
    "invariance": _check_invariance,
    "b_zero": _check_b_zero,
    "overlap": _check_overlap,
}
