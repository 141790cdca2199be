"""The cross-checks behind ``sympberry verify``, and the loop they share with the tests.

``CHECKS`` maps each check name, in report order, to ``(rng, count, fault)
-> (residual, tol)``: the worst disagreement of two independent routes to
one quantity over inputs drawn from rng in a fixed order, and the bound it
must stay under. fault perturbs one input by ``_FAULT_SIZE``, a negative
control the check must catch. Library layers are called through their
modules, so tracing that rebinds module functions sees these calls too;
scipy.linalg is imported where it is used.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import gaussian_states, geometric_phase, sp4_closed_form, squeeze_paths, symplectic_core
from ._random import random_generator, random_symmetric, random_symplectic
from .gaussian_states import OscParams
from .geometric_phase import SympPath
from .sp4_closed_form import DegenerateEigenvalues, Sp4Generator
from .squeeze_paths import SqueezeSpec
from .symplectic_core import GROUPED, SympMatrix

__all__ = ["CHECKS", "b_zero_loop", "expm_comparison"]

_FAULT_SIZE = 1e-3  # negative-control perturbation for verify --inject-fault


def b_zero_loop(
    K0, G0=None, G1=None, *, g0_weight: float | None = None, scale: float = 1.0
) -> SympPath:
    """The closed two-mode loop [[A, 0], [G A, A^{-T}]]: zero upper-right block.

    A(t) = expm(sin(2 pi t) K0); G(t) = scale (w(t) G0 + (1 - cos 2 pi t) G1),
    symmetric and periodic for symmetric G0, G1, with w(t) = sin(2 pi t) or
    the constant g0_weight. Without G0 and G1, G = 0: no shear, C = 0.
    Tangents are finite differences.
    """
    import scipy.linalg

    def eval_path(t: float) -> SympMatrix:
        s = np.sin(2.0 * np.pi * t)
        A = scipy.linalg.expm(s * K0)
        M = np.zeros((4, 4))
        M[:2, :2] = A
        M[2:, 2:] = np.linalg.inv(A).T
        if G0 is not None:
            w = s if g0_weight is None else g0_weight
            G = scale * (w * G0 + (1.0 - np.cos(2.0 * np.pi * t)) * G1)
            M[2:, :2] = G @ A
        return SympMatrix(2, M, GROUPED)

    return SympPath(n=2, eval=eval_path, closed=True)


def expm_comparison(g: Sp4Generator, oracle: Sp4Generator | None = None) -> tuple:
    """closed_form_exp(g) against scipy.linalg.expm of the oracle's U (g's by default).

    Returns (closed form, branch taken, generic exponential, max |difference|).
    """
    import scipy.linalg

    M, branch = sp4_closed_form.closed_form_exp(g, return_branch=True)
    generic = scipy.linalg.expm((g if oracle is None else oracle).u_matrix())
    return M, branch, generic, float(np.max(np.abs(M.data - generic)))


def _check_closed_form(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    worst = 0.0
    n_degenerate = max(20, count // 5)
    for i in range(count + n_degenerate):
        if i < count:
            g = random_generator(rng)
        else:
            # a = c = 0 forces the degenerate eigenvalue pair
            g = Sp4Generator(a=np.zeros((2, 2)), b=rng.uniform(-1, 1, size=(2, 2)), c=np.zeros((2, 2)))
        g_used = Sp4Generator(a=g.a, b=g.b + _FAULT_SIZE, c=g.c) if fault and i == 0 else g
        worst = max(worst, expm_comparison(g_used, g)[3])
    return worst, 1e-9


def _check_coefficients(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    worst = 0.0
    done = 0
    while done < count:
        g = random_generator(rng)
        g_used = Sp4Generator(a=g.a, b=g.b + _FAULT_SIZE, c=g.c) if fault and done == 0 else g
        try:
            for order in range(1, 11):
                exact = sp4_closed_form.coeff_recurrence(g, order)
                closed = sp4_closed_form.coeff_closed(g_used, order)
                for x, y in zip(exact, closed):
                    worst = max(worst, abs(x - y) / max(1.0, abs(x)))
        except DegenerateEigenvalues:
            continue
        done += 1
    return worst, 1e-9


def _check_symplectic(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    worst = 0.0
    p1 = OscParams(1.0, (1.0,))
    p2 = OscParams(1.0, (1.0, 1.0))
    for i in range(count):
        r = rng.uniform(0.0, 2.0)
        th = rng.uniform(0.0, 2.0 * np.pi)
        M1 = squeeze_paths.squeeze_matrix_n1(SqueezeSpec(1, r, th, p1)).data
        M2 = squeeze_paths.squeeze_matrix_n2(SqueezeSpec(2, r, th, p2)).data
        M3 = random_symplectic(rng, 1).data
        M4 = random_symplectic(rng, 2).data
        if fault and i == 0:
            M1 = M1 + _FAULT_SIZE
        worst = max(worst, *(symplectic_core.symplectic_residual(M) for M in (M1, M2, M3, M4)))
    return worst, 1e-9


# Non-unit hbar and unequal lengths, where the metric diag(l^2, hbar^2/l^2)
# is not the identity: a kernel that swapped or dropped its weights fails.
_P1 = OscParams(0.7, (1.4,))
_P2 = OscParams(2.0, (0.5, 1.5))


def _arc(path: SympPath, end: float) -> SympPath:
    """The open part t in [0, end] of path, rescaled to [0, 1]."""
    tangents = lambda ts: end * path.tangent_batch(end * ts)
    return SympPath(path.n, eval_batch=lambda ts: path.eval_batch(end * ts), tangent_batch=tangents)


def _check_two_form(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    """The connection against its covariance-plus-winding split on circles and their arcs t in
    [0, 0.3]: only an arc exposes a wrong Z0 or winding sign. The fault moves the split's R."""
    del rng, count  # deterministic check
    worst = 0.0
    for p in (_P1, _P2):
        R = 1.0 + (_FAULT_SIZE if fault else 0.0)
        circles = [squeeze_paths.squeeze_circle_path(p.n, r, p) for r in (1.0, R)]
        for direct, split in (circles, [_arc(c, 0.3) for c in circles]):
            a = geometric_phase.integrate_phase(direct, p).value
            worst = max(worst, abs(a - geometric_phase.integrate_phase_boundary_form(split, p).value))
    return worst, 1e-9


def _check_invariance(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    worst = 0.0
    p = OscParams(1.0, (1.0,))
    path = squeeze_paths.squeeze_circle_path(1, 1.0 + (_FAULT_SIZE if fault else 0.0), p)
    base = squeeze_paths.squeeze_circle_path(1, 1.0, p)
    gamma0 = geometric_phase.integrate_phase(base, p).value
    for _ in range(min(count, 5)):
        S0 = random_symplectic(rng, 1)
        _, translated, _ = geometric_phase.check_canonical_invariance(path, S0, p)
        worst = max(worst, abs(translated - gamma0))
    return worst, 1e-8


def _check_b_zero(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    """The general integrand against phase_b_zero on the same loop; the fault scales G."""
    worst = 0.0
    for i in range(min(count, 3)):
        K0 = rng.uniform(-0.7, 0.7, size=(2, 2))
        G0, G1 = random_symmetric(rng, 2), random_symmetric(rng, 2)
        plain = b_zero_loop(K0, G0, G1)
        special = b_zero_loop(K0, G0, G1, scale=1.0 + _FAULT_SIZE) if fault and i == 0 else plain
        full = geometric_phase.integrate_phase(plain, _P2)
        reduced = geometric_phase.phase_b_zero(special, _P2)
        worst = max(worst, abs(full.value - reduced.value))
    return worst, 1e-9


def _check_overlap(rng: np.random.Generator, count: int, fault: bool) -> tuple[float, float]:
    worst = 0.0
    for i in range(min(count, 5)):
        p = OscParams(float(rng.uniform(0.5, 2.0)), (float(rng.uniform(0.5, 2.0)),))
        r = float(rng.uniform(0.2, 1.2))
        th = float(rng.uniform(0.0, 2.0 * np.pi))
        M = squeeze_paths.squeeze_matrix_n1(SqueezeSpec(1, r, th, p))
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(-1.0, 1.0))
        overlap = gaussian_states.numeric_overlap_n1(M, p, a, b)
        a_used = a + (_FAULT_SIZE if fault and i == 0 else 0.0)
        worst = max(worst, abs(abs(overlap) - gaussian_states.weyl_amplitude(M, p, [a_used], [b])))
    return worst, 1e-9


CHECKS: dict[str, Callable[[np.random.Generator, int, bool], tuple[float, float]]] = {
    "closed_form": _check_closed_form,
    "coefficients": _check_coefficients,
    "symplectic": _check_symplectic,
    "two_form": _check_two_form,
    "invariance": _check_invariance,
    "b_zero": _check_b_zero,
    "overlap": _check_overlap,
}
