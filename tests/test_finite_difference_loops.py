"""Accuracy of loops given without a tangent, on compressed squeeze loops.

Each loop is M(t) = S0 exp_map(L(phi(t))): block-diagonal one-mode squeezes
L, mode j of radius R_j turning w_j times, a constant left translation S0,
and the monotone compression phi(t) = t + atan2(kappa sin 2 pi t,
1 - kappa cos 2 pi t) / pi. None of these moves the phase from its closed
form -pi sum_j w_j sinh^2(R_j). The path is given per point with no tangent
and closed, so the periodic trapezoid integrates it on the spectral
derivative of its own samples. The cases are drawn as the benchmark's
refined_loops cases are (seeds 1 and 5, n = 1, 2, 4, four kappa levels).
Each one's first bound is 1.5 times the deviation that the three-evaluation
central difference, (M(t + h) - M(t - h)) / 2h at the node M(t), gave on it;
the second is 1e-13 of the loop's scale pi sum_j |w_j| sinh^2(R_j), on the
node counts that the two-point stencil took.
"""
import math

import numpy as np
import pytest
import scipy.linalg

from sympberry import (
    LieAlgElement,
    OscParams,
    SympPath,
    check_canonical_invariance,
    exp_map,
    integrate_phase,
    integrate_phase_boundary_form,
    omega,
)

KAPPA = (0.35, 0.5, 0.6, 0.66)
R_LEVELS = (0.3, 0.5, 0.7, 0.9)
# deviation of the three-evaluation rule, per seed and n, one per kappa level
CENTRAL_DEVIATION = {
    (1, 1): (1.18e-11, 3.30e-10, 4.29e-10, 1.07e-08),
    (1, 2): (3.08e-10, 5.38e-10, 5.57e-09, 9.28e-09),
    (1, 4): (1.35e-09, 4.83e-09, 6.87e-09, 1.06e-08),
    (5, 1): (9.74e-12, 3.22e-10, 3.39e-10, 1.03e-08),
    (5, 2): (2.07e-10, 4.63e-10, 5.38e-09, 7.20e-09),
    (5, 4): (1.29e-09, 2.45e-09, 7.82e-09, 7.43e-09),
}
# trapezoid nodes per seed and n, one per kappa level
TRAPEZOID_NODES = {
    (1, 1): (64, 128, 128, 128),
    (1, 2): (64, 64, 128, 128),
    (1, 4): (64, 128, 128, 128),
    (5, 1): (64, 128, 128, 128),
    (5, 2): (64, 64, 128, 128),
    (5, 4): (64, 128, 128, 128),
}


def _loops(seed, batch=False):
    """Per n, four (path, params, closed form, scale), drawn in the refined_loops order."""
    rng = np.random.default_rng([seed, 2])
    loops = {}
    for n in (1, 2, 4):
        loops[n] = []
        for k, kappa_level in enumerate(KAPPA):
            levels = np.array([(k + j) % len(R_LEVELS) for j in range(n)])
            R = np.array([R_LEVELS[i] for i in levels]) + rng.uniform(-0.05, 0.05, n)
            windings = (1 + levels % 2) * rng.choice((-1, 1), size=n)
            kappa = kappa_level + rng.uniform(-0.01, 0.01)
            X = rng.uniform(-0.3, 0.3, size=(2 * n, 2 * n))
            S0 = exp_map(LieAlgElement(n, (X + X.T) / 2.0))
            p = OscParams(float(rng.uniform(0.5, 2.0)), tuple(rng.uniform(0.3, 3.0, size=n).tolist()))
            reference = float(-math.pi * np.sum(windings * np.sinh(R) ** 2))
            scale = float(math.pi * np.sum(np.abs(windings) * np.sinh(R) ** 2))
            loops[n].append((_loop_path(n, R, windings, kappa, S0, p, batch), p, reference, scale))
    return loops


def _loop_path(n, R, windings, kappa, S0, p, batch=False):
    """The loop per point, or with batch as an eval_batch of the same matrices as plain
    arrays, each S0.data @ scipy.linalg.expm(omega L) with no SympMatrix built."""
    l2 = np.asarray(p.lengths) ** 2
    idx = np.arange(n)

    def generator(t):
        theta = 2.0 * math.pi * t
        phi = t + math.atan2(kappa * math.sin(theta), 1.0 - kappa * math.cos(theta)) / math.pi
        angle = 2.0 * math.pi * windings * phi
        rs, rc = R * np.sin(angle), R * np.cos(angle)
        L = np.zeros((2 * n, 2 * n))
        L[idx, idx] = (p.hbar / l2) * rs
        L[idx, n + idx] = -rc
        L[n + idx, idx] = -rc
        L[n + idx, n + idx] = -(l2 / p.hbar) * rs
        return L

    if batch:
        eval_batch = lambda ts: np.array([S0.data @ scipy.linalg.expm(omega(n) @ generator(t)) for t in ts])
        return SympPath(n=n, eval_batch=eval_batch, closed=True)
    return SympPath(n=n, eval=lambda t: S0 @ exp_map(LieAlgElement(n, generator(t))), closed=True)


@pytest.mark.parametrize("seed, n", sorted(CENTRAL_DEVIATION))
def test_compressed_loop_phases_within_bound(seed, n):
    for (path, p, reference, _), deviation in zip(_loops(seed)[n], CENTRAL_DEVIATION[seed, n]):
        assert abs(integrate_phase(path, p).value - reference) <= 1.5 * deviation


@pytest.mark.parametrize("seed, n", sorted(TRAPEZOID_NODES))
def test_compressed_loops_meet_1e13_of_their_scale_on_the_stencil_node_counts(seed, n):
    for (path, p, reference, scale), nodes in zip(_loops(seed)[n], TRAPEZOID_NODES[seed, n]):
        result = integrate_phase(path, p)
        assert result.evaluations == nodes
        assert abs(result.value - reference) <= 1e-13 * scale


@pytest.mark.parametrize("n", [1, 2, 4])
def test_other_phase_forms_agree_on_the_spectral_tangent(n, rng, random_symplectic):
    # both read the samples that integrate_phase reads, each with their spectral derivative,
    # which is exact to rounding: no stencil error is left between the forms
    for path, p, _, _ in _loops(1)[n]:
        gamma = integrate_phase(path, p).value
        bound = 1e-14 * max(1.0, abs(gamma))
        assert abs(integrate_phase_boundary_form(path, p).value - gamma) <= bound
        original, _, diff = check_canonical_invariance(path, random_symplectic(rng, n), p)
        assert original == gamma and diff <= bound


@pytest.mark.parametrize("n", [1, 2])
def test_per_point_loop_integrates_as_its_matrices_given_as_a_stack(n):
    # exp_map and @ give their results only the group check: the data they hand the path
    # are the bits of the plain scipy exponential and product, node for node
    for (path, p, _, _), (stacked, _, _, _) in zip(_loops(1)[n], _loops(1, batch=True)[n]):
        assert repr(integrate_phase(path, p)) == repr(integrate_phase(stacked, p))  # float reprs round-trip
