"""Acceptance gate: one test per required capability, at the stated tolerance.

Run with -v to get the one pass/fail line per criterion. Every tolerance here
is load-bearing; loosening one is a correctness regression, not a flake fix.
"""
import time

import numpy as np
import scipy.linalg

from sympberry import (
    OscParams,
    Sp4Generator,
    check_canonical_invariance,
    closed_form_exp,
    coeff_closed,
    coeff_recurrence,
    covariance,
    covariance_quadrature,
    integrate_phase,
    integrate_phase_boundary_form,
    numeric_overlap_n1,
    omega,
    phase_b_zero,
    reference_phase,
    squeeze_circle_path,
    squeeze_matrix_n1,
    weyl_amplitude,
)
from sympberry import DegenerateEigenvalues, OverlapGrid, SqueezeSpec
from sympberry._random import random_generator, random_symmetric, random_symplectic
from sympberry.oracles import b_zero_loop

UNIT_1 = OscParams(1.0, (1.0,))
R_VALUES = (0.25, 0.5, 1.0, 2.0)


def test_criterion_01_one_mode_circle_phase():
    for R in R_VALUES:
        start = time.perf_counter()
        result = integrate_phase(squeeze_circle_path(1, R, UNIT_1), UNIT_1)
        elapsed = time.perf_counter() - start
        ref = reference_phase(1, R)
        assert abs(result.value - ref) <= 1e-8 * abs(ref)
        assert elapsed < 1.0


def test_criterion_02_two_mode_circle_phase_and_ratio():
    params = OscParams(1.0, (1.0, 1.0))
    for R in R_VALUES:
        two = integrate_phase(squeeze_circle_path(2, R, params), params)
        one = integrate_phase(squeeze_circle_path(1, R, UNIT_1), UNIT_1)
        ref = reference_phase(2, R)
        assert abs(two.value - ref) <= 1e-8 * abs(ref)
        assert abs(two.value / one.value - 2.0) <= 1e-9


def test_criterion_03_phase_independent_of_hbar_and_length():
    R = 1.0
    values_1 = [
        integrate_phase(
            squeeze_circle_path(1, R, OscParams(hbar, (l,))), OscParams(hbar, (l,))
        ).value
        for hbar in (0.5, 1.0, 2.0)
        for l in (0.3, 1.0, 3.0)
    ]
    ref_1 = reference_phase(1, R)
    assert max(values_1) - min(values_1) <= 1e-9 * abs(ref_1)
    assert all(abs(v - ref_1) <= 1e-8 * abs(ref_1) for v in values_1)

    values_2 = [
        integrate_phase(
            squeeze_circle_path(2, 0.5, OscParams(hbar, ls)), OscParams(hbar, ls)
        ).value
        for hbar in (0.5, 1.0, 2.0)
        for ls in ((0.3, 0.3), (1.0, 1.0), (3.0, 3.0), (0.3, 3.0))
    ]
    ref_2 = reference_phase(2, 0.5)
    assert max(values_2) - min(values_2) <= 1e-9 * abs(ref_2)


def test_criterion_04_closed_form_exponential_bulk():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(900):
        g = random_generator(rng)
        M = closed_form_exp(g)
        worst = max(worst, float(np.max(np.abs(M.data - scipy.linalg.expm(g.u_matrix())))))
    fallback_count = 0
    for _ in range(100):  # a = c = 0 always lands on the degenerate fallback
        g = Sp4Generator(
            a=np.zeros((2, 2)), b=rng.uniform(-1, 1, size=(2, 2)), c=np.zeros((2, 2))
        )
        M, branch = closed_form_exp(g, return_branch=True)
        fallback_count += branch == "degenerate-fallback"
        worst = max(worst, float(np.max(np.abs(M.data - scipy.linalg.expm(g.u_matrix())))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert fallback_count == 100
    assert elapsed < 10.0


def test_criterion_05_coefficient_closed_form():
    rng = np.random.default_rng(505)
    done = 0
    while done < 200:
        g = random_generator(rng)
        n = int(rng.integers(1, 11))
        try:
            closed = coeff_closed(g, n)
        except DegenerateEigenvalues:
            continue
        exact = coeff_recurrence(g, n)
        for x, y in zip(exact, closed):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(x))
        done += 1


def test_criterion_06_quadrature_covariance_purity():
    rng = np.random.default_rng(606)
    for _ in range(200):
        n = int(rng.integers(1, 3))
        Vq = covariance_quadrature(random_symplectic(rng, n)).data
        assert abs(np.linalg.det(2.0 * Vq) - 1.0) <= 1e-10
        mags = np.abs(np.linalg.eigvals(2.0 * omega(n) @ Vq))
        assert np.max(np.abs(mags - 1.0)) <= 1e-9


def test_criterion_07_canonical_invariance():
    rng = np.random.default_rng(707)
    cases = [(1, 1.0, UNIT_1), (2, 0.5, OscParams(1.0, (1.0, 1.0)))]
    for modes, R, params in cases:
        path = squeeze_circle_path(modes, R, params)
        for _ in range(10):
            S = random_symplectic(rng, modes)
            _, _, diff = check_canonical_invariance(path, S, params)
            assert diff <= 1e-8


def test_criterion_08_boundary_form_agreement():
    cases = [
        (1, 1.0, UNIT_1),
        (1, 0.5, OscParams(0.7, (1.4,))),
        (2, 0.5, OscParams(1.0, (1.0, 1.0))),
        (2, 1.0, OscParams(2.0, (0.5, 1.5))),
    ]
    for modes, R, params in cases:
        path = squeeze_circle_path(modes, R, params)
        direct = integrate_phase(path, params)
        boundary = integrate_phase_boundary_form(path, params)
        budget = direct.error_estimate + boundary.error_estimate + 1e-12
        assert abs(direct.value - boundary.value) <= budget
        # the endpoint trace pairing vanishes for every sampled state
        for t in (0.0, 0.2, 0.5, 0.8, 1.0):
            M = path.eval(t)
            V = covariance(M, params).data
            n = M.n
            trace = sum(V[n + i, i] - V[i, n + i] for i in range(n))
            assert abs(trace / (2.0 * params.hbar)) <= 1e-12


def test_criterion_09_b_zero_reduction():
    params = OscParams(0.9, (1.1, 0.8))
    for seed in range(20):
        r = np.random.default_rng(1000 + seed)
        K = r.uniform(-0.8, 0.8, size=(2, 2))
        G0, G1 = random_symmetric(r, 2, 0.6), random_symmetric(r, 2, 0.6)
        path = b_zero_loop((K - K.T) / 2.0, G0, G1, g0_weight=0.4)
        reduced = phase_b_zero(path, params)
        general = integrate_phase(path, params)
        assert abs(reduced.value - general.value) <= 1e-9 * max(1.0, abs(general.value))

    # pure-rotation paths (C = 0 throughout) integrate to exactly zero
    r = np.random.default_rng(909)
    K = r.uniform(-0.8, 0.8, size=(2, 2))
    path = b_zero_loop((K - K.T) / 2.0)
    assert abs(phase_b_zero(path, params).value) <= 1e-12


def test_criterion_10_kernel_overlap_oracle():
    rng = np.random.default_rng(1010)
    for _ in range(10):
        p = OscParams(rng.uniform(0.5, 2.0), (rng.uniform(0.5, 2.0),))
        spec = SqueezeSpec(
            modes=1,
            R=rng.uniform(0.1, 1.2),
            angle=rng.uniform(0.0, 2.0 * np.pi),
            params=p,
        )
        M = squeeze_matrix_n1(spec)
        a, b = rng.uniform(-1.0, 1.0, 2)
        value = numeric_overlap_n1(M, p, a, b)
        amp = weyl_amplitude(M, p, [a], [b])
        assert abs(abs(value) - amp) <= 1e-6
        refined = numeric_overlap_n1(M, p, a, b, OverlapGrid(points=800))
        assert abs(value - refined) < 1e-7
