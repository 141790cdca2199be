"""Checks on the benchmark's own case generators, result checks and tracing.

    python3 -m pytest bench/test_workloads.py -q
"""
import dataclasses
import math

import numpy as np

import run
import tracing
import workloads as w

import sympberry as sb


def test_same_seed_gives_same_cases():
    for build in (w.build_circles, w.build_loops):
        first, again, other = build(5), build(5), build(6)
        assert [c.reference for c in first] == [c.reference for c in again]
        assert [c.reference for c in first] != [c.reference for c in other]
    assert [c.seed for c in w.build_verify(5)] == [c.seed for c in w.build_verify(5)]


def test_mode_counts_are_balanced_in_blocks():
    modes = [c.n for c in w.build_loops(5)]
    for k in range(0, len(modes), 3):
        assert sorted(modes[k : k + 3]) == [1, 2, 4]
    modes = [c.modes for c in w.build_circles(5)]
    assert all(sorted(modes[k : k + 2]) == [1, 2] for k in range(0, len(modes), 2))


def test_circle_reference_matches_library_closed_form():
    for case in w.build_circles(5)[:8]:
        assert math.isclose(case.reference, sb.reference_phase(case.modes, case.R), rel_tol=1e-14)


def test_generated_loops_pass_path_validation():
    # SympPath construction checks symplecticity at five samples and closure
    for case in w.build_loops(11):
        assert w.loop_path(case).n == case.n


def test_loop_generator_is_squeeze_lie_n1_in_each_mode():
    case = next(c for c in w.build_loops(11) if c.n == 4)
    n = case.n
    for phi in (0.0, 0.37, 0.81):
        L = w.loop_generator(case, phi)
        expected = np.zeros_like(L)
        for j in range(n):
            spec = sb.SqueezeSpec(
                1, case.R[j], 2 * math.pi * case.windings[j] * phi,
                sb.OscParams(case.hbar, (case.lengths[j],)),
            )
            expected[np.ix_([j, n + j], [j, n + j])] = sb.squeeze_lie_n1(spec).data
        np.testing.assert_allclose(L, expected, rtol=0, atol=1e-12)


def test_reparametrization_is_monotone_from_zero_to_one():
    case = w.build_loops(11)[0]
    for kappa in (0.3, 0.7):
        c = dataclasses.replace(case, kappa=kappa)
        phi = [w.loop_phi(c, t) for t in np.linspace(0.0, 1.0, 401)]
        assert phi[0] == 0.0 and abs(phi[-1] - 1.0) < 1e-15
        assert np.all(np.diff(phi) > 0)


def test_first_case_of_each_workload_passes():
    for workload in w.WORKLOADS.values():
        assert workload.run(workload.build(3)[0])


def test_flipped_winding_reference_counts_as_failed_op():
    case = next(c for c in w.build_loops(3) if c.n == 1)
    flipped = case.windings.copy()
    flipped[0] = -flipped[0]
    bad = dataclasses.replace(case, reference=w.loop_reference(flipped, case.R))
    durations, relative, failed, _ = run.timed_loop(w.run_loop, [case, bad], 0.0, 2, 60.0)
    assert (len(durations), len(relative), failed) == (2, 2, 1)


def test_cancelling_windings_pass_against_zero_reference():
    # w = (1, -1) with R1 = R2: the reference is 0, but each mode's phase is not
    case = next(c for c in w.build_loops(3) if c.n == 2)
    windings, R = np.array([1, -1]), np.array([0.7, 0.7])
    balanced = dataclasses.replace(
        case, windings=windings, R=R, reference=w.loop_reference(windings, R)
    )
    assert balanced.reference == 0.0
    assert w.run_loop(balanced)


def test_traced_counts_and_restore():
    originals = (sb.integrate_phase, sb.SympPath, sb.SympMatrix.__post_init__)
    case = w.build_circles(3)[0]
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert tracer.run_op(0, w.run_circle, case)
    assert (sb.integrate_phase, sb.SympPath, sb.SympMatrix.__post_init__) == originals
    layers = tracing.summarize(tracer)
    assert layers["quadrature.evals_per_op"][0] == 15
    assert layers["geometric_phase.integrand_per_op"][0] == 15
    # 15 nodes plus 5 construction samples, one SympMatrix each
    assert layers["symplectic_core.sympmatrix_per_op"][0] == 20
    assert layers["symplectic_core.exp_map_per_op"][0] == 0
