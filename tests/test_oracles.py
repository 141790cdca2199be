"""The verify oracles: checks that can fail, and the shared zero-B loop."""
import numpy as np
import pytest

from sympberry import OscParams, gaussian_states, geometric_phase, omega
from sympberry._random import random_symmetric
from sympberry.oracles import CHECKS, b_zero_loop


def _swapped_weights(integral):
    """integral with its metric diag(l^2, hbar^2/l^2) swapped to diag(hbar^2/l^2, l^2).

    Lengths hbar/l give exactly the swapped weights at the same hbar.
    """

    def swapped(path, p, quad=None):
        return integral(path, OscParams(p.hbar, tuple(p.hbar / l for l in p.lengths)), quad)

    return swapped


def _flipped_sign(winding):
    return lambda Ms, dMs, p: -winding(Ms, dMs, p)


def _dropped_hbar(winding):
    """winding with Z0 = i diag(1/l^2): the lengths alone, as at hbar = 1."""
    return lambda Ms, dMs, p: winding(Ms, dMs, OscParams(1.0, p.lengths))


FAULTS = {
    "integrate_phase_boundary_form": ("integrate_phase_boundary_form", _swapped_weights),
    "phase_b_zero": ("phase_b_zero", _swapped_weights),
    "winding_sign": ("_winding_values", _flipped_sign),
    "winding_hbar": ("_winding_values", _dropped_hbar),
}


@pytest.mark.parametrize(
    "check,fault",
    [
        ("two_form", "integrate_phase_boundary_form"),
        ("b_zero", "phase_b_zero"),
        ("two_form", "winding_sign"),
        ("two_form", "winding_hbar"),
    ],
)
def test_check_catches_swapped_metric_weights(monkeypatch, check, fault):
    residual, tol = CHECKS[check](np.random.default_rng(0), 25, False)
    assert residual <= tol
    name, make_faulty = FAULTS[fault]
    monkeypatch.setattr(geometric_phase, name, make_faulty(getattr(geometric_phase, name)))
    residual, tol = CHECKS[check](np.random.default_rng(0), 25, False)
    assert residual > tol


@pytest.mark.parametrize("check", ["overlap", "two_form"])
def test_checks_catch_a_frame_without_hbar(monkeypatch, check):
    # Z0 = i diag(1/l^2) instead of i hbar diag(1/l^2), in every module that binds the frame
    residual, tol = CHECKS[check](np.random.default_rng(0), 25, False)
    assert residual <= tol
    frame = gaussian_states._vacuum_frame
    dropped = lambda X, p: frame(X, OscParams(1.0, p.lengths))
    for module in (gaussian_states, geometric_phase):
        monkeypatch.setattr(module, "_vacuum_frame", dropped)
    residual, tol = CHECKS[check](np.random.default_rng(0), 25, False)
    assert residual > tol


def test_two_form_compares_two_routes():
    # the split shares no arithmetic with the direct integrand, so rounding shows
    residual, tol = CHECKS["two_form"](np.random.default_rng(0), 25, False)
    assert 0.0 < residual <= tol


def test_b_zero_loop_samples_keep_the_block_form():
    rng = np.random.default_rng(8)
    om = omega(2)
    ts = np.linspace(0.0, 1.0, 101)
    for _ in range(5):
        K0 = rng.uniform(-0.7, 0.7, size=(2, 2))
        G0, G1 = random_symmetric(rng, 2), random_symmetric(rng, 2)
        shear = np.array([b_zero_loop(K0, G0, G1).eval(t).data for t in ts])
        rotation = np.array([b_zero_loop(K0).eval(t).data for t in ts])
        for Ms in (shear, rotation):
            assert np.max(np.abs(Ms @ om @ Ms.transpose(0, 2, 1) - om)) <= 1e-13
            assert np.all(Ms[:, :2, 2:] == 0.0)
            np.testing.assert_allclose(Ms[:, 2:, 2:], np.linalg.inv(Ms[:, :2, :2]).transpose(0, 2, 1))
        assert np.all(rotation[:, 2:, :2] == 0.0)
