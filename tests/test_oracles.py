"""The verify oracles: checks that can fail, and the shared zero-B loop."""
import numpy as np
import pytest

from sympberry import OscParams, geometric_phase, omega
from sympberry._random import random_symmetric
from sympberry.oracles import CHECKS, b_zero_loop


def _swapped_weights(integral):
    """integral with its metric diag(l^2, hbar^2/l^2) swapped to diag(hbar^2/l^2, l^2).

    Lengths hbar/l give exactly the swapped weights at the same hbar.
    """

    def swapped(path, p, quad=None):
        return integral(path, OscParams(p.hbar, tuple(p.hbar / l for l in p.lengths)), quad)

    return swapped


@pytest.mark.parametrize(
    "check,integral", [("two_form", "integrate_phase_boundary_form"), ("b_zero", "phase_b_zero")]
)
def test_check_catches_swapped_metric_weights(monkeypatch, check, integral):
    residual, tol = CHECKS[check](np.random.default_rng(0), 25, False)
    assert residual <= tol
    faulty = _swapped_weights(getattr(geometric_phase, integral))
    monkeypatch.setattr(geometric_phase, integral, faulty)
    residual, tol = CHECKS[check](np.random.default_rng(0), 25, False)
    assert residual > tol


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
