"""Rule constants and adaptive behavior of the internal quadrature engines."""
import numpy as np
import pytest

from sympberry._quadrature import (
    G7_WEIGHTS_EMBEDDED,
    GK15_NODES,
    GK15_WEIGHTS,
    QuadratureBudgetExceeded,
    _panel,
    adaptive_gauss_kronrod,
    fixed_gauss_kronrod,
    tanh_sinh_nodes,
)


def test_weights_sum_to_interval_length():
    assert abs(float(np.sum(GK15_WEIGHTS)) - 2.0) < 1e-15
    assert abs(float(np.sum(G7_WEIGHTS_EMBEDDED)) - 2.0) < 1e-15


def test_kronrod_polynomial_exactness_degree_22():
    # a 15-point Kronrod rule integrates monomials exactly through degree 22
    for k in range(0, 23):
        quad = float(GK15_WEIGHTS @ GK15_NODES**k)
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(quad - exact) < 5e-15, f"degree {k}"


def test_gauss_polynomial_exactness_degree_13():
    for k in range(0, 14):
        quad = float(G7_WEIGHTS_EMBEDDED @ GK15_NODES**k)
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(quad - exact) < 5e-15, f"degree {k}"

    # and degree 14 must NOT be exact, or the error estimate would be blind
    quad14 = float(G7_WEIGHTS_EMBEDDED @ GK15_NODES**14)
    assert abs(quad14 - 2.0 / 15) > 1e-6


def test_adaptive_known_integrals():
    value, error, evals = adaptive_gauss_kronrod(np.exp, 0.0, 1.0)
    assert abs(value - (np.e - 1.0)) < 1e-13
    assert error <= 1e-10
    assert evals >= 15

    value, _, _ = adaptive_gauss_kronrod(lambda x: np.sin(10 * x), 0.0, np.pi)
    assert abs(value - (1 - np.cos(10 * np.pi)) / 10) < 1e-12


def test_adaptive_refines_peaked_integrand():
    # narrow Lorentzian forces panel splitting
    f = lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-4)
    exact = (np.arctan(0.7 / 1e-2) - np.arctan(-0.3 / 1e-2)) / 1e-2
    calls = []

    def recorded(x):
        calls.append(len(x))
        return f(x)

    value, error, evals = adaptive_gauss_kronrod(recorded, 0.0, 1.0, tol=1e-9)
    assert evals > 15
    assert abs(value - exact) < 1e-8
    assert evals == 615
    # one call for the first panel, then one call per split for both halves
    assert calls == [15] + [30] * 20


def test_adaptive_deterministic():
    f = lambda x: np.exp(-3 * x) * np.cos(20 * x)
    first = adaptive_gauss_kronrod(f, 0.0, 2.0)
    second = adaptive_gauss_kronrod(f, 0.0, 2.0)
    assert first == second


def test_budget_exceeded():
    f = lambda x: 1.0 / ((x - 0.5) ** 2 + 1e-10)
    with pytest.raises(QuadratureBudgetExceeded) as info:
        adaptive_gauss_kronrod(f, 0.0, 1.0, tol=1e-12, max_evals=100)
    assert info.value.evaluations <= 100
    assert info.value.tol == 1e-12
    assert info.value.error > 1e-12


def test_bad_tolerance():
    with pytest.raises(ValueError):
        adaptive_gauss_kronrod(np.exp, 0.0, 1.0, tol=0.0)


def test_fixed_rule():
    calls = []

    def recorded(x):
        calls.append(len(x))
        return np.cos(x)

    value, error, evals = fixed_gauss_kronrod(recorded, 0.0, np.pi / 2, panels=16)
    assert calls == [16 * 15]
    assert abs(value - 1.0) < 1e-14
    assert evals == 16 * 15
    assert error >= 0
    with pytest.raises(ValueError):
        fixed_gauss_kronrod(np.cos, 0.0, 1.0, panels=0)


def test_fixed_rule_sums_panels_in_order():
    f = lambda x: np.exp(-3 * x) * np.cos(20 * x)
    edges = np.linspace(-0.5, 2.0, 7 + 1)
    value = error = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = _panel(f, a, b)
        value += v
        error += e
    assert fixed_gauss_kronrod(f, -0.5, 2.0, panels=7) == (value, error, 7 * 15)


@pytest.mark.parametrize(
    "bad",
    [
        lambda x: float(np.sum(x)),  # scalar
        lambda x: x[:-1],  # one value short
        lambda x: np.stack([x, x], axis=1),  # two values per node
    ],
)
def test_integrand_must_map_nodes_to_values(bad):
    with pytest.raises(ValueError, match="integrand returned shape"):
        adaptive_gauss_kronrod(bad, 0.0, 1.0)
    with pytest.raises(ValueError, match="integrand returned shape"):
        fixed_gauss_kronrod(bad, 0.0, 1.0, panels=3)


def test_tanh_sinh_gaussian_moment():
    # integral of a standard Gaussian over +-1 after rescaling to 8 sigma
    half = 8.0
    x, w = tanh_sinh_nodes(400)
    xs, ws = half * x, half * w
    value = float(np.sum(ws * np.exp(-(xs**2) / 2.0)) / np.sqrt(2 * np.pi))
    assert abs(value - 1.0) < 1e-14


def test_tanh_sinh_validation():
    with pytest.raises(ValueError):
        tanh_sinh_nodes(1)
