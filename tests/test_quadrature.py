"""Rule constants and adaptive behavior of the internal quadrature engines."""
import math
import re

import numpy as np
import pytest
import scipy.special

from sympberry import _quadrature
from sympberry._quadrature import (
    G7_WEIGHTS_EMBEDDED,
    GK15_NODES,
    GK15_WEIGHTS,
    NonFiniteIntegrand,
    QuadratureBudgetExceeded,
    _left_sum,
    _panels,
    _periodic_nodes,
    adaptive_gauss_kronrod,
    periodic_trapezoid,
    tanh_sinh_nodes,
)

# The two engines on [0, 1], called alike, with the ascending nodes of each one's first call.
# The engine-contract tests below run on both.
ENGINES = {
    "gauss_kronrod": (
        lambda f, tol=1e-10, max_evals=10**6: adaptive_gauss_kronrod(f, 0.0, 1.0, tol, max_evals),
        0.5 + 0.5 * GK15_NODES,
    ),
    "periodic_trapezoid": (
        lambda f, tol=1e-10, max_evals=10**6: periodic_trapezoid(f, tol, max_evals, values=lambda s: s),
        _periodic_nodes(16),
    ),
}


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
    for engine, _ in ENGINES.values():
        with pytest.raises(QuadratureBudgetExceeded) as info:
            engine(f, tol=1e-12, max_evals=100)
        assert info.value.evaluations <= 100
        assert info.value.tol == 1e-12
        assert info.value.error > 1e-12


def test_bad_tolerance():
    for engine, _ in ENGINES.values():
        with pytest.raises(ValueError):
            engine(np.exp, tol=0.0)


@pytest.mark.parametrize("tol", [math.inf, np.inf, np.float64("inf")], ids=["inf0", "inf1", "inf2"])
def test_infinite_tolerance_is_rejected(tol):
    for engine, _ in ENGINES.values():
        with pytest.raises(ValueError, match="^tolerance must be finite$"):
            engine(np.exp, tol=tol)


# The engine as it was before its panels moved to a heap: every split rescans the panel
# list for the worst panel, and every stop is decided on a fresh sum of the errors. The
# heap engine must do the same work and return the same numbers.
def _reference_adaptive(f, a, b, tol=1e-10, max_evals=10**6):
    k15, err = _panels(f, a, b)
    panels = [(a, b, float(k15), float(err))]
    evals = 15
    while True:
        total_err = sum(p[3] for p in panels)
        if total_err <= tol:
            break
        if evals + 30 > max_evals:
            raise QuadratureBudgetExceeded(evals, tol, total_err)
        # split the panel with the largest error; ties break on left endpoint
        worst = max(range(len(panels)), key=lambda i: (panels[i][3], -panels[i][0]))
        pa, pb, _, _ = panels.pop(worst)
        pm = 0.5 * (pa + pb)
        (v1, v2), (e1, e2) = _panels(f, np.array([pa, pm]), np.array([pm, pb]))
        evals += 30
        panels.append((pa, pm, float(v1), float(e1)))
        panels.append((pm, pb, float(v2), float(e2)))
    panels.sort(key=lambda p: p[0])
    return float(sum(p[2] for p in panels)), float(sum(p[3] for p in panels)), evals


def _noisy(x):
    return np.sin(x) + 1e-9 * np.sin(1e7 * x)


@pytest.mark.parametrize(
    "f, a, b, tol",
    [
        (lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-8), 0.0, 1.0, 1e-9),  # deep refinement
        (lambda x: 1.0 / ((x - 0.5) ** 2 + 1e-6), 0.0, 1.0, 1e-10),  # a symmetric peak
        # a first error near 1e8: a running total of the panel errors drifts by more than tol
        (lambda x: 1e-8 / ((x - 0.5) ** 2 + 1e-16), 0.0, 1.0, 1e-10),
        (lambda x: np.abs(x - 0.5) ** 0.5, 0.0, 1.0, 1e-12),  # a kink at the midpoint
        (lambda x: np.exp(-3 * x) * np.cos(20 * x), 0.0, 2.0, 1e-10),
        (lambda x: np.zeros_like(x), 0.0, 1.0, 1e-10),  # one panel
        (_noisy, 0.0, 1.0, 1e-10),
    ],
)
def test_heap_engine_matches_the_rescanning_reference(f, a, b, tol):
    assert adaptive_gauss_kronrod(f, a, b, tol=tol) == _reference_adaptive(f, a, b, tol=tol)


def test_a_zero_integral_reads_positive_zero():
    # from 1 to 0 the half-width is negative, so the one panel's K15 sum is -0.0
    value, error, evals = adaptive_gauss_kronrod(np.zeros_like, 1.0, 0.0)
    assert (math.copysign(1.0, value), error, evals) == (1.0, 0.0, 15)


# Every panel sees the same 15 values, so panels of one width tie exactly, and each split
# halves a panel's error without lowering the total: refinement never converges.
_SAME_ON_EVERY_PANEL = np.cos(np.arange(15.0))


def _tiled(x):
    return np.tile(_SAME_ON_EVERY_PANEL, x.size // 15)


def test_equal_errors_split_the_leftmost_panel_first():
    lefts = []

    def recorded(x):
        if x.size == 30:  # a split: x[7] and x[22] are the centres of its halves
            lefts.append(float(x[7] - (x[22] - x[7]) / 2))
        return _tiled(x)

    with pytest.raises(QuadratureBudgetExceeded) as info:
        adaptive_gauss_kronrod(recorded, 0.0, 1.0, tol=1e-3, max_evals=15 + 7 * 30)
    assert lefts == [0.0, 0.0, 0.5, 0.0, 0.25, 0.5, 0.75]
    with pytest.raises(QuadratureBudgetExceeded) as reference:
        _reference_adaptive(_tiled, 0.0, 1.0, tol=1e-3, max_evals=15 + 7 * 30)
    assert (info.value.evaluations, info.value.error) == (225, reference.value.error)


@pytest.mark.parametrize("f, tol, max_evals", [(_tiled, 1e-3, 1000), (_noisy, 1e-13, 3000)])
def test_small_budget_raises_as_the_reference_does(f, tol, max_evals):
    with pytest.raises(QuadratureBudgetExceeded) as info:
        adaptive_gauss_kronrod(f, 0.0, 1.0, tol=tol, max_evals=max_evals)
    with pytest.raises(QuadratureBudgetExceeded) as reference:
        _reference_adaptive(f, 0.0, 1.0, tol=tol, max_evals=max_evals)
    assert info.value.evaluations == reference.value.evaluations
    assert info.value.error == pytest.approx(reference.value.error, rel=1e-12)
    assert str(info.value) == str(reference.value)


def test_noisy_integrand_exhausts_the_budget_after_the_reference_count():
    # the count and error of the rescanning engine, whose scan of about 10^4 panels per split
    # makes this case take seconds; the heap engine takes a small fraction of that
    with pytest.raises(QuadratureBudgetExceeded) as info:
        adaptive_gauss_kronrod(_noisy, 0.0, 1.0, tol=1e-13, max_evals=3 * 10**5)
    assert info.value.evaluations == 299985
    assert info.value.error == pytest.approx(5.647856441532177e-11, rel=1e-12)


@pytest.mark.parametrize(
    "bad",
    [
        lambda x: float(np.sum(x)),  # scalar
        lambda x: x[:-1],  # one value short
        lambda x: np.stack([x, x], axis=1),  # two values per node
    ],
)
def test_integrand_must_map_nodes_to_values(bad):
    for name, (engine, nodes) in ENGINES.items():
        message = f"^integrand returned shape .* for {nodes.size} nodes; expected \\({nodes.size},\\)$"
        if name == "periodic_trapezoid" and np.shape(bad(nodes))[:1] != nodes.shape:
            # the trapezoid refuses a sample stack of the wrong length before it maps it to values
            message = f"^sampler returned shape .* for {nodes.size} nodes; expected {nodes.size} samples along axis 0$"
        with pytest.raises(ValueError, match=message):
            engine(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_integrand_stops_at_the_first_call(bad):
    for engine, nodes in ENGINES.values():
        calls = []

        def f(x):
            calls.append(x.size)
            return np.where(x > 0.3, bad, 1.0)

        first = nodes[nodes > 0.3][0]
        with pytest.raises(NonFiniteIntegrand, match=f"^integrand is non-finite at t={first}$"):
            engine(f)
        assert calls == [nodes.size]


@pytest.mark.parametrize("a, b", [(0.0, np.nan), (np.nan, 1.0), (-np.inf, 0.0), (0.0, math.inf)])
def test_non_finite_bound_is_refused_before_any_call(a, b):
    calls = []
    with pytest.raises(ValueError, match=r"^integration bounds must be finite, got \["):
        adaptive_gauss_kronrod(lambda x: calls.append(x.size) or np.ones_like(x), a, b)
    assert calls == []


def test_tanh_sinh_gaussian_moment():
    # integral of a standard Gaussian over +-1 after rescaling to 8 sigma
    half = 8.0
    x, w, _ = tanh_sinh_nodes(400)
    xs, ws = half * x, half * w
    value = float(np.sum(ws * np.exp(-(xs**2) / 2.0)) / np.sqrt(2 * np.pi))
    assert abs(value - 1.0) < 1e-14


def test_tanh_sinh_validation():
    with pytest.raises(ValueError):
        tanh_sinh_nodes(1)
    for points in (2.5, True):  # a count is an integer, and bool is not one
        with pytest.raises(ValueError, match=re.escape(f"got {points!r}")):
            tanh_sinh_nodes(points)


def test_tanh_sinh_nodes_are_cached_read_only():
    x, w, gap = tanh_sinh_nodes(400)
    again = tanh_sinh_nodes(400)
    assert again[0] is x and again[1] is w and gap == float(np.diff(x).max())
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert tanh_sinh_nodes(400, 3.0)[0] is not x


@pytest.mark.parametrize("max_evals", [True, np.True_, 1e6], ids=["True", "max_evals1", "1000000.0"])
def test_adaptive_rule_refuses_a_non_integer_budget(max_evals):
    calls = []

    def f(x):
        calls.append(x.size)
        return np.cos(x)

    for engine, _ in ENGINES.values():
        with pytest.raises(ValueError, match=re.escape(f"budget must be an integer, got {max_evals!r}")):
            engine(f, max_evals=max_evals)
    assert calls == []  # refused before the first call
    assert adaptive_gauss_kronrod(np.cos, 0.0, 1.0, max_evals=np.int64(15))[2] == 15
    assert periodic_trapezoid(lambda t: np.cos(2.0 * np.pi * t), 1e-10, np.int64(32), values=lambda s: s)[2] == 32


# Panel sums that a compensated sum (builtin sum from Python 3.12 on, or math.fsum) reads
# differently: left to right, 1e16 + 1 rounds back to 1e16.
_VALUES, _VALUES_LEFT, _VALUES_EXACT = [1e16, 1.0, -1e16], 0.0, 1.0
_ERRORS, _ERRORS_LEFT, _ERRORS_EXACT = [1e16, 1.0, 1.0], 1e16, 1e16 + 2.0


def test_left_sum_adds_left_to_right_on_every_python():
    assert math.fsum(_VALUES) == _VALUES_EXACT and math.fsum(_ERRORS) == _ERRORS_EXACT
    assert _left_sum(_VALUES) == _VALUES_LEFT
    assert _left_sum(iter(_ERRORS)) == _ERRORS_LEFT
    assert repr(_left_sum([-0.0])) == "0.0"


def test_adaptive_rule_adds_its_panels_left_to_right(monkeypatch):
    # [0, 1] splits into [0, 1/2] and [1/2, 1], then [0, 1/2] into quarters; the three
    # final panels, in left-endpoint order, carry _VALUES and _ERRORS
    table = {
        (0.0, 0.5): (0.0, 1e17),
        (0.5, 1.0): (_VALUES[2], _ERRORS[2]),
        (0.0, 0.25): (_VALUES[0], _ERRORS[0]),
        (0.25, 0.5): (_VALUES[1], _ERRORS[1]),
    }

    def panels(f, a, b):
        if not isinstance(a, np.ndarray):
            return 0.0, 1e18
        rows = [table[ab] for ab in zip(a.tolist(), b.tolist())]
        return tuple(np.array(col) for col in zip(*rows))

    monkeypatch.setattr(_quadrature, "_panels", panels)
    assert adaptive_gauss_kronrod(np.cos, 0.0, 1.0, tol=3e16) == (_VALUES_LEFT, _ERRORS_LEFT, 75)


# ---------------------------------------------------------------------------
# the periodic trapezoid


def test_periodic_trapezoid_is_spectrally_accurate():
    # exp(cos 2 pi t) integrates to the modified Bessel value I0(1)
    f = lambda t: np.exp(np.cos(2.0 * np.pi * t))
    value, error, evals = periodic_trapezoid(f, 1e-10, 10**6, values=lambda s: s)
    assert abs(value - scipy.special.i0(1.0)) <= 1e-15
    assert error <= 1e-10 and evals <= 64


def test_periodic_trapezoid_evaluates_every_node_once():
    # a jump at 0.3 never passes the stop test, so the rule doubles up to its budget
    calls = []

    def f(t):
        calls.append(t)
        return np.where(t < 0.3, 1.0, 0.0)

    with pytest.raises(QuadratureBudgetExceeded) as info:
        periodic_trapezoid(f, 1e-10, 1024, values=lambda s: s)
    assert [t.size for t in calls] == [16, 16, 32, 64, 128, 256, 512]
    nodes = np.concatenate(calls)
    assert info.value.evaluations == nodes.size == np.unique(nodes).size == 1024
    assert np.array_equal(np.sort(nodes), np.sort((1.0 / 48.0 + np.arange(1024) / 1024) % 1.0))


def test_periodic_grid_keeps_clear_of_the_ends():
    # no node lies on 0 or 1, where a loop closed only to its closure check has two values;
    # up to 2^19 nodes every node sits at least a third of a spacing, over 5e-7, from an end
    for level in range(4, 20):
        nodes = _periodic_nodes(2**level)
        assert nodes.size == (16 if level == 4 else 2 ** (level - 1))
        assert min(nodes.min(), 1.0 - nodes.max()) > 5e-7


def test_periodic_trapezoid_stops_on_a_constant_at_the_first_doubling():
    with np.errstate(all="raise"):  # a flat spectrum has q2 = q4 = 0: no 0 / 0
        assert periodic_trapezoid(lambda t: np.full_like(t, 2.5), 1e-10, 10**6, values=lambda s: s) == (2.5, 0.0, 32)


@pytest.mark.parametrize("max_evals, evaluations", [(15, 0), (16, 16), (100, 64), (256, 256)])
def test_periodic_trapezoid_stops_before_a_level_over_its_budget(max_evals, evaluations):
    with pytest.raises(QuadratureBudgetExceeded) as info:
        periodic_trapezoid(lambda t: np.where(t < 0.3, 1.0, 0.0), 1e-10, max_evals, values=lambda s: s)
    assert info.value.evaluations == evaluations <= max_evals


def _grid(count):
    return (1.0 / 48.0 + np.arange(count) / count) % 1.0


def test_periodic_values_see_every_sample_in_grid_order():
    # f returns a stack of samples per new node; values maps the whole grid to the integrand
    calls, grids = [], []

    def f(t):
        calls.append(t.size)
        return np.stack([t, np.cos(2.0 * np.pi * t)], axis=1)

    def values(samples):
        grids.append(samples[:, 0].copy())
        return np.exp(samples[:, 1])

    value, error, evals = periodic_trapezoid(f, 1e-10, 10**6, values=values)
    assert abs(value - scipy.special.i0(1.0)) <= 1e-15
    assert error <= 1e-10 and evals == sum(calls) == grids[-1].size
    assert calls == [16] + [g.size // 2 for g in grids[1:]]
    for grid in grids:
        assert np.array_equal(grid, _grid(grid.size))


@pytest.mark.parametrize("bad", [lambda t: t[:-1], lambda t: float(np.sum(t))], ids=["short", "scalar"])
def test_periodic_values_path_refuses_a_stack_of_wrong_length(bad):
    message = r"^sampler returned shape .* for 16 nodes; expected 16 samples along axis 0$"
    with pytest.raises(ValueError, match=message):
        periodic_trapezoid(bad, 1e-10, 10**6, values=lambda samples: samples)


def test_periodic_values_must_map_the_grid_to_values():
    message = r"^integrand returned shape \(16, 2\) for 16 nodes; expected \(16,\)$"
    with pytest.raises(ValueError, match=message):
        periodic_trapezoid(lambda t: np.stack([t, t], axis=1), 1e-10, 10**6, values=lambda s: s)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_periodic_values_name_the_grid_t_of_a_non_finite_value(bad):
    # finite at 16 nodes; at 32 the first t over 0.32 is grid node 10, a sample of the first level
    values = lambda s: np.where((s.size == 32) & (s > 0.32), bad, 1.0 + np.sin(2.0 * np.pi * s))
    first = _grid(32)[10]
    assert first == _periodic_nodes(16)[5] and _grid(32)[9] < 0.32 < first
    with pytest.raises(NonFiniteIntegrand, match=f"^integrand is non-finite at t={first}$"):
        periodic_trapezoid(lambda t: t, 1e-10, 10**6, values=values)
