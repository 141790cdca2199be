"""Internal quadrature: two engines and one node set.

An adaptive Gauss-Kronrod (7, 15) rule for line integrals over [a, b], a
nested trapezoid rule for smooth periodic integrands on [0, 1], plus
tanh-sinh nodes for integrals of analytic, rapidly decaying integrands on a
finite window. The Kronrod constants are hardcoded; the test suite validates
them by polynomial exactness (degree 22 for K15, 13 for G7). The adaptive
engine returns after a first panel that meets the tolerance, and otherwise
keeps its P panels in a heap ordered by error: a split costs O(log P).
"""
from __future__ import annotations

import functools
import heapq
import math
from typing import Callable

import numpy as np

from .symplectic_core import _is_integer

__all__ = [
    "NonFiniteIntegrand",
    "QuadratureBudgetExceeded",
    "adaptive_gauss_kronrod",
    "tanh_sinh_nodes",
]

# Positive half of the 15-point Kronrod node set, descending. The odd-indexed
# entries are the embedded 7-point Gauss-Legendre nodes.
_GK_NODES_POS = np.array(
    [
        0.99145537112081264,
        0.94910791234275852,
        0.86486442335976907,
        0.74153118559939444,
        0.58608723546769113,
        0.40584515137739717,
        0.20778495500789847,
        0.0,
    ]
)
_K15_WEIGHTS_POS = np.array(
    [
        0.022935322010529225,
        0.063092092629978553,
        0.10479001032225018,
        0.14065325971552592,
        0.16900472663926790,
        0.19035057806478541,
        0.20443294007529889,
        0.20948214108472783,
    ]
)
# Gauss weights for nodes 1, 3, 5, 7 of the positive half (the G7 subset).
_G7_WEIGHTS_POS = np.array(
    [
        0.12948496616886969,
        0.27970539148927667,
        0.38183005050511894,
        0.41795918367346939,
    ]
)

# Full 15-point arrays on [-1, 1], ascending node order.
GK15_NODES = np.concatenate([-_GK_NODES_POS[:-1], _GK_NODES_POS[::-1]])
GK15_WEIGHTS = np.concatenate([_K15_WEIGHTS_POS[:-1], _K15_WEIGHTS_POS[::-1]])
_g7_full = np.zeros(15)
_g7_full[1:15:2] = np.concatenate([_G7_WEIGHTS_POS[:-1], _G7_WEIGHTS_POS[::-1]])
G7_WEIGHTS_EMBEDDED = _g7_full  # zero rows at pure-Kronrod nodes
_EPS = float(np.finfo(float).eps)
# the periodic grid (1/48 + k/N) mod 1 starts at N = 16 and doubles; at N = 16 * 2^j the
# shift is 2^j / 3 spacings, never a whole number, so every node keeps 1/(3N) from 0 and 1
_PERIODIC_SHIFT = 1.0 / 48.0
_PERIODIC_FIRST = 16


class NonFiniteIntegrand(ValueError):
    """The integrand, or a path sample or tangent behind it, is non-finite at a node."""


class QuadratureBudgetExceeded(RuntimeError):
    """Raised when the evaluation cap is reached before the tolerance."""

    def __init__(self, evaluations: int, tol: float, error: float):
        self.evaluations = evaluations
        self.tol = tol
        self.error = error
        super().__init__(
            f"quadrature budget exhausted: {evaluations} evaluations, "
            f"error estimate {error:.3e} above tolerance {tol:.3e}"
        )


def _checked_values(vals, nodes: np.ndarray) -> np.ndarray:
    """vals as floats of the nodes' shape, or ValueError; NonFiniteIntegrand names the
    first node with a non-finite value."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError(
            f"integrand returned shape {vals.shape} for {nodes.size} nodes; "
            f"expected {nodes.shape}"
        )
    finite = np.isfinite(vals)
    if not np.logical_and.reduce(finite):
        raise NonFiniteIntegrand(f"integrand is non-finite at t={nodes[np.argmax(~finite)]}")
    return vals


def _check_settings(tol, max_evals) -> None:
    """ValueError unless tol is positive and finite and max_evals an integer (bool is not a count)."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if tol == math.inf:
        raise ValueError("tolerance must be finite")
    if not _is_integer(max_evals):
        raise ValueError(f"budget must be an integer, got {max_evals!r}")


def _panels(f: Callable[[np.ndarray], np.ndarray], a, b) -> tuple:
    """G7K15 panels on [a_i, b_i], all nodes in one call of f.

    Returns the K15 values and |K15 - G7| estimates: scalars for float a and b,
    one per panel for 1-D arrays. f maps the node array to an array of
    integrand values of the same shape, checked by _checked_values.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    # float ends keep the first panel on Python floats: arrays add ~10% to a circle phase
    if isinstance(a, np.ndarray):
        grid = mid[:, None] + half[:, None] * GK15_NODES
    else:
        grid = mid + half * GK15_NODES
    nodes = grid.ravel()
    vals = _checked_values(f(nodes), nodes).reshape(grid.shape)
    # row-wise reductions give each panel the same sum whatever the panel
    # count, where a matrix-vector product may not
    k15 = half * np.add.reduce(vals * GK15_WEIGHTS, axis=-1)
    g7 = half * np.add.reduce(vals * G7_WEIGHTS_EMBEDDED, axis=-1)
    return k15, abs(k15 - g7)


def _left_sum(terms) -> float:
    """0.0 + t_1 + t_2 + ..., left to right: from Python 3.12 on, builtin sum compensates floats."""
    total = 0.0
    for term in terms:
        total += term
    return total


def adaptive_gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_evals: int = 10**6,
) -> tuple[float, float, int]:
    """Adaptive bisection refinement of G7K15 panels.

    f is called with a 1-D array of nodes and returns the integrand values
    as an array of the same shape; any other shape raises ValueError. The
    first panel is one call of 15 nodes, returned at once if it meets tol;
    each split evaluates both halves of the worst panel in one call of 30.
    As in QUADPACK, a heap keyed on (-error, left endpoint) finds the worst
    panel, the leftmost of equals, in O(log P); a running error total finds
    the stops, each decided on the exact re-sum (math.fsum).

    Returns (value, error_estimate, evaluations), where evaluations counts
    nodes. Panels are accumulated in left-endpoint order so the reduction is
    deterministic. Raises QuadratureBudgetExceeded if max_evals is reached
    first, NonFiniteIntegrand at the first call that returns a non-finite
    value, and ValueError unless a and b are finite, tol is positive and
    finite and max_evals an integer (bool is not a count).
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a!r}, {b!r}]")
    _check_settings(tol, max_evals)
    val, err = map(float, _panels(f, a, b))
    if err <= tol:  # + 0.0 as in the sums below, so a zero integral reads 0.0, not -0.0
        return val + 0.0, err + 0.0, 15
    heap = [(-err, a, b, val)]
    evals, total, slack = 15, err, err
    while True:
        # total is within 1.5 eps slack of the exact sum of the errors in the heap
        if total - 2 * _EPS * slack <= tol or evals + 30 > max_evals:
            try:
                total = slack = math.fsum(-p[0] for p in heap)
            except OverflowError:  # finite errors whose sum leaves the float range
                total = slack = math.inf
            if total <= tol:
                break
            if evals + 30 > max_evals:
                raise QuadratureBudgetExceeded(evals, tol, total)
        neg, pa, pb, _ = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        k15, errs = _panels(f, np.array([pa, pm]), np.array([pm, pb]))
        (v1, v2), (e1, e2) = k15.tolist(), errs.tolist()
        evals += 30
        heapq.heappush(heap, (-e1, pa, pm, v1))
        heapq.heappush(heap, (-e2, pm, pb, v2))
        slack += total - neg + e1 + e2
        total += e1 + e2 + neg
    heap.sort(key=lambda p: p[1])
    return _left_sum(p[3] for p in heap), _left_sum(-p[0] for p in heap), evals


def _periodic_nodes(count: int) -> np.ndarray:
    """The nodes that level count adds to the periodic grid (1/48 + k/count) mod 1:
    every k at the first level, odd k at each later one, in the order of k."""
    k = np.arange(count) if count == _PERIODIC_FIRST else np.arange(1, count, 2)
    return (_PERIODIC_SHIFT + k / count) % 1.0


def periodic_trapezoid(
    f: Callable[[np.ndarray], np.ndarray],
    tol: float,
    max_evals: int,
    values: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, float, int]:
    """Trapezoid rule on [0, 1] for a 1-periodic integrand, on a nested grid of N nodes.

    N starts at 16 and doubles, each level one call of f on its new nodes
    (_periodic_nodes): no node is evaluated twice, and none lies at 0 or 1.
    f returns samples stacked along axis 0, which are kept in grid order, and
    each level's integrand values are values(samples of all N nodes): an
    integrand that needs the whole grid, as a spectral derivative does (a
    scalar integrand passes values=lambda s: s). After each doubling, with c =
    |rfft(values in grid order)| / N, q2 = max c[N/4:] and q4 = max
    c[N/8:N/4], the estimate q2 (q2 / q4)^2 carries the spectrum's decay two
    octaves on, or is q2 if it does not fall (a kink keeps q2 / q4 near 1/2).
    Returns (mean of the values, estimate, N) once the estimate meets tol.
    Raises QuadratureBudgetExceeded, with the evaluations made and the last
    estimate (inf before the first doubling), when the next level would
    exceed max_evals; NonFiniteIntegrand, naming the grid t, and ValueError
    as adaptive_gauss_kronrod does.
    """
    _check_settings(tol, max_evals)
    samples, estimate, count = np.empty(0), math.inf, _PERIODIC_FIRST
    while count <= max_evals:
        nodes = _periodic_nodes(count)
        new = np.asarray(f(nodes))
        if new.shape[:1] != nodes.shape:
            raise ValueError(
                f"sampler returned shape {new.shape} for {nodes.size} nodes; "
                f"expected {nodes.size} samples along axis 0"
            )
        if count == _PERIODIC_FIRST:
            samples = new
        else:  # grid order: the old nodes at even k, the new ones at odd k
            samples = np.stack((samples, new), axis=1).reshape(count, *new.shape[1:])
        vals = _checked_values(values(samples), (_PERIODIC_SHIFT + np.arange(count) / count) % 1.0)
        if count > _PERIODIC_FIRST:
            spectrum = np.abs(np.fft.rfft(vals)) / count
            q2, q4 = spectrum[count // 4 :].max(), spectrum[count // 8 : count // 4].max()
            estimate = float(q2 if q2 >= q4 else q2 * (q2 / q4) ** 2)
        if estimate <= tol:
            return math.fsum(vals) / count, estimate, count
        count *= 2
    raise QuadratureBudgetExceeded(len(samples), tol, estimate)


@functools.lru_cache(maxsize=16)
def tanh_sinh_nodes(points: int, tmax: float = 4.0) -> tuple[np.ndarray, np.ndarray, float]:
    """Tanh-sinh nodes and weights on (-1, 1) and the widest node gap; cached, arrays read-only.

    The transform x = tanh((pi/2) sinh t) with a uniform t-grid gives
    spectral accuracy for integrands analytic on the interval.
    """
    if not _is_integer(points) or points < 2:
        raise ValueError(f"need an integer of at least 2 points, got {points!r}")
    t = np.linspace(-tmax, tmax, points)
    st = 0.5 * np.pi * np.sinh(t)
    x = np.tanh(st)
    w = (t[1] - t[0]) * 0.5 * np.pi * np.cosh(t) / np.cosh(st) ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w, float(np.diff(x).max())
