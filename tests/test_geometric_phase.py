"""Phase line integrals: direct, boundary, and reduced forms, plus path checks."""
import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympberry import (
    GROUPED,
    NonFiniteIntegrand,
    NotBZeroForm,
    OscParams,
    PhaseResult,
    QuadSpec,
    QuadratureBudgetExceeded,
    SympMatrix,
    SympPath,
    check_canonical_invariance,
    connection_integrand,
    exp_map,
    integrate_phase,
    integrate_phase_boundary_form,
    omega,
    phase_b_zero,
    polygon_phase,
    reference_phase,
    squeeze_circle_path,
)
from sympberry import gaussian_states, geometric_phase, symplectic_core
from sympberry._quadrature import GK15_NODES, _periodic_nodes
from sympberry.oracles import b_zero_loop
from sympberry.symplectic_core import LieAlgElement

UNIT_PARAMS = OscParams(1.0, (1.0,))
REFERENCE_R1 = -4.3388468454428593  # -pi sinh(1)^2
# the nodes of the adaptive rule's first split: both halves of [0, 1]
SPLIT_NODES = np.concatenate([0.25 + 0.25 * GK15_NODES, 0.75 + 0.25 * GK15_NODES])


def _constant_path(n=1):
    M = SympMatrix(n, np.eye(2 * n), GROUPED)
    return SympPath(n=n, eval=lambda t: M, tangent=lambda t: np.zeros((2 * n, 2 * n)), closed=True)


def test_connection_integrand_zero_tangent(rng, random_symplectic):
    M = random_symplectic(rng, 2)
    p = OscParams(0.7, (1.1, 0.6))
    assert connection_integrand(M, np.zeros((4, 4)), p) == 0.0


def test_connection_integrand_linear_in_tangent(rng, random_symplectic):
    M = random_symplectic(rng, 1)
    dM = rng.uniform(-1, 1, size=(2, 2))
    p = OscParams(1.3, (0.8,))
    one = connection_integrand(M, dM, p)
    two = connection_integrand(M, 2.0 * dM, p)
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_connection_integrand_shape_checks(rng, random_symplectic):
    M = random_symplectic(rng, 1)
    with pytest.raises(ValueError):
        connection_integrand(M, np.zeros((4, 4)), UNIT_PARAMS)
    with pytest.raises(ValueError):
        connection_integrand(M, np.zeros((2, 2)), OscParams(1.0, (1.0, 1.0)))


@pytest.mark.parametrize(
    "field,value",
    [
        ("max_evals", 1e6),
        ("max_evals", "45"),
        ("max_evals", True),  # bool is a subclass of int, but not a count
        ("max_evals", np.True_),
    ],
    ids=["max_evals-1000000.0", "max_evals-45", "max_evals-True", "max_evals-value3"],
)
def test_quad_spec_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match="integer"):
        QuadSpec(**{field: value})
    assert QuadSpec(**{field: np.int64(64)}).max_evals == 64


def test_quad_spec_validation():
    assert [f.name for f in dataclasses.fields(QuadSpec)] == ["tol", "max_evals"]
    with pytest.raises(ValueError):
        QuadSpec(tol=0.0)
    for tol, reason in ((np.inf, "finite"), (np.nan, "positive"), (-np.inf, "positive")):
        with pytest.raises(ValueError, match=f"^tolerance must be {reason}, got {tol!r}$"):
            QuadSpec(tol=tol)
    with pytest.raises(ValueError):
        QuadSpec(max_evals=10)


def test_phase_result_validation():
    with pytest.raises(ValueError):
        PhaseResult(value=np.nan, error_estimate=0.0, evaluations=15)
    with pytest.raises(ValueError):
        PhaseResult(value=0.0, error_estimate=-1.0, evaluations=15)


def test_symp_path_validation():
    bad = np.eye(2)
    bad[0, 0] = 1.5  # det != 1
    with pytest.raises(ValueError):
        SympPath(n=1, eval=lambda t: SympMatrix(1, bad, GROUPED, tol_symp=10.0))
    with pytest.raises(TypeError):
        SympPath(n=1, eval=lambda t: np.eye(2))
    with pytest.raises(ValueError):  # declared two modes, delivers one
        SympPath(n=2, eval=lambda t: SympMatrix(1, np.eye(2), GROUPED))

    def drifting(t):  # open curve: closure must fail
        L = LieAlgElement(1, np.diag([t, t]))
        return exp_map(L)

    with pytest.raises(ValueError):
        SympPath(n=1, eval=drifting, closed=True)
    SympPath(n=1, eval=drifting, closed=False)  # fine as an open path


def test_finite_difference_matches_analytic_tangent():
    with_tangent = squeeze_circle_path(1, 1.0, UNIT_PARAMS)
    without = SympPath(n=1, eval=with_tangent.eval, closed=True)
    for t in (0.0, 0.17, 0.5, 0.93, 1.0):
        fd = without.derivative(t)
        exact = with_tangent.derivative(t)
        assert np.max(np.abs(fd - exact)) <= 1e-7


def test_integrate_phase_constant_path():
    result = integrate_phase(_constant_path(), UNIT_PARAMS)
    assert result.value == 0.0
    assert result.error_estimate >= 0.0
    assert result.evaluations >= 15


def test_integrate_phase_squeeze_circle():
    path = squeeze_circle_path(1, 1.0, UNIT_PARAMS)
    result = integrate_phase(path, UNIT_PARAMS)
    assert result.value == pytest.approx(REFERENCE_R1, rel=1e-10)
    assert result.evaluations == 15  # constant integrand: one panel


def test_integrate_phase_nonfinite_tangent():
    path = squeeze_circle_path(1, 0.5, UNIT_PARAMS)
    broken = SympPath(
        n=1, eval=path.eval, tangent=lambda t: np.full((2, 2), np.nan), closed=True
    )
    with pytest.raises(NonFiniteIntegrand):
        integrate_phase(broken, UNIT_PARAMS)


def test_reparameterization_invariance():
    base = squeeze_circle_path(1, 0.8, UNIT_PARAMS)

    def s(t):
        return t - np.sin(2.0 * np.pi * t) / (4.0 * np.pi)

    def ds(t):
        return 1.0 - np.cos(2.0 * np.pi * t) / 2.0

    warped = SympPath(
        n=1,
        eval=lambda t: base.eval(s(t)),
        tangent=lambda t: ds(t) * base.derivative(s(t)),
        closed=True,
    )
    a = integrate_phase(base, UNIT_PARAMS).value
    b = integrate_phase(warped, UNIT_PARAMS).value
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_orientation_reversal_negates():
    base = squeeze_circle_path(1, 0.8, UNIT_PARAMS)
    reverse = SympPath(
        n=1,
        eval=lambda t: base.eval(1.0 - t),
        tangent=lambda t: -base.derivative(1.0 - t),
        closed=True,
    )
    a = integrate_phase(base, UNIT_PARAMS).value
    b = integrate_phase(reverse, UNIT_PARAMS).value
    assert abs(a + b) <= 1e-9 * max(1.0, abs(a))


def test_additivity_over_concatenation():
    base = squeeze_circle_path(1, 0.8, UNIT_PARAMS)
    first = SympPath(
        n=1,
        eval=lambda t: base.eval(0.5 * t),
        tangent=lambda t: 0.5 * base.derivative(0.5 * t),
    )
    second = SympPath(
        n=1,
        eval=lambda t: base.eval(0.5 + 0.5 * t),
        tangent=lambda t: 0.5 * base.derivative(0.5 + 0.5 * t),
    )
    whole = integrate_phase(base, UNIT_PARAMS).value
    parts = (
        integrate_phase(first, UNIT_PARAMS).value
        + integrate_phase(second, UNIT_PARAMS).value
    )
    assert abs(whole - parts) <= 1e-9 * max(1.0, abs(whole))


def test_boundary_form_matches_direct_on_circle():
    p = OscParams(0.9, (1.2,))
    path = squeeze_circle_path(1, 1.0, p)
    direct = integrate_phase(path, p)
    boundary = integrate_phase_boundary_form(path, p)
    assert abs(direct.value - boundary.value) <= 1e-8


def test_boundary_form_two_modes():
    p = OscParams(1.0, (1.0, 1.0))
    path = squeeze_circle_path(2, 0.5, p)
    direct = integrate_phase(path, p)
    boundary = integrate_phase_boundary_form(path, p)
    assert abs(direct.value - boundary.value) <= 1e-8


def test_boundary_form_constant_path():
    result = integrate_phase_boundary_form(_constant_path(), UNIT_PARAMS)
    assert result.value == 0.0


def test_boundary_form_open_path_matches_direct_without_warning():
    base = squeeze_circle_path(1, 0.6, UNIT_PARAMS)
    half = SympPath(
        n=1,
        eval=lambda t: base.eval(0.5 * t),
        tangent=lambda t: 0.5 * base.derivative(0.5 * t),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        open_result = integrate_phase_boundary_form(half, UNIT_PARAMS)
    # both forms integrate the same connection; neither adds a closing term
    direct = integrate_phase(half, UNIT_PARAMS)
    assert abs(open_result.value - direct.value) <= 1e-13 * abs(direct.value)
    assert open_result.evaluations == direct.evaluations


def _rotation_loop():
    """M(t) = R(2 pi t), the phase-space rotation: a loop that winds once."""
    def rotation(a):
        return np.stack([np.cos(a), np.sin(a), -np.sin(a), np.cos(a)], -1).reshape(-1, 2, 2)

    return SympPath(
        n=1,
        closed=True,
        eval_batch=lambda ts: rotation(2.0 * np.pi * ts),
        tangent_batch=lambda ts: 2.0 * np.pi * rotation(2.0 * np.pi * ts + 0.5 * np.pi),
    )


def test_rotation_loop_phase_is_all_winding():
    # the rotation keeps the vacuum's covariance fixed, so pi = 0 + pi
    loop, p = _rotation_loop(), UNIT_PARAMS

    def part(kernel):
        return geometric_phase._integrate(loop, p, None, kernel).value

    assert abs(part(geometric_phase._covariance_values)) <= 1e-14
    assert abs(part(geometric_phase._winding_values) - np.pi) <= 1e-14
    for integral in (integrate_phase, integrate_phase_boundary_form):
        assert abs(integral(loop, p).value - np.pi) <= 1e-14


def _random_path_stack(rng, random_symplectic, n, ts):
    """Nodes and central-difference tangents of S0 expm(t X0 + sin(3 t) X1), X0 and X1
    random Hamiltonian matrices Omega H (H symmetric) drawn from rng."""
    import scipy.linalg

    S0 = random_symplectic(rng, n).data
    X0, X1 = (0.4 * omega(n) @ (H + H.T) for H in rng.normal(size=(2, 2 * n, 2 * n)))
    path = lambda t: S0 @ scipy.linalg.expm(t * X0 + np.sin(3 * t) * X1)
    h = 1e-5
    Ms = np.array([path(t) for t in ts])
    return Ms, np.array([(path(t + h) - path(t - h)) / (2.0 * h) for t in ts])


def _unit_pair(p, Ms, dMs):
    """The physical stack pair converted once to hbar = l = 1, through the one conversion."""
    q = gaussian_states._unit_conversion(p)
    return Ms / q, dMs / q


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_split_kernels_sum_to_the_connection(rng, random_symplectic, n):
    ts = np.linspace(0.0, 1.0, 9)
    for _ in range(5):
        p = OscParams(rng.uniform(0.3, 3.0), tuple(rng.uniform(0.3, 3.0, n)))
        Ms, dMs = _random_path_stack(rng, random_symplectic, n, ts)
        units = _unit_pair(p, Ms, dMs)
        direct = geometric_phase._connection_values(*units)
        split = geometric_phase._covariance_values(*units) + geometric_phase._winding_values(*units)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(split - direct)) <= 1e-12 * scale
        # the unit connection is the physical one, -(1 / 4 hbar) Tr[W M^T Omega dM]
        l2 = np.array(p.lengths) ** 2
        W = np.concatenate([l2, p.hbar**2 / l2])
        weighted = W[:, None] * Ms.transpose(0, 2, 1) @ omega(n) @ dMs  # W M^T Omega dM
        physical = -(0.25 / p.hbar) * np.trace(weighted, axis1=1, axis2=2)
        assert np.max(np.abs(direct - physical)) <= 1e-12 * scale


def test_covariance_kernel_sees_the_state_covariance(rng, random_symplectic):
    for n in (1, 2, 3):
        p = OscParams(rng.uniform(0.3, 3.0), tuple(rng.uniform(0.3, 3.0, n)))
        l2 = np.array(p.lengths) ** 2
        E = np.diag(np.concatenate([l2 / p.hbar**2, 1.0 / l2]))
        for _ in range(6):
            M = random_symplectic(rng, n)
            expected = (p.hbar**2 / 2.0) * M.data @ E @ M.data.T
            V = gaussian_states.covariance(M, p).data
            assert np.max(np.abs(V - expected)) <= 1e-14 * np.max(np.abs(expected))
        # the kernel, on the converted pair, is the covariance connection of the physical V,
        # -(1 / 2 hbar) Tr[V_xx d(V_px V_xx^-1)] with dV its derivative along the tangent
        ts = np.linspace(0.1, 0.9, 3)
        Ms, dMs = _random_path_stack(rng, random_symplectic, n, ts)
        cov = lambda X: 0.5 * (X * np.diag(E) * p.hbar**2) @ X.transpose(0, 2, 1)  # M W M^T / 2
        V = cov(Ms)
        h = 1e-6
        dV = (cov(Ms + h * dMs) - cov(Ms - h * dMs)) / (2.0 * h)
        moved = np.linalg.solve(V[:, :n, :n], dV[:, :n, :n] @ V[:, n:, :n])
        expected = (0.5 / p.hbar) * np.trace(moved - dV[:, n:, :n], axis1=1, axis2=2)
        got = geometric_phase._covariance_values(*_unit_pair(p, Ms, dMs))
        assert np.max(np.abs(got - expected)) <= 1e-7 * np.max(np.abs(expected))


def test_state_weights_and_covariance_live_in_gaussian_states():
    # one module owns the units: the kernels take unit stacks and no oscillator parameters
    for name in ("_unit_conversion", "_covariance_stack", "_vacuum_frame"):
        assert getattr(geometric_phase, name) is getattr(gaussian_states, name)
    own = {
        name
        for name, obj in vars(geometric_phase).items()
        if callable(obj) and getattr(obj, "__module__", None) == geometric_phase.__name__
    }
    assert {name for name in own if "covariance" in name or "metric" in name} == {"_covariance_values"}
    for name in ("_connection_values", "_covariance_values", "_winding_values"):
        assert list(inspect.signature(getattr(geometric_phase, name)).parameters) == ["Ms", "dMs"]


def test_b_zero_rotation_only_path():
    # C = 0 throughout: the reduced integrand vanishes identically
    K = np.random.default_rng(7).uniform(-0.8, 0.8, size=(2, 2))
    path = b_zero_loop((K - K.T) / 2.0)
    p = OscParams(0.8, (1.5, 0.7))
    result = phase_b_zero(path, p)
    assert abs(result.value) <= 1e-12


def test_b_zero_shear_endpoint_formula():
    # A = I, C = G(t): the integral telescopes to the endpoint difference
    G0 = np.array([[0.4, -0.1], [-0.1, 0.9]])
    G1 = np.array([[-0.2, 0.3], [0.3, 0.5]])

    def eval_path(t):
        G = G0 + t * t * G1
        top = np.hstack([np.eye(2), np.zeros((2, 2))])
        bottom = np.hstack([G, np.eye(2)])
        return SympMatrix(2, np.vstack([top, bottom]), GROUPED)

    path = SympPath(n=2, eval=eval_path, closed=False)
    p = OscParams(0.7, (1.3, 0.5))
    result = phase_b_zero(path, p)
    l2 = np.array(p.lengths) ** 2
    expected = -(0.25 / p.hbar) * float(l2 @ np.diag(G1))
    assert result.value == pytest.approx(expected, rel=1e-9)


def test_b_zero_matches_general_form(random_symmetric):
    for seed in (11, 23, 31):
        K = np.random.default_rng(seed + 1).uniform(-0.8, 0.8, size=(2, 2))
        r = np.random.default_rng(seed)
        G0, G1 = random_symmetric(r, 2, 0.6), random_symmetric(r, 2, 0.6)
        path = b_zero_loop((K - K.T) / 2.0, G0, G1, g0_weight=0.4)
        p = OscParams(0.9, (1.1, 0.8))
        reduced = phase_b_zero(path, p)
        general = integrate_phase(path, p)
        assert abs(reduced.value - general.value) <= 1e-9 * max(1.0, abs(general.value))


def test_b_zero_rejects_squeeze_circle():
    path = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    with pytest.raises(NotBZeroForm):
        phase_b_zero(path, UNIT_PARAMS)


def test_invariance_under_identity_translation():
    path = squeeze_circle_path(1, 1.0, UNIT_PARAMS)
    eye = SympMatrix(1, np.eye(2), GROUPED)
    base, moved, diff = check_canonical_invariance(path, eye, UNIT_PARAMS)
    assert base == moved
    assert diff == 0.0


def test_invariance_under_random_translations(rng, random_symplectic):
    path = squeeze_circle_path(1, 1.0, UNIT_PARAMS)
    for _ in range(5):
        S = random_symplectic(rng, 1)
        base, moved, diff = check_canonical_invariance(path, S, UNIT_PARAMS)
        assert diff <= 1e-8 * max(1.0, abs(base))


def test_invariance_two_mode_rotation():
    p = OscParams(1.0, (1.0, 1.0))
    path = squeeze_circle_path(2, 0.5, p)
    alpha = np.array([0.7, -0.4])
    ca, sa = np.diag(np.cos(alpha)), np.diag(np.sin(alpha))
    rot = SympMatrix(2, np.block([[ca, sa], [-sa, ca]]), GROUPED)
    base, moved, diff = check_canonical_invariance(path, rot, p)
    assert diff <= 1e-8 * max(1.0, abs(base))


def test_invariance_rejects_mode_mismatch():
    path = squeeze_circle_path(1, 0.5, UNIT_PARAMS)
    eye2 = SympMatrix(2, np.eye(4), GROUPED)
    with pytest.raises(ValueError):
        check_canonical_invariance(path, eye2, UNIT_PARAMS)


def _circle_cases():
    return [
        (1, 1.0, UNIT_PARAMS),
        (1, 2.2, OscParams(0.6, (2.5,))),
        (2, 0.5, OscParams(1.0, (1.0, 1.0))),
        (2, 1.7, OscParams(1.4, (0.4, 2.1))),
    ]


def test_sample_matches_scalar_eval_and_tangent(rng):
    for modes, R, p in _circle_cases():
        path = squeeze_circle_path(modes, R, p)
        ts = rng.uniform(0.0, 1.0, size=15)
        Ms, dMs = path.sample(ts)
        assert Ms.shape == dMs.shape == (15, 2 * modes, 2 * modes)
        np.testing.assert_allclose(
            Ms, np.array([path.eval(t).data for t in ts]), rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(
            dMs, np.array([path.derivative(t) for t in ts]), rtol=0, atol=1e-14
        )


def test_batch_path_builds_no_sympmatrix_at_nodes(monkeypatch):
    paths = [
        (squeeze_circle_path(1, 1.0, UNIT_PARAMS), UNIT_PARAMS),
        (squeeze_circle_path(2, 0.8, OscParams(1.0, (1.0, 1.0))), OscParams(1.0, (1.0, 1.0))),
    ]
    built = []
    original = SympMatrix.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(SympMatrix, "__post_init__", counting)
    for path, p in paths:
        integrate_phase(path, p)
        path.sample(SPLIT_NODES)
    assert built == []


def test_translated_batch_path_builds_no_sympmatrix(monkeypatch):
    cases = [
        (1, 1.0, UNIT_PARAMS, np.array([[0.3, 0.1], [0.1, -0.2]])),
        (2, 0.8, OscParams(1.0, (1.0, 1.0)), 0.1 * np.eye(4) + 0.05),
    ]
    translations = [exp_map(LieAlgElement(n, X)) for n, _, _, X in cases]
    paths = [squeeze_circle_path(n, R, p) for n, R, p, _ in cases]
    built = []
    original = SympMatrix.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(SympMatrix, "__post_init__", counting)
    for (_, _, p, _), path, S in zip(cases, paths, translations):
        base, moved, diff = check_canonical_invariance(path, S, p)
        assert diff <= 1e-8 * max(1.0, abs(base))
    assert built == []


def _circle_with(eval_batch=None, tangent_batch=None):
    """The one-mode R=0.7 circle with one batch callable replaced."""
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    return SympPath(
        n=1,
        eval=base.eval,
        tangent=base.derivative,
        closed=True,
        eval_batch=eval_batch or base.eval_batch,
        tangent_batch=tangent_batch or base.tangent_batch,
    )


def test_batch_node_check_catches_interior_departure():
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)

    def leaves_group(ts):
        Ms = base.eval_batch(ts).copy()
        inside = (ts > 0.05) & (ts < 0.15)  # no construction sample lies here
        Ms[inside] *= 1.01
        return Ms

    path = _circle_with(eval_batch=leaves_group)  # construction passes
    with pytest.raises(ValueError, match="symplectic condition"):
        integrate_phase(path, UNIT_PARAMS)
    with pytest.raises(ValueError, match="symplectic condition"):
        integrate_phase_boundary_form(path, UNIT_PARAMS)


def test_batch_nonfinite_tangent():
    path = _circle_with(tangent_batch=lambda ts: np.full((len(ts), 2, 2), np.nan))
    with pytest.raises(NonFiniteIntegrand, match="t="):
        integrate_phase(path, UNIT_PARAMS)


def test_infinite_tangent_is_reported_without_warning():
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)

    def tangent_batch(ts):
        dMs = base.tangent_batch(ts).copy()
        dMs[ts > 0.6] = np.inf
        return dMs

    path = _circle_with(tangent_batch=tangent_batch)
    first = 0.5 + 0.5 * 0.20778495500789847  # first panel node above 0.6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for integral in (integrate_phase, integrate_phase_boundary_form):
            with pytest.raises(NonFiniteIntegrand, match=f"^integrand is non-finite at t={first}$"):
                integral(path, UNIT_PARAMS)


def test_batch_nonfinite_sample_names_first_node():
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)

    def holes(ts):
        Ms = base.eval_batch(ts).copy()
        Ms[(ts > 0.6) & (ts < 0.7)] = np.nan
        return Ms

    path = _circle_with(eval_batch=holes)
    first = 0.5 + 0.5 * 0.20778495500789847  # first panel node in (0.6, 0.7)
    with pytest.raises(NonFiniteIntegrand, match=f"t={first}"):
        integrate_phase(path, UNIT_PARAMS)


def test_batch_rejections_name_the_first_bad_node():
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    first = 0.5 - 0.5 * 0.8648644233597691  # first panel node in (0.05, 0.15)

    def broken(change):
        def eval_batch(ts):
            Ms = base.eval_batch(ts).copy()
            inside = (ts > 0.05) & (ts < 0.15)  # no construction sample lies here
            Ms[inside] = change(Ms[inside])
            return Ms

        return _circle_with(eval_batch=eval_batch)

    nonfinite = f"^{re.escape(f'path sample is non-finite at t={first}')}$"
    for value in (np.nan, np.inf):
        with pytest.raises(NonFiniteIntegrand, match=nonfinite):
            integrate_phase(broken(lambda Ms, v=value: Ms * v), UNIT_PARAMS)
    message = (
        f"sample at t={first} fails the symplectic condition: residual 2.010e-02, "
        "determinant 1.0201"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        integrate_phase(broken(lambda Ms: 1.01 * Ms), UNIT_PARAMS)
    assert type(info.value) is ValueError


def test_scalar_path_sample_rejections():
    loose = SympMatrix(1, np.diag([1 + 5e-9, 1.0]), GROUPED, tol_symp=1e-6)
    with pytest.raises(
        ValueError,
        match=r"^sample at t=0\.0 fails the symplectic condition: residual 5\.000e-09, "
        r"determinant 1\.000000005$",
    ):
        SympPath(n=1, eval=lambda t: loose)
    with pytest.raises(TypeError, match=r"^eval\(0\.0\) returned ndarray, not SympMatrix$"):
        SympPath(n=1, eval=lambda t: np.eye(2))
    with pytest.raises(ValueError, match=r"^eval\(0\.0\) has 1 modes, path declares 2$"):
        SympPath(n=2, eval=lambda t: SympMatrix(1, np.eye(2)))
    with pytest.raises(ValueError, match="^paths require grouped ordering$"):
        SympPath(n=1, eval=lambda t: SympMatrix(1, np.eye(2), "interleaved"))
    # the construction check validates the mode count, which later checks then trust
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    batch = {"eval_batch": base.eval_batch, "tangent_batch": base.tangent_batch}
    for kwargs in ({"eval": base.eval}, batch):
        with pytest.raises(ValueError, match=r"^mode count must be a positive integer, got 1\.0$") as info:
            SympPath(n=1.0, **kwargs)
        assert type(info.value) is ValueError


def test_zero_mode_path_is_rejected_before_any_sample():
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    batch = {"eval_batch": base.eval_batch, "tangent_batch": base.tangent_batch}
    for kwargs in ({"eval": base.eval}, batch):
        with pytest.raises(ValueError, match="^mode count must be a positive integer, got 0$") as info:
            SympPath(n=0, **kwargs)
        assert type(info.value) is ValueError


def test_batch_wrong_stack_shape():
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    with pytest.raises(ValueError, match="tangent_batch returned shape"):
        integrate_phase(_circle_with(tangent_batch=lambda ts: base.tangent_batch(ts)[:-1]), UNIT_PARAMS)
    with pytest.raises(ValueError, match="eval_batch returned shape"):
        _circle_with(eval_batch=lambda ts: base.eval_batch(ts)[:, :1, :1])
    with pytest.raises(ValueError, match="eval_batch returned shape"):
        _circle_with(eval_batch=lambda ts: base.eval_batch(ts)[0])


def _warped_circle(n):
    """The R = 0.8 circle reparametrized by t + 0.4 sin(2 pi t) / 2 pi, stacked and
    without a tangent, so its integrand varies and the adaptive rule refines."""
    base = squeeze_circle_path(n, 0.8, OscParams(1.0, (1.0,) * n))
    warp = lambda ts: ts + 0.4 * np.sin(2.0 * np.pi * ts) / (2.0 * np.pi)
    return SympPath(n=n, eval_batch=lambda ts: base.eval_batch(warp(ts)), closed=True)


def _triple(result):
    return result.value, result.error_estimate, result.evaluations


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_evaluator_without_tangent_is_the_per_point_stencil(n):
    stacked = _warped_circle(n)
    per_point = SympPath(n=n, eval=stacked.eval, closed=True)
    p = OscParams(0.8, (1.3, 0.6)[:n])
    assert stacked._fd_step == per_point._fd_step
    ts = np.concatenate([[0.0, 1e-7, 1.0], GK15_NODES])
    for a, b in zip(stacked.sample(ts), per_point.sample(ts)):
        assert np.array_equal(a, b)
    for integral in (integrate_phase, integrate_phase_boundary_form):
        result = integral(stacked, p)
        assert result.evaluations > 15  # refined: several integrand calls
        assert _triple(result) == _triple(integral(per_point, p))


@pytest.mark.parametrize("n", [1, 2])
def test_any_evaluator_goes_with_any_tangent(n):
    p = OscParams(0.8, (1.3, 0.6)[:n])
    base = squeeze_circle_path(n, 0.8, p)
    mixed = [
        SympPath(n=n, eval_batch=base.eval_batch, tangent=base.derivative, closed=True),
        SympPath(n=n, eval=base.eval, tangent_batch=base.tangent_batch, closed=True),
    ]
    ts = np.linspace(0.0, 1.0, 9)
    expected = base.sample(ts)
    for path in mixed:
        assert path._fd_step is None
        for a, b in zip(path.sample(ts), expected):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
        assert integrate_phase(path, p).value == pytest.approx(reference_phase(n, 0.8), rel=1e-12)


@pytest.mark.parametrize(
    "ts, shape",
    [([], "(0,)"), (np.empty((0, 3)), "(0, 3)"), ([[0.1, 0.2]], "(1, 2)"), (0.5, "()")],
    ids=["ts0-(0,)", "ts1-(0, 3)", "ts2-(1, 2)", "0.5-()"],
)
def test_sample_takes_a_nonempty_1d_array(ts, shape):
    circle = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    paths = (circle, SympPath(n=1, eval=circle.eval, closed=True), _warped_circle(1))
    for path in paths:
        with pytest.raises(ValueError, match=f"^ts must be a non-empty 1-D array, got shape {re.escape(shape)}$"):
            path.sample(ts)


def test_batch_construction_checks_closure():
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    half = SympPath(
        n=1,
        eval=lambda t: base.eval(0.5 * t),
        eval_batch=lambda ts: base.eval_batch(0.5 * ts),
        tangent_batch=lambda ts: 0.5 * base.tangent_batch(0.5 * ts),
    )
    # constant integrand on the circle: half the sweep carries half the phase
    assert integrate_phase(half, UNIT_PARAMS).value == pytest.approx(-0.5 * np.pi * np.sinh(0.7) ** 2, rel=1e-10)
    with pytest.raises(ValueError, match="closure"):
        SympPath(
            n=1,
            eval=half.eval,
            closed=True,
            eval_batch=half.eval_batch,
            tangent_batch=half.tangent_batch,
        )


def test_batch_and_loop_sampling_agree():
    # the same circle, once through the batch callables and once through the
    # per-node loop over eval and derivative
    for modes, R, p in _circle_cases():
        batch = squeeze_circle_path(modes, R, p)
        loop = SympPath(n=modes, eval=batch.eval, tangent=batch.derivative, closed=True)
        a = integrate_phase(batch, p)
        b = integrate_phase(loop, p)
        assert a.evaluations == b.evaluations
        assert a.value == pytest.approx(b.value, rel=1e-13)
        for x, y in zip(batch.sample(SPLIT_NODES), loop.sample(SPLIT_NODES)):
            np.testing.assert_allclose(x, y, rtol=1e-13, atol=0)


def test_integrate_phase_mode_mismatch():
    path = squeeze_circle_path(1, 0.5, UNIT_PARAMS)
    two = OscParams(1.0, (1.0, 1.0))
    for integral in (integrate_phase, integrate_phase_boundary_form, phase_b_zero):
        with pytest.raises(ValueError, match="parameter modes"):
            integral(path, two)


INTEGRALS = (integrate_phase, integrate_phase_boundary_form, phase_b_zero)
# short ids, so that each row keeps its own name when test names are cut at 100 characters
INTEGRAL_IDS = ("direct", "boundary", "b-zero")
# the default rule and a tighter tolerance, with the shear loop's evaluation count under each
RULES = {"adaptive": QuadSpec(), "tight": QuadSpec(tol=1e-13)}
SHEAR_LOOP_EVALUATIONS = {"adaptive": 165, "tight": 225}
B_ZERO_PARAMS = OscParams(0.9, (1.1, 0.8))


def _shear_loop():
    # closed two-mode loop with zero upper-right block, so all three integrals apply,
    # and a varying integrand, so the adaptive rule refines
    K0 = np.array([[0.0, 0.5], [-0.5, 0.0]])
    G0, G1 = np.array([[0.4, -0.1], [-0.1, 0.3]]), np.array([[-0.2, 0.3], [0.3, 0.5]])
    return b_zero_loop(K0, G0, G1)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("integral", INTEGRALS, ids=INTEGRAL_IDS)
def test_integrals_share_budget_finiteness_and_counts(integral, rule):
    loop, quad = _shear_loop(), RULES[rule]
    with pytest.raises(QuadratureBudgetExceeded):
        integral(loop, B_ZERO_PARAMS, QuadSpec(tol=quad.tol, max_evals=15))
    assert integral(loop, B_ZERO_PARAMS, quad).evaluations == SHEAR_LOOP_EVALUATIONS[rule]
    for bad in (np.nan, np.inf):
        broken = SympPath(
            n=2,
            closed=True,
            eval_batch=loop.eval_batch,
            tangent_batch=lambda ts, bad=bad: np.full((ts.size, 4, 4), bad),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIntegrand, match=r"^integrand is non-finite at t=0\.\d+$"):
                integral(broken, B_ZERO_PARAMS, quad)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("integral", INTEGRALS, ids=INTEGRAL_IDS)
def test_integrals_call_one_engine_through_the_module_namespace(monkeypatch, integral, rule):
    # bench/tracing.py counts engine calls and integrand nodes by rebinding this
    # name in geometric_phase; an integral holding its own reference would hide both
    calls, nodes = [], []
    engine = geometric_phase.adaptive_gauss_kronrod

    def counting(f, *args, **kwargs):
        calls.append(f)

        def seen(ts):
            nodes.extend(ts)
            return f(ts)

        return engine(seen, *args, **kwargs)

    monkeypatch.setattr(geometric_phase, "adaptive_gauss_kronrod", counting)
    result = integral(_shear_loop(), B_ZERO_PARAMS, RULES[rule])
    assert len(calls) == 1
    assert len(nodes) == result.evaluations > 15  # refined, so more than one integrand call was seen


def _circle_knots(modes, R, p, knots):
    Ms = squeeze_circle_path(modes, R, p).eval_batch(np.linspace(0.0, 1.0, knots))
    return [SympMatrix(modes, M, GROUPED) for M in Ms]


def test_polygon_phase_converges_to_circle_phase():
    # the inscribed geodesic polygon approaches the circle at second order
    errors = [
        abs(polygon_phase(_circle_knots(1, 1.0, UNIT_PARAMS, k), UNIT_PARAMS).value - REFERENCE_R1)
        for k in (17, 33, 65, 129)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.8 < coarse / fine < 4.1


def test_polygon_phase_left_invariant(rng, random_symplectic):
    knots = _circle_knots(1, 1.0, UNIT_PARAMS, 33)
    base = polygon_phase(knots, UNIT_PARAMS)
    assert base.evaluations == 32
    for _ in range(3):
        S = random_symplectic(rng, 1)
        moved = polygon_phase([S @ M for M in knots], UNIT_PARAMS)
        assert moved.value == pytest.approx(base.value, abs=1e-10)


def test_polygon_phase_rejections():
    eye = SympMatrix(1, np.eye(2), GROUPED)
    with pytest.raises(ValueError, match="at least two knots"):
        polygon_phase([eye], UNIT_PARAMS)
    with pytest.raises(ValueError, match="parameter modes"):
        polygon_phase([eye, eye], OscParams(1.0, (1.0, 1.0)))
    with pytest.raises(ValueError, match="share the mode count"):
        polygon_phase([eye, SympMatrix(2, np.eye(4), GROUPED)], UNIT_PARAMS)
    # the principal logarithm of -I is i pi I: no real geodesic segment
    with pytest.raises(ValueError, match="segment 0: matrix logarithm is not real"):
        polygon_phase([eye, SympMatrix(1, -np.eye(2), GROUPED)], UNIT_PARAMS)


def test_stacked_finite_difference_matches_the_per_point_rules():
    base = squeeze_circle_path(1, 0.9, OscParams(0.8, (1.3,)))
    path = SympPath(n=1, eval=base.eval, closed=True)
    h = 1e-6 * max(1.0, float(np.max(np.abs(base.eval(0.0).data))))

    def m(t):
        return base.eval(t).data

    # one stack mixing both ends, nodes within h/2 of them, interior nodes, and
    # nodes h/2 (interior: the stencil reaches the end) and h from the ends
    ts = np.array([0.0, 0.4 * h, 0.3, 1.0 - 0.5 * h, 0.71, 1.0, 0.9 * h, 1.0 - 0.3 * h])
    expected = []
    for t in ts:
        if t < 0.5 * h:
            expected.append((-3.0 * m(t) + 4.0 * m(t + h) - m(t + 2 * h)) / (2.0 * h))
        elif t > 1.0 - 0.5 * h:
            expected.append((3.0 * m(t) - 4.0 * m(t - h) + m(t - 2 * h)) / (2.0 * h))
        else:
            expected.append((m(t + 0.5 * h) - m(t - 0.5 * h)) / h)
    expected = np.array(expected).tobytes()
    assert path.sample(ts)[1].tobytes() == expected
    assert np.array([path.derivative(t) for t in ts]).tobytes() == expected


def test_eval_calls_per_node():
    # the periodic trapezoid differentiates a closed path's own samples, so a path without a
    # tangent costs one evaluation per node there, as an analytic tangent does; the stencil of
    # an open path and of sample() costs one evaluation more per interior node
    base = squeeze_circle_path(1, 0.9, UNIT_PARAMS)
    calls = []

    def counted(t):
        calls.append(t)
        return base.eval(t)

    fd = SympPath(n=1, eval=counted, closed=True)
    open_fd = SympPath(n=1, eval=counted)
    analytic = SympPath(n=1, eval=counted, tangent=base.derivative, closed=True)
    for path, per_node, per_sample in ((fd, 1, 2), (open_fd, 2, 2), (analytic, 1, 1)):
        calls.clear()
        result = integrate_phase(path, UNIT_PARAMS)
        assert len(calls) == per_node * result.evaluations
        calls.clear()
        path.sample(SPLIT_NODES)
        assert len(calls) == per_sample * SPLIT_NODES.size


def test_benchmark_path_contract():
    # bench/workloads.py builds its loops with this call, and the traced run of
    # bench/run.py wraps these two methods, taken from the class dict
    assert {"__post_init__", "derivative"} <= set(vars(SympPath))
    base = squeeze_circle_path(1, 0.5, UNIT_PARAMS)
    path = SympPath(n=1, eval=base.eval, tangent=None, closed=True)
    result = integrate_phase(path, UNIT_PARAMS)
    assert result.value == pytest.approx(reference_phase(1, 0.5), rel=1e-8)


def test_stack_whose_sum_overflows_fails_the_symplectic_check():
    # every entry is finite, but a finiteness probe through Ms.sum() would read inf
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)

    def eval_batch(ts):
        Ms = base.eval_batch(ts).copy()
        Ms[(ts > 0.05) & (ts < 0.15)] *= 9e307  # no construction sample lies here
        return Ms

    ts = 0.5 + 0.5 * np.array([-0.8648644233597691, -0.7415311855993945])  # the window's nodes
    Ms = eval_batch(ts)
    with np.errstate(over="ignore", invalid="ignore"):  # the probe's own sum overflows
        assert np.isfinite(Ms).all() and not np.isfinite(Ms.sum())
    # no errstate here: the check itself must not warn on the way to its error
    with pytest.raises(ValueError, match="fails the symplectic condition") as info:
        integrate_phase(_circle_with(eval_batch=eval_batch), UNIT_PARAMS)
    assert type(info.value) is ValueError


def test_stack_of_opposite_infinities_is_nonfinite_without_warning():
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    first = 0.5 - 0.5 * 0.8648644233597691  # first panel node in (0.05, 0.15)

    def eval_batch(ts):
        Ms = base.eval_batch(ts).copy()
        Ms[(ts > 0.05) & (ts < 0.15), 0, 1] = -np.inf
        Ms[(ts > 0.6) & (ts < 0.7), 1, 0] = np.inf
        return Ms

    path = _circle_with(eval_batch=eval_batch)
    message = f"^{re.escape(f'path sample is non-finite at t={first}')}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteIntegrand, match=message):
            integrate_phase(path, UNIT_PARAMS)


def test_nan_residual_at_one_node_fails_the_stack(monkeypatch):
    path = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    residual = symplectic_core._residual  # the kernel that decides pass or fail, and names the node

    def nan_at_node_3(Ms, form, axis=None):
        resid = residual(Ms, form, (1, 2))
        assert resid.max() <= 1e-14  # every real residual passes
        resid[3] = np.nan
        return resid if axis is not None else np.maximum.reduce(resid)

    monkeypatch.setattr(symplectic_core, "_residual", nan_at_node_3)
    t3 = 0.5 - 0.5 * 0.7415311855993945  # the fourth of the 15 panel nodes
    message = f"sample at t={t3} fails the symplectic condition: residual nan, "
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        integrate_phase(path, UNIT_PARAMS)


def test_complex_stacks_are_rejected():
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    eval_complex = "^eval_batch must be real-valued, got dtype complex128$"
    tangent_complex = "^tangent_batch must be real-valued, got dtype complex128$"
    for imag in (1e-3j, 0j):  # zero imaginary parts are still a complex stack
        with pytest.raises(ValueError, match=eval_complex):
            _circle_with(eval_batch=lambda ts, z=imag: base.eval_batch(ts) + z)
        path = _circle_with(tangent_batch=lambda ts, z=imag: base.tangent_batch(ts) + z)
        with pytest.raises(ValueError, match=tangent_complex):
            integrate_phase(path, UNIT_PARAMS)
        with pytest.raises(ValueError, match=tangent_complex):
            path.derivative(0.3)
    as_objects = lambda ts: np.array(base.eval_batch(ts) + 0j, dtype=object)
    with pytest.raises(ValueError, match="^eval_batch must be real-valued, got dtype object$"):
        _circle_with(eval_batch=as_objects)
    tangent = lambda t: base.derivative(t) + 0j
    per_point = SympPath(n=1, eval=base.eval, tangent=tangent, closed=True)
    with pytest.raises(ValueError, match=tangent_complex):
        integrate_phase(per_point, UNIT_PARAMS)


def _fd_step(path):
    """The finite-difference step of a path without a tangent: 1e-6 * max(1, |M(0)|_max)."""
    return 1e-6 * max(1.0, float(np.max(np.abs(path.eval(0.0).data))))


def test_stencil_mean_is_the_node_matrix():
    base = squeeze_circle_path(1, 0.9, OscParams(0.8, (1.3,)))
    path = SympPath(n=1, eval=base.eval, closed=True)
    h = _fd_step(base)

    def m(t):
        return base.eval(t).data

    ts = np.array([0.0, 0.4 * h, 0.3, 0.9 * h, 1.0 - 0.3 * h, 1.0])
    expected = [m(t) if t < 0.5 * h or t > 1.0 - 0.5 * h else 0.5 * (m(t + 0.5 * h) + m(t - 0.5 * h)) for t in ts]
    assert path.sample(ts)[0].tobytes() == np.array(expected).tobytes()


TWO_MODES = OscParams(1.0, (1.0, 1.0))
# determinant 1 but not symplectic: residual 1e-6, inside a SympMatrix tolerance of 1e-3
_OFF_GROUP = np.diag([1.0 + 1e-6, 1.0 / (1.0 + 1e-6), 1.0, 1.0])


def _leaving_circle(lo, hi, closed=True):
    """Per-point two-mode circle that leaves the group for t in (lo, hi)."""
    base = squeeze_circle_path(2, 0.7, TWO_MODES)

    def eval_point(t):
        M = base.eval(t).data
        return SympMatrix(2, M @ _OFF_GROUP if lo < t < hi else M, GROUPED, 1e-3)

    return SympPath(n=2, eval=eval_point, closed=closed)


@pytest.mark.parametrize("side", [0.5, -0.5])
def test_both_stencil_stacks_are_group_checked(side):
    # the path leaves the group only between the node 0.5 and its stencil point 0.5 + side h;
    # open, so G7K15, whose first panel has a node at 0.5, integrates it
    h = _fd_step(squeeze_circle_path(2, 0.7, TWO_MODES))
    path = _leaving_circle(*sorted((0.5, 0.5 + 2.0 * side * h)), closed=False)
    message = f"sample at t={0.5 + side * h} fails the symplectic condition"
    with pytest.raises(ValueError, match=re.escape(message)):
        integrate_phase(path, TWO_MODES)


@pytest.mark.parametrize("count", [16, 32])
def test_a_trapezoid_sample_is_group_checked_at_its_own_t(count):
    # closed, so the periodic trapezoid integrates it, on its own samples: the path leaves
    # the group only within h of the first node that the level of count nodes adds
    node = float(_periodic_nodes(count)[0])
    h = _fd_step(squeeze_circle_path(2, 0.7, TWO_MODES))
    path = _leaving_circle(node - h, node + h)
    message = f"sample at t={node} fails the symplectic condition"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        integrate_phase(path, TWO_MODES)


def test_end_node_stacks_are_group_checked():
    h = _fd_step(squeeze_circle_path(2, 0.7, TWO_MODES))
    path = _leaving_circle(1.5 * h, 2.5 * h)
    path.derivative(0.5)
    with pytest.raises(ValueError, match=re.escape(f"sample at t={2.0 * h} fails the symplectic condition")):
        path.derivative(0.0)


def test_b_zero_checks_the_samples_not_the_stencil_mean():
    # K0 entries to 2.5 and G scale 30: the stencil mean's D - A^-T reaches
    # 4e-9, far over the 1e-10 check, while every evaluated sample has D = A^-T;
    # the loop's samples without its exact tangent get the stencil when open, and
    # closed the periodic trapezoid, which reads the samples themselves
    K0 = np.array([[1.2, -2.5], [2.0, -0.6]])
    G0, G1 = np.array([[0.8, -0.3], [-0.3, 0.5]]), np.array([[-0.4, 0.6], [0.6, 0.2]])
    loop = b_zero_loop(K0, G0, G1, g0_weight=0.4, scale=30.0)
    path = SympPath(n=2, eval_batch=loop.eval_batch, closed=True)
    p = OscParams(0.9, (1.1, 0.8))
    ts = SPLIT_NODES  # the first split's nodes, which the refining open integrals below sample
    h = _fd_step(path)

    def d_resid(Ms):
        return np.max(np.abs(Ms[:, 2:, 2:] - np.linalg.inv(Ms[:, :2, :2]).transpose(0, 2, 1)))

    samples = np.array([path.eval(t).data for t in np.concatenate([ts + 0.5 * h, ts - 0.5 * h])])
    assert d_resid(path.sample(ts)[0]) > 1e-10 >= d_resid(samples)
    for closed in (True, False):
        path = SympPath(n=2, eval_batch=loop.eval_batch, closed=closed)
        reduced = phase_b_zero(path, p)
        assert reduced.evaluations > 15  # refined, so the open integral sampled ts
        assert abs(reduced.value - integrate_phase(path, p).value) <= 1e-9


def test_b_zero_names_the_evaluated_t():
    # a B block only between the node 0.5 and its upper stencil point; there A = D
    # is the identity to O(h), so [[A, B], [0, A]] still passes the group check
    K0 = np.array([[0.0, 0.3], [-0.3, 0.0]])
    loop = b_zero_loop(K0)
    h = _fd_step(loop)

    def eval_point(t):
        M = loop.eval(t).data.copy()
        if 0.5 < t < 0.5 + h:
            M[:2, 2:] = 1e-9 * np.eye(2)
        return SympMatrix(2, M, GROUPED, 1e-3)

    path = SympPath(n=2, eval=eval_point)  # open, so G7K15 with its node at 0.5 integrates it
    with pytest.raises(NotBZeroForm, match=re.escape(f"at t={0.5 + 0.5 * h}")):
        phase_b_zero(path, OscParams(1.0, (1.0, 1.0)))


def _kinked_loop(b, closed=True):
    """The R = 0.8 one-mode circle per point, its angle warped piecewise linearly: [0, b]
    onto [0, 1/2] and [b, 1] onto [1/2, 1], so the integrand jumps at b and at 0."""
    base = squeeze_circle_path(1, 0.8, UNIT_PARAMS)
    warp = lambda t: 0.5 * t / b if t < b else 0.5 + 0.5 * (t - b) / (1.0 - b)
    return SympPath(n=1, eval=lambda t: base.eval(warp(t)), closed=closed)


@pytest.mark.parametrize("b", [0.3, 1 / 3, 0.37, 0.41])
def test_a_kinked_closed_loop_hands_over_to_gauss_kronrod(b):
    # a jump keeps the spectrum's q2 / q4 near 1/2, so the trapezoid never stops; a stop on
    # |T_N - T_N/2| would have passed at 128 nodes on b = 0.3 (and at 32 on 0.37, 64 on 0.41)
    # with the sum still 7.4e-3 off. G7K15 then integrates as it does the open loop.
    closed = integrate_phase(_kinked_loop(b), UNIT_PARAMS)
    gauss_kronrod = integrate_phase(_kinked_loop(b, closed=False), UNIT_PARAMS)
    assert repr(closed.value) == repr(gauss_kronrod.value)
    assert repr(closed.error_estimate) == repr(gauss_kronrod.error_estimate)
    assert closed.evaluations == gauss_kronrod.evaluations + 256


@pytest.mark.parametrize("max_evals, evaluations", [(15, 15), (20, 16), (100, 79), (300, 271)])
def test_a_kinked_closed_loop_stays_within_its_budget(max_evals, evaluations):
    # the trapezoid stops before a level it cannot afford; G7K15 runs only if one panel is left
    with pytest.raises(QuadratureBudgetExceeded) as info:
        integrate_phase(_kinked_loop(0.3), UNIT_PARAMS, QuadSpec(max_evals=max_evals))
    assert info.value.evaluations == evaluations <= max_evals


@pytest.mark.parametrize(
    "b, engines",
    [(0.5, ["periodic_trapezoid"]), (0.3, ["periodic_trapezoid", "adaptive_gauss_kronrod"])],
)
def test_closed_stencil_paths_call_the_engines_through_the_module_namespace(monkeypatch, b, engines):
    # b = 0.5 warps nothing, so that loop is smooth and the trapezoid alone integrates it
    calls = []

    def recording(name):
        engine = getattr(geometric_phase, name)
        return lambda *args, **kwargs: calls.append(name) or engine(*args, **kwargs)

    for name in ("periodic_trapezoid", "adaptive_gauss_kronrod"):
        monkeypatch.setattr(geometric_phase, name, recording(name))
    result = integrate_phase(_kinked_loop(b), UNIT_PARAMS)
    assert calls == engines
    assert abs(result.value - reference_phase(1, 0.8)) <= 1e-9


def test_spectral_tangents_differentiate_a_trigonometric_polynomial_exactly():
    # entries sum modes 0 to N/2 - 1 on the offset grid, whose derivative is exact; the Nyquist
    # mode, sampled as +-c, reads as a cosine through every node and gets derivative 0
    count = 32
    t = (1.0 / 48.0 + np.arange(count) / count) % 1.0
    coeffs = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, count // 2, 2, 2))
    angle = 2.0 * np.pi * np.arange(count // 2)[:, None] * t  # (mode, node)
    Ms = np.einsum("kt,kij->tij", np.cos(angle), coeffs[0]) + np.einsum("kt,kij->tij", np.sin(angle), coeffs[1])
    rate = 2.0 * np.pi * np.arange(count // 2)[:, None]
    exact = np.einsum("kt,kij->tij", -rate * np.sin(angle), coeffs[0])
    exact += np.einsum("kt,kij->tij", rate * np.cos(angle), coeffs[1])
    assert np.max(np.abs(geometric_phase._spectral_tangents(Ms) - exact)) <= 1e-12 * np.max(np.abs(exact))
    nyquist = np.where(np.arange(count) % 2, -1.0, 1.0)[:, None, None] * np.ones((2, 2))
    assert np.max(np.abs(geometric_phase._spectral_tangents(Ms + nyquist) - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_reparametrized_circle_takes_the_periodic_trapezoid():
    # the tangent is the spectral derivative of the trapezoid's own samples, which converges
    # as the trapezoid does: no stencil bias is left for the estimate to miss
    base = squeeze_circle_path(1, 1.0, UNIT_PARAMS)
    warp = lambda t: t + 0.4 * np.sin(2.0 * np.pi * t) / (2.0 * np.pi)
    result = integrate_phase(SympPath(n=1, eval=lambda t: base.eval(warp(t)), closed=True), UNIT_PARAMS)
    assert result.evaluations == 32
    assert abs(result.value - REFERENCE_R1) <= 1e-14
    assert result.error_estimate <= 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_translated_finite_difference_circle_keeps_the_base_stencil(n, rng, random_symplectic):
    # a per-point circle reparametrized by t + 0.4 sin(2 pi t) / 2 pi; the translate
    # is integrated on S times the base's own samples and tangents, so only rounding differs
    p = OscParams(1.0, (1.0,) * n)
    base = squeeze_circle_path(n, 1.0, p)
    warp = lambda t: t + 0.4 * np.sin(2.0 * np.pi * t) / (2.0 * np.pi)
    path = SympPath(n=n, eval=lambda t: base.eval(warp(t)), closed=True)
    for _ in range(3):
        gamma, _, diff = check_canonical_invariance(path, random_symplectic(rng, n), p)
        assert diff <= 1e-14 * max(1.0, abs(gamma))


@pytest.mark.parametrize("tangent", [True, False])
def test_translated_samples_are_group_checked(tangent):
    # S passes its own check at tolerance 1e-3, but S M leaves the group by 1e-6
    base = squeeze_circle_path(2, 0.7, TWO_MODES)
    path = base if tangent else SympPath(n=2, eval=base.eval, closed=True)
    S = SympMatrix(2, _OFF_GROUP, GROUPED, 1e-3)
    with pytest.raises(ValueError, match="fails the symplectic condition"):
        check_canonical_invariance(path, S, TWO_MODES)


def test_phase_b_zero_rejects_a_lower_right_block_off_the_inverse_transpose():
    A = np.diag([0.01, 100.0])
    D = np.linalg.inv(A).T
    D[0, 0] += 5e-9  # group residual 5e-11 passes the check; the block form does not
    M = np.zeros((4, 4))
    M[:2, :2], M[2:, 2:] = A, D
    path = SympPath(
        n=2,
        closed=True,
        eval_batch=lambda ts: np.broadcast_to(M, (ts.size, 4, 4)).copy(),
        tangent_batch=lambda ts: np.zeros((ts.size, 4, 4)),
    )
    message = "lower-right block deviates from inverse-transpose form by 5.000e-09 at t="
    with pytest.raises(NotBZeroForm, match=message):
        phase_b_zero(path, OscParams(1.0, (1.0, 1.0)))


def test_canonical_invariance_rejects_an_interleaved_translation():
    p = OscParams(1.0, (1.0,))
    S = SympMatrix(1, np.eye(2), "interleaved")
    with pytest.raises(ValueError, match="^translation must use grouped ordering$"):
        check_canonical_invariance(squeeze_circle_path(1, 0.5, p), S, p)


def test_path_without_an_evaluator_is_a_type_error():
    with pytest.raises(TypeError, match="^a path needs eval or eval_batch$"):
        SympPath(n=1)


def _generator_loop(rng, n):
    """(eval_batch, tangent_batch) of the closed unit loop S0 expm(A(t)), with
    A(t) = Omega (sin(2 pi t) H0 + (1 - cos 2 pi t) H1), H0 and H1 random symmetric, and the
    analytic tangent S0 L(A, A') from the Frechet derivative of expm."""
    import scipy.linalg

    from sympberry._random import random_symmetric, random_symplectic

    S0 = random_symplectic(rng, n).data
    X0, X1 = (omega(n) @ random_symmetric(rng, 2 * n, 0.4) for _ in range(2))
    A = lambda t: np.sin(2.0 * np.pi * t) * X0 + (1.0 - np.cos(2.0 * np.pi * t)) * X1
    dA = lambda t: 2.0 * np.pi * (np.cos(2.0 * np.pi * t) * X0 + np.sin(2.0 * np.pi * t) * X1)
    eval_batch = lambda ts: np.array([S0 @ scipy.linalg.expm(A(t)) for t in ts])
    frechet = lambda t: scipy.linalg.expm_frechet(A(t), dA(t), compute_expm=False)
    tangent_batch = lambda ts: np.array([S0 @ frechet(t) for t in ts])
    return eval_batch, tangent_batch


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    hbar=st.floats(0.3, 3.0),
    lengths=st.lists(st.floats(0.3, 3.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_physical_loop_has_the_phase_of_its_unit_conversion(n, hbar, lengths, seed):
    # gamma(M; hbar, l) = gamma(D^-1 M D; 1, 1), D = diag(l, hbar / l), in both phase forms
    p = OscParams(hbar, tuple(lengths[:n]))
    d = np.concatenate([p.lengths, [hbar / l for l in p.lengths]])
    unit_eval, unit_tangent = _generator_loop(np.random.default_rng(seed), n)
    to_physical = lambda Xs: Xs * d[:, None] / d  # D X D^-1
    physical = SympPath(
        n, closed=True, eval_batch=lambda ts: to_physical(unit_eval(ts)),
        tangent_batch=lambda ts: to_physical(unit_tangent(ts)),
    )
    D, D_inv = np.diag(d), np.diag(1.0 / d)
    converted = SympPath(
        n, closed=True, eval_batch=lambda ts: D_inv @ physical.eval_batch(ts) @ D,
        tangent_batch=lambda ts: D_inv @ physical.tangent_batch(ts) @ D,
    )
    unit = OscParams(1.0, (1.0,) * n)
    for integral in (integrate_phase, integrate_phase_boundary_form):
        expected = integral(converted, unit).value
        assert abs(integral(physical, p).value - expected) <= 1e-12 * max(1.0, abs(expected))
