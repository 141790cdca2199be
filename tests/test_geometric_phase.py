"""Phase line integrals: direct, boundary, and reduced forms, plus path checks."""
import re
import warnings

import numpy as np
import pytest

from sympberry import (
    ADAPTIVE,
    FIXED,
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
    covariance,
    exp_map,
    integrate_phase,
    integrate_phase_boundary_form,
    omega,
    phase_b_zero,
    polygon_phase,
    reference_phase,
    squeeze_circle_path,
)
from sympberry import geometric_phase
from sympberry.oracles import b_zero_loop
from sympberry.symplectic_core import LieAlgElement

UNIT_PARAMS = OscParams(1.0, (1.0,))
REFERENCE_R1 = -4.3388468454428593  # -pi sinh(1)^2


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
    "field,value", [("panels", 2.5), ("panels", 64.0), ("max_evals", 1e6), ("max_evals", "45")]
)
def test_quad_spec_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match="integer"):
        QuadSpec(kind=FIXED, **{field: value})
    assert QuadSpec(kind=FIXED, **{field: np.int64(64)}).kind == FIXED


def test_quad_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(kind="simpson")
    with pytest.raises(ValueError):
        QuadSpec(tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(max_evals=10)
    with pytest.raises(ValueError):
        QuadSpec(panels=0)


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


def test_integrate_phase_fixed_rule():
    path = squeeze_circle_path(1, 1.0, UNIT_PARAMS)
    result = integrate_phase(path, UNIT_PARAMS, QuadSpec(kind=FIXED, panels=32))
    assert result.evaluations == 32 * 15
    assert result.value == pytest.approx(REFERENCE_R1, rel=1e-10)


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
        return geometric_phase._integrate(loop, p, None, lambda Ms, dMs, ts: kernel(Ms, dMs, p)).value

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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_split_kernels_sum_to_the_connection(rng, random_symplectic, n):
    ts = np.linspace(0.0, 1.0, 9)
    for _ in range(5):
        p = OscParams(rng.uniform(0.3, 3.0), tuple(rng.uniform(0.3, 3.0, n)))
        Ms, dMs = _random_path_stack(rng, random_symplectic, n, ts)
        direct = geometric_phase._connection_values(Ms, dMs, p)
        cov = geometric_phase._covariance_values(Ms, dMs, p)
        split = cov + geometric_phase._winding_values(Ms, dMs, p)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(split - direct)) <= 1e-12 * scale


def test_covariance_kernel_sees_the_state_covariance(rng, random_symplectic):
    for n in (1, 2, 3):
        p = OscParams(rng.uniform(0.3, 3.0), tuple(rng.uniform(0.3, 3.0, n)))
        Ms = np.array([random_symplectic(rng, n).data for _ in range(6)])
        V, _ = geometric_phase._covariance_stack(Ms, np.zeros_like(Ms), p)
        for M, Vk in zip(Ms, V):
            expected = covariance(SympMatrix(n, M), p).data
            assert np.max(np.abs(Vk - expected)) <= 1e-14 * np.max(np.abs(expected))
        # dV is the derivative of V along the tangent: exact for the quadratic M W M^T / 2
        ts = np.linspace(0.1, 0.9, 3)
        Ms, dMs = _random_path_stack(rng, random_symplectic, n, ts)
        V, dV = geometric_phase._covariance_stack(Ms, dMs, p)
        h = 1e-6
        ahead, _ = geometric_phase._covariance_stack(Ms + h * dMs, dMs, p)
        behind, _ = geometric_phase._covariance_stack(Ms - h * dMs, dMs, p)
        assert np.max(np.abs(dV - (ahead - behind) / (2.0 * h))) <= 1e-8 * np.max(np.abs(V))


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
        integrate_phase(path, p, QuadSpec(kind=FIXED, panels=4))
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
    with pytest.raises(NonFiniteIntegrand):
        integrate_phase(path, UNIT_PARAMS, QuadSpec(kind=FIXED, panels=3))


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


def test_batch_wrong_stack_shape():
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    with pytest.raises(ValueError, match="tangent_batch returned shape"):
        integrate_phase(_circle_with(tangent_batch=lambda ts: base.tangent_batch(ts)[:-1]), UNIT_PARAMS)
    with pytest.raises(ValueError, match="eval_batch returned shape"):
        _circle_with(eval_batch=lambda ts: base.eval_batch(ts)[:, :1, :1])
    with pytest.raises(ValueError, match="eval_batch returned shape"):
        _circle_with(eval_batch=lambda ts: base.eval_batch(ts)[0])


def test_batch_callables_given_together():
    base = squeeze_circle_path(1, 0.7, UNIT_PARAMS)
    with pytest.raises(ValueError, match="together"):
        SympPath(n=1, eval=base.eval, eval_batch=base.eval_batch)
    with pytest.raises(ValueError, match="together"):
        SympPath(n=1, eval=base.eval, tangent_batch=base.tangent_batch)


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
        for quad in (QuadSpec(), QuadSpec(kind=FIXED, panels=5)):
            a = integrate_phase(batch, p, quad)
            b = integrate_phase(loop, p, quad)
            assert a.evaluations == b.evaluations
            assert a.value == pytest.approx(b.value, rel=1e-13)


def test_integrate_phase_mode_mismatch():
    path = squeeze_circle_path(1, 0.5, UNIT_PARAMS)
    two = OscParams(1.0, (1.0, 1.0))
    for integral in (integrate_phase, integrate_phase_boundary_form, phase_b_zero):
        with pytest.raises(ValueError, match="parameter modes"):
            integral(path, two)


INTEGRALS = (integrate_phase, integrate_phase_boundary_form, phase_b_zero)
RULES = {ADAPTIVE: QuadSpec(), FIXED: QuadSpec(kind=FIXED, panels=3)}
ENGINES = ("adaptive_gauss_kronrod", "fixed_gauss_kronrod")
B_ZERO_PARAMS = OscParams(0.9, (1.1, 0.8))


def _shear_loop():
    # closed two-mode loop with zero upper-right block, so all three integrals apply,
    # and a varying integrand, so the adaptive rule refines
    K0 = np.array([[0.0, 0.5], [-0.5, 0.0]])
    G0, G1 = np.array([[0.4, -0.1], [-0.1, 0.3]]), np.array([[-0.2, 0.3], [0.3, 0.5]])
    return b_zero_loop(K0, G0, G1)


@pytest.mark.parametrize("kind", RULES)
@pytest.mark.parametrize("integral", INTEGRALS)
def test_integrals_share_budget_finiteness_and_counts(integral, kind):
    loop = _shear_loop()
    if kind == ADAPTIVE:
        with pytest.raises(QuadratureBudgetExceeded):
            integral(loop, B_ZERO_PARAMS, QuadSpec(max_evals=15))
    else:
        for panels in (1, 2, 7):
            quad = QuadSpec(kind=FIXED, panels=panels)
            assert integral(loop, B_ZERO_PARAMS, quad).evaluations == 15 * panels
    nan_tangents = SympPath(
        n=2,
        closed=True,
        eval_batch=loop.eval_batch,
        tangent_batch=lambda ts: np.full((ts.size, 4, 4), np.nan),
    )
    with pytest.raises(NonFiniteIntegrand, match=r"^integrand is non-finite at t=0\.\d+$"):
        integral(nan_tangents, B_ZERO_PARAMS, RULES[kind])


@pytest.mark.parametrize("kind", RULES)
@pytest.mark.parametrize("integral", INTEGRALS)
def test_integrals_call_one_engine_through_the_module_namespace(monkeypatch, integral, kind):
    # bench/tracing.py counts engine calls and integrand nodes by rebinding these
    # names in geometric_phase; an integral holding its own reference would hide both
    calls = dict.fromkeys(ENGINES, 0)
    nodes = []
    for name in ENGINES:
        engine = getattr(geometric_phase, name)

        def counting(f, *args, _name=name, _engine=engine, **kwargs):
            calls[_name] += 1

            def seen(ts):
                nodes.extend(ts)
                return f(ts)

            return _engine(seen, *args, **kwargs)

        monkeypatch.setattr(geometric_phase, name, counting)
    result = integral(_shear_loop(), B_ZERO_PARAMS, RULES[kind])
    selected = ENGINES[0] if kind == ADAPTIVE else ENGINES[1]
    assert calls == {name: int(name == selected) for name in ENGINES}
    assert len(nodes) == result.evaluations
    if kind == ADAPTIVE:
        assert result.evaluations > 15  # refined, so more than one integrand call was seen


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

    # one stack mixing both ends, nodes within h of them, and interior nodes
    ts = np.array([0.0, 0.4 * h, 0.3, 1.0 - 0.5 * h, 0.71, 1.0, 0.9 * h])
    expected = []
    for t in ts:
        if t < h:
            expected.append((-3.0 * m(t) + 4.0 * m(t + h) - m(t + 2 * h)) / (2.0 * h))
        elif t > 1.0 - h:
            expected.append((3.0 * m(t) - 4.0 * m(t - h) + m(t - 2 * h)) / (2.0 * h))
        else:
            expected.append((m(t + h) - m(t - h)) / (2.0 * h))
    expected = np.array(expected).tobytes()
    assert path.sample(ts)[1].tobytes() == expected
    assert np.array([path.derivative(t) for t in ts]).tobytes() == expected


def test_eval_calls_per_node():
    # a finite-difference tangent costs two evaluations more per interior node
    base = squeeze_circle_path(1, 0.9, UNIT_PARAMS)
    calls = []

    def counted(t):
        calls.append(t)
        return base.eval(t)

    fd = SympPath(n=1, eval=counted, closed=True)
    analytic = SympPath(n=1, eval=counted, tangent=base.derivative, closed=True)
    for path, per_node in ((fd, 3), (analytic, 1)):
        for quad in (QuadSpec(), QuadSpec(kind=FIXED, panels=4)):
            calls.clear()
            result = integrate_phase(path, UNIT_PARAMS, quad)
            assert len(calls) == per_node * result.evaluations


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
    residual = geometric_phase._residual

    def nan_at_node_3(Ms, form):
        resid = residual(Ms, form)
        assert resid.max() <= 1e-14  # every real residual passes
        resid[3] = np.nan
        return resid

    monkeypatch.setattr(geometric_phase, "_residual", nan_at_node_3)
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
