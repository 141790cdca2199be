"""Phase line integrals: direct, boundary, and reduced forms, plus path checks."""
import numpy as np
import pytest
import scipy.linalg

from sympberry import (
    FIXED,
    GROUPED,
    NonFiniteIntegrand,
    NotBZeroForm,
    OscParams,
    PhaseResult,
    QuadSpec,
    SympMatrix,
    SympPath,
    check_canonical_invariance,
    connection_integrand,
    exp_map,
    integrate_phase,
    integrate_phase_boundary_form,
    phase_b_zero,
    reference_phase,
    squeeze_circle_path,
)
from sympberry.symplectic_core import LieAlgElement

UNIT_PARAMS = OscParams(1.0, (1.0,))
REFERENCE_R1 = -4.3388468454428593  # -pi sinh(1)^2


def _constant_path(n=1):
    M = SympMatrix(n, np.eye(2 * n), GROUPED)
    return SympPath(n=n, eval=lambda t: M, tangent=lambda t: np.zeros((2 * n, 2 * n)), closed=True)


def _skew_block(seed, n):
    r = np.random.default_rng(seed)
    K = r.uniform(-0.8, 0.8, size=(n, n))
    return (K - K.T) / 2.0


def _b_zero_path(seed, hbar_scale=1.0, closed=True):
    """[[A, 0], [G A, A^{-T}]] with A(t) = exp(sin(2 pi t) K) and symmetric G(t)."""
    r = np.random.default_rng(seed)
    K0 = _skew_block(seed + 1, 2)
    G0 = r.uniform(-0.6, 0.6, size=(2, 2))
    G0 = (G0 + G0.T) / 2.0
    G1 = r.uniform(-0.6, 0.6, size=(2, 2))
    G1 = (G1 + G1.T) / 2.0

    def eval_path(t):
        A = scipy.linalg.expm(np.sin(2.0 * np.pi * t) * K0)
        G = 0.4 * G0 + (1.0 - np.cos(2.0 * np.pi * t)) * G1
        top = np.hstack([A, np.zeros((2, 2))])
        bottom = np.hstack([G @ A, np.linalg.inv(A).T])
        return SympMatrix(2, np.vstack([top, bottom]), GROUPED)

    return SympPath(n=2, eval=eval_path, closed=closed)


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


def test_boundary_form_warns_on_open_path():
    base = squeeze_circle_path(1, 0.6, UNIT_PARAMS)
    half = SympPath(
        n=1,
        eval=lambda t: base.eval(0.5 * t),
        tangent=lambda t: 0.5 * base.derivative(0.5 * t),
    )
    with pytest.warns(UserWarning):
        open_result = integrate_phase_boundary_form(half, UNIT_PARAMS)
    # the endpoint trace vanishes identically, so even here the two
    # formulations coincide; only the closure argument is lost
    direct = integrate_phase(half, UNIT_PARAMS)
    assert abs(open_result.value - direct.value) <= 1e-8


def test_b_zero_rotation_only_path():
    # C = 0 throughout: the reduced integrand vanishes identically
    K0 = _skew_block(7, 2)

    def eval_path(t):
        A = scipy.linalg.expm(np.sin(2.0 * np.pi * t) * K0)
        top = np.hstack([A, np.zeros((2, 2))])
        bottom = np.hstack([np.zeros((2, 2)), np.linalg.inv(A).T])
        return SympMatrix(2, np.vstack([top, bottom]), GROUPED)

    path = SympPath(n=2, eval=eval_path, closed=True)
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


def test_b_zero_matches_general_form(rng):
    for seed in (11, 23, 31):
        path = _b_zero_path(seed)
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
        loop = SympPath(n=modes, eval=batch.eval, tangent=batch.tangent, closed=True)
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
