"""Squeeze generators, matrices, circle paths, and their reference phases."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympberry import (
    OscParams,
    SqueezeSpec,
    exp_map,
    integrate_phase,
    reference_phase,
    squeeze_b_block_n2,
    squeeze_block_exp,
    squeeze_circle_path,
    squeeze_lie_n1,
    squeeze_matrix_n1,
    squeeze_matrix_n2,
)
from sympberry import squeeze_paths as sp
from sympberry._quadrature import GK15_NODES
from sympberry.geometric_phase import _PARAM_SAMPLES

UNIT_1 = OscParams(1.0, (1.0,))
UNIT_2 = OscParams(1.0, (1.0, 1.0))

E = 2.7182818284590452
E_INV = 0.36787944117144233
REFERENCES_1 = {
    0.25: -0.20047439734983622,
    0.5: -0.85306906632122558,
    1.0: -4.3388468454428593,
    2.0: -41.324875503279583,
}


def _spec1(R, angle, params=UNIT_1):
    return SqueezeSpec(modes=1, R=R, angle=angle, params=params)


def _spec2(R, angle, params=UNIT_2):
    return SqueezeSpec(modes=2, R=R, angle=angle, params=params)


def test_spec_validation_and_angle_normalization():
    spec = _spec1(0.5, 7.0)
    assert 0.0 <= spec.angle < 2.0 * np.pi
    assert spec.angle == pytest.approx(7.0 - 2.0 * np.pi, abs=1e-15)
    with pytest.raises(ValueError):
        SqueezeSpec(modes=3, R=0.5, angle=0.0, params=UNIT_1)
    with pytest.raises(ValueError):
        SqueezeSpec(modes=2, R=0.5, angle=0.0, params=UNIT_1)  # one length given
    with pytest.raises(ValueError):
        _spec1(-0.5, 0.0)
    with pytest.raises(ValueError):
        _spec1(np.inf, 0.0)


def test_lie_n1_zero_magnitude():
    np.testing.assert_array_equal(squeeze_lie_n1(_spec1(0.0, 1.3)).data, np.zeros((2, 2)))


def test_lie_n1_literal_and_trace():
    L = squeeze_lie_n1(_spec1(1.0, 0.0)).data
    np.testing.assert_array_equal(L, np.array([[0.0, -1.0], [-1.0, 0.0]]))
    for angle in (0.0, 0.4, 2.2, 5.0):
        assert np.trace(squeeze_lie_n1(_spec1(1.0, angle)).data) == 0.0


def test_matrix_n1_literals():
    np.testing.assert_array_equal(squeeze_matrix_n1(_spec1(0.0, 0.9)).data, np.eye(2))
    M = squeeze_matrix_n1(_spec1(1.0, 0.0)).data
    np.testing.assert_allclose(M, np.diag([E_INV, E]), atol=1e-15)
    M = squeeze_matrix_n1(_spec1(0.5, np.pi / 2)).data
    ch, sh = np.cosh(0.5), np.sinh(0.5)
    np.testing.assert_allclose(M, [[ch, -sh], [-sh, ch]], atol=1e-15)


def test_matrix_n1_matches_exp_map():
    for R in (0.0, 0.5, 1.0, 2.0):
        for angle in np.arange(8) * np.pi / 4:
            for params in (UNIT_1, OscParams(0.7, (1.6,))):
                spec = SqueezeSpec(modes=1, R=R, angle=angle, params=params)
                closed = squeeze_matrix_n1(spec).data
                generic = exp_map(squeeze_lie_n1(spec)).data
                np.testing.assert_allclose(closed, generic, atol=1e-10)


def test_angle_periodicity():
    a = squeeze_matrix_n1(_spec1(0.7, 0.3)).data
    b = squeeze_matrix_n1(_spec1(0.7, 0.3 + 2.0 * np.pi)).data
    # the stored angle is reduced mod 2 pi, so only one rounding separates them
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


def test_b_block_zero_and_axis_literal():
    np.testing.assert_array_equal(squeeze_b_block_n2(_spec2(0.0, 1.1)), np.zeros((2, 2)))
    R = 0.8
    b = squeeze_b_block_n2(_spec2(R, 0.0))
    np.testing.assert_allclose(b, [[0.0, -R], [-R, 0.0]], atol=1e-16)


@settings(max_examples=60, deadline=None)
@given(
    R=st.floats(0.0, 3.0),
    angle=st.floats(0.0, 2.0 * np.pi),
    hbar=st.floats(0.3, 3.0),
    l1=st.floats(0.3, 3.0),
    l2=st.floats(0.3, 3.0),
)
def test_b_block_determinant_invariant(R, angle, hbar, l1, l2):
    spec = SqueezeSpec(modes=2, R=R, angle=angle, params=OscParams(hbar, (l1, l2)))
    b = squeeze_b_block_n2(spec)
    det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]  # LU det warns on the zero matrix
    assert det == pytest.approx(-R * R, abs=1e-12 * max(1.0, R * R))


def test_matrix_n2_identity_and_signs():
    np.testing.assert_array_equal(squeeze_matrix_n2(_spec2(0.0, 0.4)).data, np.eye(4))
    R = 0.6
    M = squeeze_matrix_n2(_spec2(R, 0.0)).data
    ch, sh = np.cosh(R), np.sinh(R)
    expected = np.array(
        [
            [ch, -sh, 0.0, 0.0],
            [-sh, ch, 0.0, 0.0],
            [0.0, 0.0, ch, sh],
            [0.0, 0.0, sh, ch],
        ]
    )
    np.testing.assert_allclose(M, expected, atol=1e-15)


def test_matrix_n2_matches_block_exponential(rng):
    # the squeeze's closed form against the two-mode closed form of its interleaved b block
    for _ in range(25):
        spec = SqueezeSpec(
            modes=2,
            R=rng.uniform(0.0, 2.0),
            angle=rng.uniform(0.0, 2.0 * np.pi),
            params=OscParams(rng.uniform(0.5, 2.0), tuple(rng.uniform(0.4, 2.5, 2))),
        )
        direct = squeeze_matrix_n2(spec).data
        via_block = squeeze_block_exp(squeeze_b_block_n2(spec)).data
        np.testing.assert_allclose(direct, via_block, atol=1e-10)


def test_circle_path_closed_and_tangent_consistent():
    for modes, params in ((1, UNIT_1), (2, OscParams(0.8, (1.2, 0.6)))):
        path = squeeze_circle_path(modes, 0.9, params)
        assert path.closed
        assert path.n == modes
        gap = np.max(np.abs(path.eval(1.0).data - path.eval(0.0).data))
        assert gap <= 1e-12
        fd_path = type(path)(n=modes, eval=path.eval, closed=True)
        for t in (0.1, 0.35, 0.77):
            assert np.max(np.abs(path.derivative(t) - fd_path.derivative(t))) <= 1e-6


def test_circle_path_rejects_bad_modes():
    with pytest.raises(ValueError):
        squeeze_circle_path(3, 0.5, UNIT_1)


def test_reference_phase_values():
    for R, expected in REFERENCES_1.items():
        assert reference_phase(1, R) == pytest.approx(expected, rel=1e-15)
        assert reference_phase(2, R) == pytest.approx(2.0 * expected, rel=1e-15)
    assert reference_phase(1, 0.0) == 0.0


def test_reference_phase_overflow_is_an_error():
    # sinh(R)^2 leaves the float range near R = 355; no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for modes, R in ((1, 400.0), (2, 400.0), (1, 800.0)):
            with pytest.raises(ValueError, match="overflow"):
                reference_phase(modes, R)
        assert reference_phase(1, 7.0) == -np.pi * np.sinh(7.0) ** 2
        assert np.isfinite(reference_phase(2, 350.0))


@pytest.mark.parametrize("R", [360.0, 711.0, 800.0])
@pytest.mark.parametrize("modes", [1, 2])
@pytest.mark.parametrize("hbar,length", [(1.0, 1.0), (0.5, 3.0)])
def test_overflowing_magnitude_is_an_error_without_warnings(R, modes, hbar, length):
    # M Omega M^T, the group check's product, leaves the float range near R = 355
    params = OscParams(hbar, (length,) * modes)
    matrix = squeeze_matrix_n1 if modes == 1 else squeeze_matrix_n2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"overflow at R={R!r}"):
            squeeze_circle_path(modes, R, params)
        with pytest.raises(ValueError, match=f"overflow at R={R!r}"):
            matrix(SqueezeSpec(modes, R, 0.3, params))


def test_reference_phase_validation():
    with pytest.raises(ValueError):
        reference_phase(3, 0.5)
    with pytest.raises(ValueError):
        reference_phase(1, -1.0)
    with pytest.raises(ValueError):
        reference_phase(1, np.nan)


def _direction(modes, params, c, s):
    """The NOTES.md direction matrix K, with c, s standing for cos, sin of the angle."""
    if modes == 1:
        k = params.lengths[0] ** 2 / params.hbar
        return np.array([[-c, -k * s], [-s / k, c]])
    l1, l2 = params.lengths
    k1, k2, k3 = l1 / l2, l1 * l2 / params.hbar, params.hbar / (l1 * l2)
    return np.array(
        [
            [0.0, -k1 * c, 0.0, -k2 * s],
            [-c / k1, 0.0, -k2 * s, 0.0],
            [0.0, -k3 * s, 0.0, c / k1],
            [-k3 * s, 0.0, k1 * c, 0.0],
        ]
    )


@pytest.mark.parametrize("modes", [1, 2])
def test_spec_matrix_is_a_row_of_the_circle_stack(modes, rng):
    # one closed form per family: the spec matrix and the circle agree bit for bit
    matrix = squeeze_matrix_n1 if modes == 1 else squeeze_matrix_n2
    for R in (0.0, 0.4, 1.3, 2.9):
        params = OscParams(rng.uniform(0.3, 3.0), tuple(rng.uniform(0.3, 3.0, modes)))
        ts = np.concatenate([np.linspace(0.0, 1.0, 33), rng.uniform(0.0, 1.0, 64)])
        Ms = squeeze_circle_path(modes, R, params).eval_batch(ts)
        for angle, M in zip((2.0 * np.pi * ts) % (2.0 * np.pi), Ms):
            spec = SqueezeSpec(modes=modes, R=R, angle=float(angle), params=params)
            assert matrix(spec).data.tobytes() == M.tobytes()


@pytest.mark.parametrize("modes", [1, 2])
def test_circle_tangent_is_the_quarter_turned_direction(modes, rng):
    # dM/dt = 2 pi sinh(R) K(phi + pi/2); cos(phi + pi/2) = -sin(phi), sin(phi + pi/2) = cos(phi)
    for _ in range(20):
        R = rng.uniform(0.0, 3.0)
        params = OscParams(rng.uniform(0.3, 3.0), tuple(rng.uniform(0.3, 3.0, modes)))
        ts = rng.uniform(0.0, 1.0, 15)
        dMs = squeeze_circle_path(modes, R, params).tangent_batch(ts)
        for phi, dM in zip((2.0 * np.pi * ts) % (2.0 * np.pi), dMs):
            K = _direction(modes, params, -np.sin(phi), np.cos(phi))
            expected = 2.0 * np.pi * np.sinh(R) * K
            np.testing.assert_allclose(dM, expected, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("modes", [1, 2])
def test_circle_samples_match_the_uncached_formulas_bitwise(modes, rng):
    # a looked-up (cos, sin) pair changes no bit of a sample, on a miss or on a hit
    params = OscParams(rng.uniform(0.3, 3.0), tuple(rng.uniform(0.3, 3.0, modes)))
    R = rng.uniform(0.0, 3.0)
    C = sp._circle_constants(modes, R, params)
    path = squeeze_circle_path(modes, R, params)
    node_sets = (_PARAM_SAMPLES, 0.5 + 0.5 * GK15_NODES, rng.uniform(0.0, 1.0, 15), rng.uniform(0.0, 1.0, 100))
    for ts in node_sets:
        a = (2.0 * np.pi * ts) % (2.0 * np.pi)
        Ms_expected = C[0] + np.cos(a)[:, None, None] * C[1] + np.sin(a)[:, None, None] * C[2]
        dMs_expected = 2.0 * np.pi * (np.cos(a)[:, None, None] * C[2] - np.sin(a)[:, None, None] * C[1])
        sp._cached_trig.cache_clear()
        for _ in range(2):
            Ms, dMs = path.sample(ts)
            assert Ms.tobytes() == Ms_expected.tobytes()
            assert dMs.tobytes() == dMs_expected.tobytes()
        info = sp._cached_trig.cache_info()
        cached = ts.size <= 30  # one miss, then the tangent and the second sample hit
        assert (info.misses, info.hits) == ((1, 3) if cached else (0, 0))


def test_the_trig_cache_is_keyed_by_content_and_read_only():
    path = squeeze_circle_path(1, 0.7, UNIT_1)
    ts = np.linspace(0.0, 1.0, 15)
    first = path.eval_batch(ts)
    ts[3] = 0.123  # the same array object, new content: a new key
    second = path.eval_batch(ts)
    assert second[3].tobytes() == path.eval_batch(np.array([0.123]))[0].tobytes()
    assert second[3].tobytes() != first[3].tobytes()
    assert np.delete(second, 3, axis=0).tobytes() == np.delete(first, 3, axis=0).tobytes()
    assert first.flags.writeable  # a sample is fresh, never the cached stack
    c, s = sp._circle_trig(ts)
    assert not c.flags.writeable and not s.flags.writeable


def test_no_node_set_above_one_adaptive_call_is_cached(monkeypatch):
    sizes = []
    cached = sp._cached_trig

    def recording(key):
        sizes.append(len(key) // 8)
        return cached(key)

    monkeypatch.setattr(sp, "_cached_trig", recording)
    cached.cache_clear()
    path = squeeze_circle_path(2, 1.0, UNIT_2)
    integrate_phase(path, UNIT_2)  # one panel: 15 nodes
    path.sample(np.concatenate([0.25 + 0.25 * GK15_NODES, 0.75 + 0.25 * GK15_NODES]))  # a split: 30
    path.sample(np.linspace(0.0, 1.0, 960))
    assert max(sizes) == 30 and 960 not in sizes
    assert cached.cache_info().maxsize == 8
    assert cached.cache_info().currsize == 3  # the construction points, 15 and 30 nodes


def test_circles_share_the_trig_cache_and_spec_matrices_bypass_it(rng):
    sp._cached_trig.cache_clear()
    for modes, params in ((1, UNIT_1), (2, UNIT_2)):
        integrate_phase(squeeze_circle_path(modes, 0.9, params), params)
    # the first circle misses its construction points and its first panel; the tangent and
    # every later sample hit
    before = sp._cached_trig.cache_info()
    assert (before.misses, before.hits) == (2, 4)
    for angle in rng.uniform(0.0, 2.0 * np.pi, 10):
        squeeze_matrix_n1(_spec1(0.9, angle))
        squeeze_matrix_n2(_spec2(0.9, angle))
    assert sp._cached_trig.cache_info() == before


@pytest.mark.parametrize("angle", [-1e-20, -1e-17, -0.0, 2.0 * np.pi])
def test_an_angle_that_rounds_to_two_pi_is_stored_as_zero(angle):
    # -1e-20 % (2 pi) rounds to 2 pi itself, outside the documented range [0, 2 pi)
    stored = SqueezeSpec(1, 0.5, angle, UNIT_1).angle
    assert stored == 0.0 and np.copysign(1.0, stored) == 1.0
    assert squeeze_matrix_n1(_spec1(0.5, angle)).data.tobytes() == squeeze_matrix_n1(_spec1(0.5, 0.0)).data.tobytes()


@pytest.mark.parametrize("count", [1, 2, 40, 200])
@pytest.mark.parametrize("modes", [1, 2])
def test_stacked_squeezes_are_the_spec_matrices_bitwise(modes, count, rng):
    # verify's draws, R uniform in [0, 2) and angles in [0, 2 pi), as strided columns of one
    # array, with R = 0 in the first row; and the same at non-unit hbar and lengths
    matrix = squeeze_matrix_n1 if modes == 1 else squeeze_matrix_n2
    for params in (OscParams(1.0, (1.0,) * modes), OscParams(0.7, tuple(rng.uniform(0.3, 3.0, modes)))):
        X = rng.uniform([0.0, 0.0, -1.0], [2.0, 2.0 * np.pi, 1.0], size=(count, 3))
        X[0, 0] = 0.0
        stack = sp._squeeze_stack(modes, X[:, 0], X[:, 1], params)
        assert stack.shape == (count, 2 * modes, 2 * modes)
        for (R, angle), M in zip(X[:, :2].tolist(), stack):
            assert M.tobytes() == matrix(SqueezeSpec(modes, R, angle, params)).data.tobytes()
        one = sp._squeeze_stack(modes, float(X[-1, 0]), X[:, 1], params)  # one R for every angle
        assert one.tobytes() == sp._squeeze_stack(modes, np.full(count, X[-1, 0]), X[:, 1], params).tobytes()


@pytest.mark.parametrize("modes", [1, 2])
def test_an_overflowing_magnitude_array_names_its_first_overflowing_R(modes):
    # the message of the scalar path, for the first R in array order, with no numpy warning
    params = OscParams(0.5, (3.0,) * modes)
    Rs = np.array([0.5, 2.0, 800.0, 1.0, 360.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for R in (800.0, 360.0):
            with pytest.raises(ValueError, match=f"^squeeze matrices overflow at R={R!r}: "):
                sp._circle_constants(modes, R, params)
        with pytest.raises(ValueError, match=r"^squeeze matrices overflow at R=800\.0: M Omega M\^T leaves"):
            sp._squeeze_stack(modes, Rs, np.zeros(5), params)
        with pytest.raises(ValueError, match=r"^squeeze matrices overflow at R=360\.0: "):
            sp._circle_constants(modes, Rs[::-1], params)
        stacks = sp._circle_constants(modes, Rs[:2], params)  # one (C0, C1, C2) stack per R
        assert stacks.tobytes() == np.array([sp._circle_constants(modes, R, params) for R in Rs[:2]]).tobytes()


@pytest.mark.parametrize("angle", [np.nan, np.inf])
def test_squeeze_spec_rejects_a_non_finite_angle(angle):
    with pytest.raises(ValueError, match="^angle must be finite$"):
        SqueezeSpec(modes=1, R=0.5, angle=angle, params=OscParams(1.0, (1.0,)))


def test_one_mode_squeeze_matrix_rejects_a_two_mode_spec():
    spec = SqueezeSpec(modes=2, R=0.5, angle=0.0, params=OscParams(1.0, (1.0, 1.0)))
    with pytest.raises(ValueError, match="^expected a 1-mode spec, got 2$"):
        sp.squeeze_matrix_n1(spec)


@pytest.mark.parametrize("modes", [True, 1.0, np.float64(2.0)])
def test_a_mode_count_is_an_integer_not_a_bool_or_float(modes):
    params = OscParams(1.0, (1.0,) * int(modes))
    with pytest.raises(ValueError, match=f"^squeeze transformations cover 1 or 2 modes, got {modes}$"):
        SqueezeSpec(modes=modes, R=0.5, angle=0.0, params=params)
    with pytest.raises(ValueError, match=f"^reference phases cover 1 or 2 modes, got {modes}$"):
        reference_phase(modes, 0.5)
    assert reference_phase(np.int64(int(modes)), 0.5) == reference_phase(int(modes), 0.5)


def test_circle_mode_count_is_checked_by_its_squeeze_spec():
    with pytest.raises(ValueError, match="^squeeze transformations cover 1 or 2 modes, got 3$"):
        squeeze_circle_path(3, 0.5, OscParams(1.0, (1.0, 1.0, 1.0)))


@pytest.mark.parametrize("R", [-1, np.float32(-0.5), "nan"])
def test_magnitude_rule_names_the_spec_value_and_the_reference_float(R):
    with pytest.raises(ValueError, match=re.escape(f"magnitude must be finite and >= 0, got {R!r}")):
        SqueezeSpec(modes=1, R=R, angle=0.0, params=OscParams(1.0, (1.0,)))
    with pytest.raises(ValueError, match=re.escape(f"magnitude must be finite and >= 0, got {float(R)!r}")):
        reference_phase(1, R)
