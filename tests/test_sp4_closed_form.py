"""Closed-form 4x4 exponential: structure, coefficients, branches, fallback."""
import cmath
import math
import re

import numpy as np
import pytest
import scipy.linalg

from sympberry import (
    BRANCH_CLOSED_FORM,
    BRANCH_FALLBACK,
    DegenerateEigenvalues,
    LieAlgElement,
    OscParams,
    SqueezeSpec,
    Sp4Generator,
    SympPath,
    closed_form_exp,
    coeff_closed,
    coeff_recurrence,
    convert_ordering,
    covariance,
    eigenvalues,
    exp_map,
    gamma_permutation,
    integrate_phase,
    s_matrix,
    series_coefficients,
    squeeze_block_exp,
    squeeze_matrix_n2,
    symplectic_residual,
)
from sympberry import sp4_closed_form
from sympberry._random import random_generators

COSH_HALF = 1.1276259652063807  # cosh(0.5)
SINHC_QUARTER = 1.0421906109874948  # sinh(0.5) / 0.5
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_GAMMA = gamma_permutation(2)


def _grouped(X):
    """An interleaved reference Gamma X Gamma^T, in the grouped ordering of closed_form_exp."""
    return _GAMMA @ X @ _GAMMA.T


def _zero_gen(b):
    return Sp4Generator(a=np.zeros((2, 2)), b=np.asarray(b, float), c=np.zeros((2, 2)))


def test_generator_validation():
    with pytest.raises(ValueError):
        Sp4Generator(
            a=np.array([[0.0, 1.0], [0.0, 0.0]]), b=np.zeros((2, 2)), c=np.zeros((2, 2))
        )
    g = _zero_gen([[0.0, 1.0], [2.0, 0.0]])  # b need not be symmetric
    assert g.lie_element().n == 2


@pytest.mark.parametrize(
    "blocks, message",
    [
        (dict(a=np.zeros((3, 3))), "block a must be 2x2, got shape (3, 3)"),
        (dict(a=np.zeros((2, 3))), "block a must be 2x2, got shape (2, 3)"),
        (dict(b=np.full((2, 2), np.nan)), "block b contains non-finite entries"),
        (dict(b=np.full((2, 2), -np.inf)), "block b contains non-finite entries"),
        (dict(c=np.array([[0.0, 1.0], [0.5, 0.0]])), "block c must be symmetric: asymmetry 5.000e-01"),
        (dict(b=np.eye(2) + 1e-3j), "block b must be real-valued, got dtype complex128"),
        (dict(a=np.zeros((2, 2), dtype=complex)), "block a must be real-valued, got dtype complex128"),
        (dict(c=np.array([[1 + 0j, 0], [0, 1]], dtype=object)), "block c must be real-valued, got dtype object"),
    ],
    ids=[
        "blocks0-block a must be 2x2, got shape (3, 3)",
        "blocks1-block a must be 2x2, got shape (2, 3)",
        "blocks2-block b contains non-finite entries",
        "blocks3-block b contains non-finite entries",
        "blocks4-block c must be symmetric: asymmetry 5.000e-01",
        "blocks5-block b must be real-valued, got dtype complex128",
        "blocks6-block a must be real-valued, got dtype complex128",
        "blocks7-block c must be real-valued, got dtype object",
    ],
)
def test_generator_rejections(blocks, message):
    full = {name: np.zeros((2, 2)) for name in "abc"} | blocks
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        Sp4Generator(**full)
    assert type(info.value) is ValueError


def test_squeeze_block_exp_rejects_complex_input():
    with pytest.raises(ValueError, match=r"^block b must be real-valued, got dtype complex128$"):
        squeeze_block_exp(np.diag([0.5, -0.5]) + 1e-3j)


def _explicit_d_and_invariants(g):
    """d = a J b + b J c and (det a, det b, det c, det d) written out entry by entry."""
    (a00, a01), (a10, a11) = g.a.tolist()
    (b00, b01), (b10, b11) = g.b.tolist()
    (c00, c01), (c10, c11) = g.c.tolist()
    # a J = [[-a01, a00], [-a11, a10]] and b J = [[-b01, b00], [-b11, b10]]
    d00 = (-a01 * b00 + a00 * b10) + (-b01 * c00 + b00 * c10)
    d01 = (-a01 * b01 + a00 * b11) + (-b01 * c01 + b00 * c11)
    d10 = (-a11 * b00 + a10 * b10) + (-b11 * c00 + b10 * c10)
    d11 = (-a11 * b01 + a10 * b11) + (-b11 * c01 + b10 * c11)
    invariants = (
        a00 * a11 - a01 * a10,
        b00 * b11 - b01 * b10,
        c00 * c11 - c01 * c10,
        d00 * d11 - d01 * d10,
    )
    return np.array([[d00, d01], [d10, d11]]), invariants


def test_invariants_computed_once_per_generator(monkeypatch):
    real_det22, real_det = sp4_closed_form._det22, np.linalg.det
    det22_calls, det_shapes = [], []

    def counting_det22(x):
        det22_calls.append(x)
        return real_det22(x)

    def counting_det(x):
        det_shapes.append(np.shape(x))
        return real_det(x)

    def every_closed_form(g):
        for order in range(1, 11):
            coeff_recurrence(g, order)
            coeff_closed(g, order)
        series_coefficients(g)
        eigenvalues(g)
        s_matrix(g)
        closed_form_exp(g)

    # non-degenerate, so every closed form below runs
    g = Sp4Generator(
        a=np.array([[0.3, 0.1], [0.1, -0.2]]),
        b=np.array([[0.5, -0.4], [0.2, 0.7]]),
        c=np.array([[-0.1, 0.25], [0.25, 0.4]]),
    )
    monkeypatch.setattr(sp4_closed_form, "_det22", counting_det22)
    monkeypatch.setattr(np.linalg, "det", counting_det)
    every_closed_form(g)
    # det a, det b, det c, det d once; the SympMatrix validating the result computes no
    # np.linalg.det at the default tolerance, where its residual implies the determinant
    assert len(det22_calls) == 4
    assert det_shapes == []
    det22_calls.clear()
    every_closed_form(g)
    assert det22_calls == []
    assert det_shapes == []

    # the fault-injection pattern: a new instance gets its own values
    moved = Sp4Generator(a=g.a, b=g.b + 1e-3, c=g.c)
    assert moved.invariants != g.invariants
    assert not np.array_equal(moved.d, g.d)
    assert len(det22_calls) == 4
    monkeypatch.undo()
    assert sp4_closed_form._det22 is real_det22 and np.linalg.det is real_det

    for gen in (g, moved):
        expected_d, expected_invariants = _explicit_d_and_invariants(gen)
        np.testing.assert_array_equal(gen.d, expected_d)
        assert gen.invariants == expected_invariants
        assert all(type(x) is float for x in gen.invariants)
        # the explicit formulas are a J b + b J c and the determinants
        np.testing.assert_allclose(gen.d, gen.a @ _J @ gen.b + gen.b @ _J @ gen.c, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            gen.invariants, [np.linalg.det(x) for x in (gen.a, gen.b, gen.c, gen.d)], rtol=0, atol=1e-15
        )
    assert not g.d.flags.writeable
    with pytest.raises(ValueError):
        g.d[0, 0] = 1.0


def test_spectrum_and_lie_element_cached_per_instance(monkeypatch):
    g = Sp4Generator(
        a=np.array([[0.3, 0.1], [0.1, -0.2]]),
        b=np.array([[0.5, -0.4], [0.2, 0.7]]),
        c=np.array([[-0.1, 0.25], [0.25, 0.4]]),
    )
    moved = Sp4Generator(a=g.a, b=g.b + 1e-3, c=g.c)
    real_sqrt = cmath.sqrt
    sqrt_calls = []

    def counting_sqrt(z):
        sqrt_calls.append(z)
        return real_sqrt(z)

    monkeypatch.setattr(cmath, "sqrt", counting_sqrt)
    for gen in (g, moved):
        sqrt_calls.clear()
        for order in range(1, 11):
            coeff_closed(gen, order)
        eigenvalues(gen)
        assert len(sqrt_calls) == 1  # the eigenvalues' square root, once per instance
    monkeypatch.undo()
    assert eigenvalues(moved) != eigenvalues(g)
    for gen in (g, moved):
        det_a, det_b, det_c, det_d = gen.invariants
        root = cmath.sqrt((det_a - det_c) ** 2 + 4.0 * det_d) / 2.0
        center = -(det_a + det_c + 2.0 * det_b) / 2.0
        assert eigenvalues(gen) == (center + root, center - root)

    # one validated generator per instance, shared by u_matrix and the fallback
    assert g.lie_element() is g.lie_element()
    assert moved.lie_element() is not g.lie_element()
    for gen in (g, moved):
        np.testing.assert_array_equal(gen.lie_element().data, _grouped(np.block([[gen.a, gen.b], [gen.b.T, gen.c]])))
    degenerate = _zero_gen([[0.3, -0.5], [0.2, 0.1]])
    L = degenerate.lie_element()
    built = []
    real_post_init = LieAlgElement.__post_init__

    def counting_post_init(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(LieAlgElement, "__post_init__", counting_post_init)
    degenerate.u_matrix()
    assert closed_form_exp(degenerate, return_branch=True)[1] == BRANCH_FALLBACK
    assert built == []  # the degenerate branch builds no second generator
    assert degenerate.lie_element() is L


def test_s_matrix_zero_generator():
    g = _zero_gen(np.zeros((2, 2)))
    np.testing.assert_array_equal(s_matrix(g), np.zeros((4, 4)))


def test_s_matrix_antidiagonal_b():
    beta = 0.7
    g = _zero_gen(np.diag([beta, -beta]))
    # -det b = beta^2, d = 0: the square collapses to a scalar matrix
    np.testing.assert_allclose(s_matrix(g), beta**2 * np.eye(4), atol=1e-15)


def test_s_matrix_is_square_of_u(rng, random_generator):
    for _ in range(50):
        g = random_generator(rng)
        U = g.u_matrix()
        np.testing.assert_allclose(s_matrix(g), U @ U, atol=1e-12)


def test_eigenvalues_zero_and_squeeze():
    assert eigenvalues(_zero_gen(np.zeros((2, 2)))) == (0, 0)
    r = 0.8
    lam_p, lam_m = eigenvalues(_zero_gen([[0.0, -r], [-r, 0.0]]))  # det b = -r^2
    assert lam_p == pytest.approx(r**2, abs=1e-14)
    assert lam_m == pytest.approx(r**2, abs=1e-14)


def test_eigenvalues_match_u_spectrum(rng, random_generator):
    for _ in range(50):
        g = random_generator(rng)
        lam_p, lam_m = eigenvalues(g)
        # each eigenvalue of U^2 appears twice in the raw spectrum
        spectrum = np.linalg.eigvals(s_matrix(g))
        for lam in (lam_p, lam_m):
            dist = np.sort(np.abs(spectrum - lam))
            assert dist[1] <= 1e-10


def test_recurrence_initial_values(rng, random_generator):
    for _ in range(20):
        g = random_generator(rng)
        det_a, det_b, det_c = (np.linalg.det(x) for x in (g.a, g.b, g.c))
        alpha, beta, gamma = coeff_recurrence(g, 1)
        assert alpha == pytest.approx(-(det_a + det_b), rel=1e-14)
        assert beta == 1.0
        assert gamma == pytest.approx(-(det_c + det_b), rel=1e-14)


def test_recurrence_zero_generator():
    g = _zero_gen(np.zeros((2, 2)))
    assert coeff_recurrence(g, 1) == (0.0, 1.0, 0.0)
    # beyond n=1 everything vanishes for the zero generator
    assert coeff_recurrence(g, 2) == (0.0, 0.0, 0.0)
    assert coeff_recurrence(g, 5) == (0.0, 0.0, 0.0)


def _nondegenerate(rng, random_generator):
    while True:
        g = random_generator(rng)
        try:
            coeff_closed(g, 1)
        except DegenerateEigenvalues:
            continue
        return g


def test_closed_coefficients_match_recurrence(rng, random_generator):
    for _ in range(30):
        g = _nondegenerate(rng, random_generator)
        for n in (1, 3, 5, 10):
            exact = coeff_recurrence(g, n)
            closed = coeff_closed(g, n)
            for x, y in zip(exact, closed):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(x))


@pytest.mark.parametrize("coeffs", [coeff_recurrence, coeff_closed])
@pytest.mark.parametrize("power", [True, np.True_, 2.0, 0, -1], ids=["True", "power1", "2.0", "0", "-1"])
def test_coefficient_power_must_be_a_positive_integer(rng, random_generator, coeffs, power):
    # a bool is an int subclass but no count, as everywhere else in the package
    g = _nondegenerate(rng, random_generator)
    with pytest.raises(ValueError, match=f"^power must be a positive integer, got {re.escape(repr(power))}$"):
        coeffs(g, power)
    assert coeffs(g, np.int64(3)) == coeffs(g, 3)


def test_closed_coefficients_degenerate_raises():
    g = _zero_gen([[0.0, -0.5], [-0.5, 0.0]])  # lambda_+ = lambda_-
    with pytest.raises(DegenerateEigenvalues):
        coeff_closed(g, 3)
    with pytest.raises(DegenerateEigenvalues):
        series_coefficients(g)


def test_series_coefficients_match_truncated_sums(rng, random_generator):
    # the six summed coefficients against 30 recurrence terms
    for _ in range(10):
        g = _nondegenerate(rng, random_generator)
        coeffs = series_coefficients(g)
        even = np.array([1.0, 0.0, 1.0])  # identity term of the even part
        odd = np.array([1.0, 0.0, 1.0])  # identity term of the odd part
        for k in range(1, 31):
            term = np.array(coeff_recurrence(g, k))
            even += term / math.factorial(2 * k)
            odd += term / math.factorial(2 * k + 1)
        got_even = np.array([coeffs.alpha_e, coeffs.beta_e, coeffs.gamma_e])
        got_odd = np.array([coeffs.alpha_o, coeffs.beta_o, coeffs.gamma_o])
        np.testing.assert_allclose(got_even, even, rtol=0, atol=1e-9)
        np.testing.assert_allclose(got_odd, odd, rtol=0, atol=1e-9)


def test_series_coefficients_real_for_negative_branch(rng, random_generator):
    # find generators whose lower eigenvalue is negative: complex sqrt branch
    found = 0
    for _ in range(5000):
        if found >= 5:
            break
        g = random_generator(rng)
        lam_p, lam_m = eigenvalues(g)
        if abs(lam_m.imag) > 1e-14 or lam_m.real > -0.1:
            continue
        coeffs = series_coefficients(g)
        for value in (
            coeffs.alpha_e,
            coeffs.alpha_o,
            coeffs.beta_e,
            coeffs.beta_o,
            coeffs.gamma_e,
            coeffs.gamma_o,
        ):
            assert isinstance(value, float) and np.isfinite(value)
        found += 1
    assert found >= 5


def test_closed_form_exp_identity():
    M, branch = closed_form_exp(_zero_gen(np.zeros((2, 2))), return_branch=True)
    np.testing.assert_allclose(M.data, np.eye(4), atol=1e-15)
    assert branch == BRANCH_FALLBACK  # zero generator is exactly degenerate


def test_closed_form_exp_against_generic(rng, random_generator):
    worst = 0.0
    for _ in range(200):
        g = random_generator(rng, scale=0.8)
        M = closed_form_exp(g)
        assert symplectic_residual(M.data) <= 1e-9
        generic = _grouped(scipy.linalg.expm(g.u_matrix()))
        worst = max(worst, float(np.max(np.abs(M.data - generic))))
    assert worst <= 1e-9


def test_closed_form_exp_degenerate_fallback(rng):
    for _ in range(30):
        g = _zero_gen(rng.uniform(-1, 1, size=(2, 2)))
        M, branch = closed_form_exp(g, return_branch=True)
        assert branch == BRANCH_FALLBACK
        generic = _grouped(scipy.linalg.expm(g.u_matrix()))
        np.testing.assert_allclose(M.data, generic, atol=1e-9)


# the eps = 1e-10 member of the real-pair gap sweep in test_closed_form_mpmath.py: c is the
# adjugate of a, so det a == det c, but d = a J b + b J c != 0, a Jordan-type degeneracy
_JORDAN = Sp4Generator(
    a=np.array([[0.9, 0.2], [0.2, -0.4]]),
    b=10.0**-10 * np.array([[0.47, -0.77], [-0.22, 0.03]]),
    c=np.array([[-0.4, -0.2], [-0.2, 0.9]]),
)


def test_only_a_jordan_degeneracy_calls_the_generic_exponential(monkeypatch, rng):
    calls = []
    expm = sp4_closed_form._expm
    monkeypatch.setattr(sp4_closed_form, "_expm", lambda X: calls.append(X.shape) or expm(X))
    for _ in range(20):  # a = c = 0: S = -det(b) I, a scalar square
        g = _zero_gen(rng.uniform(-1, 1, size=(2, 2)))
        assert closed_form_exp(g, return_branch=True)[1] == BRANCH_FALLBACK
    assert calls == []
    det_a, _, det_c, _ = _JORDAN.invariants
    assert det_a == det_c and _JORDAN.d.any()
    M, branch = closed_form_exp(_JORDAN, return_branch=True)
    assert branch == BRANCH_FALLBACK and calls == [(1, 4, 4)]
    np.testing.assert_allclose(M.data, _grouped(scipy.linalg.expm(_JORDAN.u_matrix())), atol=1e-9)


# family crossing the eigenvalue-degeneracy locus; b scales through the
# crossing slowly so adjacent samples differ only by the local variation
_A0 = np.array([[0.9, 0.2], [0.2, -0.4]])
_C0 = np.array([[-0.6, 0.1], [0.1, 0.7]])
_B0 = np.array(
    [
        [0.023643249400513433, 0.9009273926518706],
        [-0.7116807745607325, 0.8972988942744877],
    ]
)


def test_branch_continuity_across_degeneracy():
    g_unit = Sp4Generator(a=_A0, b=_B0, c=_C0)
    det_d0 = np.linalg.det(g_unit.d)
    assert det_d0 < 0  # required for a real crossing
    gap = np.linalg.det(_A0) - np.linalg.det(_C0)
    s_star = abs(gap) / (2.0 * np.sqrt(-det_d0))

    def gen(u):
        return Sp4Generator(a=_A0, b=(s_star + 0.005 * u) * _B0, c=_C0)

    mats = []
    branches = set()
    for k in range(-50, 51):
        g = gen(k * 1e-4)
        M, branch = closed_form_exp(g, return_branch=True)
        branches.add(branch)
        mats.append(M.data)
        generic = _grouped(scipy.linalg.expm(g.u_matrix()))
        assert np.max(np.abs(M.data - generic)) <= 1e-9
    jumps = [np.max(np.abs(mats[i + 1] - mats[i])) for i in range(len(mats) - 1)]
    assert max(jumps) <= 1e-6
    assert branches == {BRANCH_CLOSED_FORM, BRANCH_FALLBACK}


def test_squeeze_block_exp_identity_and_literals():
    np.testing.assert_array_equal(squeeze_block_exp(np.zeros((2, 2))).data, np.eye(4))

    b = np.diag([0.5, -0.5])  # -det b = 0.25
    M = squeeze_block_exp(b)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    expected = np.block(
        [
            [COSH_HALF * np.eye(2), SINHC_QUARTER * (J @ b)],
            [SINHC_QUARTER * (J @ b.T), COSH_HALF * np.eye(2)],
        ]
    )
    np.testing.assert_allclose(M.data, _grouped(expected), atol=1e-15)
    # the diagonal blocks carry cosh to the FIRST power; see NOTES.md. The second mode's
    # x2 and p2 sit at grouped indices 1 and 3
    assert M.data[1, 1] == pytest.approx(COSH_HALF, abs=1e-15)
    assert M.data[3, 3] == pytest.approx(COSH_HALF, abs=1e-15)


def test_squeeze_block_exp_matches_generic(rng):
    for _ in range(30):
        b = rng.uniform(-1.5, 1.5, size=(2, 2))
        g = _zero_gen(b)
        np.testing.assert_allclose(
            squeeze_block_exp(b).data, _grouped(scipy.linalg.expm(g.u_matrix())), atol=1e-9
        )


def test_closed_form_exp_consistent_with_squeeze_block(rng):
    for _ in range(20):
        b = rng.uniform(-1.0, 1.0, size=(2, 2))
        direct = squeeze_block_exp(b)
        general = closed_form_exp(_zero_gen(b))
        np.testing.assert_allclose(general.data, direct.data, atol=1e-9)


def test_interleaved_output_converts_to_grouped(rng):
    # the interleaved exp(U), read back by convert_ordering, is the closed form's own matrix
    b = rng.uniform(-0.8, 0.8, size=(2, 2))
    M = squeeze_block_exp(b)
    interleaved = _GAMMA.T @ M.data @ _GAMMA
    np.testing.assert_allclose(interleaved, scipy.linalg.expm(_zero_gen(b).u_matrix()), atol=1e-9)
    grouped = convert_ordering(interleaved)
    assert grouped.n == 2
    assert np.array_equal(grouped.data, M.data)


def test_the_closed_form_is_a_grouped_group_element(rng):
    # products, covariances and paths refused the closed form while it was interleaved
    p = OscParams(1.0, (1.0, 1.0))
    g = Sp4Generator(a=np.diag([0.3, -0.2]), b=np.array([[0.1, 0.4], [-0.2, 0.3]]), c=np.diag([0.5, 0.1]))
    M = closed_form_exp(g)
    S = squeeze_matrix_n2(SqueezeSpec(2, 0.4, 0.3, p))
    np.testing.assert_allclose((M @ S).data, M.data @ S.data, atol=1e-15)
    np.testing.assert_allclose(covariance(M, p).data, M.data @ M.data.T / 2.0, atol=1e-15)
    L = g.lie_element()  # grouped: exp(omega Gamma L Gamma^T) = Gamma exp(U) Gamma^T
    np.testing.assert_allclose(M.data, exp_map(L).data, atol=1e-12)
    scaled = lambda t: Sp4Generator(a=t * g.a, b=t * g.b, c=t * g.c)
    closed = integrate_phase(SympPath(n=2, eval=lambda t: closed_form_exp(scaled(t))), p)
    generic = integrate_phase(SympPath(n=2, eval=lambda t: exp_map(LieAlgElement(2, t * L.data))), p)
    assert closed.value == pytest.approx(generic.value, abs=1e-9)
    assert closed.value != 0.0


def test_exp_map_of_the_generator_is_the_closed_form():
    # exp_map reads every LieAlgElement as grouped; an interleaved generator here misses by 0.1 to 1
    for g in random_generators(np.random.default_rng(11), 300, 0.5):
        assert np.abs(exp_map(g.lie_element()).data - closed_form_exp(g).data).max() <= 1e-12


def test_overflowing_exponential_is_a_value_error():
    # sqrt of the eigenvalues near 800: cosh overflows a double; the result is non-finite
    huge = Sp4Generator(
        a=np.diag([0.3, 0.1]), b=np.array([[800.0, 1.0], [2.0, -800.0]]), c=np.diag([0.2, -0.4])
    )
    message = "^symplectic matrix contains non-finite entries$"
    with pytest.raises(ValueError, match=message) as info:
        closed_form_exp(huge)
    assert type(info.value) is ValueError
    assert not np.isfinite(list(vars(series_coefficients(huge)).values())).any()
    with pytest.raises(ValueError, match=message) as info:
        squeeze_block_exp(np.diag([800.0, -800.0]))
    assert type(info.value) is ValueError


def test_overflowing_coefficients_are_a_value_error():
    # eigenvalues near -4e40: the tenth power overflows a double in both routes
    huge = Sp4Generator(a=1e20 * np.eye(2), b=1e20 * np.eye(2), c=1e20 * np.eye(2))
    for coeffs in (coeff_closed, coeff_recurrence):
        assert all(map(math.isfinite, coeffs(huge, 6)))
        with pytest.raises(ValueError, match=r"^the coefficients of S\^10 overflow the float range$") as info:
            coeffs(huge, 10)
        assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "a, b", [(np.diag([1e200, 1.0]), np.zeros((2, 2))), (np.zeros((2, 2)), np.diag([1e200, 1e200]))],
    ids=["a0-b0", "a1-b1"],
)
def test_an_overflowing_spectrum_is_a_value_error(a, b):
    # (det a)^2 overflows a Python float; det b = inf leaves lam_p - lam_m NaN
    g = Sp4Generator(a=a, b=b, c=np.zeros((2, 2)))
    for call in (eigenvalues, closed_form_exp, lambda g: coeff_closed(g, 3)):
        with pytest.raises(ValueError, match="^the eigenvalues of S overflow the float range$") as info:
            call(g)
        assert type(info.value) is ValueError


def test_an_imaginary_residue_beyond_the_scale_is_rejected():
    message = "imaginary residue 1.000e-06 of beta_3 exceeds 1e-10 x scale; branch evaluation is inconsistent"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sp4_closed_form._real_with_residue_check(2.0 + 1e-6j, "beta_3")
