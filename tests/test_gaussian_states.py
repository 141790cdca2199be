"""Covariances, displacement amplitudes, and the one-mode overlap oracle."""
import re
import warnings

import numpy as np
import pytest

from sympberry import (
    DIMENSION_FULL,
    QUADRATURE,
    CovarianceMatrix,
    OscParams,
    OverlapGrid,
    SqueezeSpec,
    SympMatrix,
    covariance,
    covariance_quadrature,
    lambda_matrix,
    numeric_overlap_n1,
    omega,
    squeeze_matrix_n1,
    squeeze_matrix_n2,
    weyl_amplitude,
)

EXP_MINUS_ONE = 0.36787944117144233
VAC_SQUEEZED_LOW = 0.067667641618306345  # exp(-2) / 2
VAC_SQUEEZED_HIGH = 3.6945280494653251  # exp(2) / 2
OVERLAP_REFERENCE = 0.8173892232115386


def _identity(n):
    return SympMatrix(n, np.eye(2 * n))


def test_osc_params_validation():
    p = OscParams(hbar=2.0, lengths=(0.5, 1.5))
    assert p.n == 2
    np.testing.assert_array_equal(p.length_array(), [0.5, 1.5])
    with pytest.raises(ValueError):
        OscParams(hbar=0.0, lengths=(1.0,))
    with pytest.raises(ValueError):
        OscParams(hbar=1.0, lengths=(1.0, -2.0))
    with pytest.raises(ValueError):
        OscParams(hbar=1.0, lengths=())


@pytest.mark.parametrize(
    "lengths", [[[1.0, 2.0]], np.array([[1.0], [2.0]])], ids=["nested_list", "column"]
)
def test_osc_params_rejects_nested_lengths(lengths):
    with pytest.raises(ValueError, match="^lengths must be a flat sequence, got shape"):
        OscParams(1.0, lengths)


@pytest.mark.parametrize(
    "hbar, lengths, message",
    [
        (1.0, np.array([np.inf]), "lengths must be positive and finite, got inf"),
        (1.0, (1.0, -2.0, np.nan), "lengths must be positive and finite, got -2.0"),
        (np.float64(-1), (1.0,), "hbar must be positive and finite, got -1.0"),
        (np.float32(np.nan), (1.0,), "hbar must be positive and finite, got nan"),
    ],
    ids=["inf-length-array", "first-bad-length", "numpy-hbar", "numpy-nan-hbar"],
)
def test_osc_params_names_the_first_bad_entry_as_a_float(hbar, lengths, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OscParams(hbar, lengths)


def test_osc_params_from_mass_frequency():
    p = OscParams.from_mass_frequency(hbar=2.0, masses=[0.5, 2.0], frequencies=[1.0, 4.0])
    np.testing.assert_allclose(p.length_array(), [2.0, 0.5])
    with pytest.raises(ValueError):
        OscParams.from_mass_frequency(1.0, [1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        OscParams.from_mass_frequency(1.0, [-1.0], [1.0])


@pytest.mark.parametrize(
    "masses, frequencies, message",
    [
        ([1.0, np.inf], [1.0, 1.0], "masses must be positive and finite, got inf"),
        ([1e-320], [1.0], "mass 1e-320 and frequency 1.0 give length inf, outside the float range"),
        ([1e-320], [1e-320], "mass 1e-320 and frequency 1e-320 give length inf, outside the float range"),
        ([1e300], [1e300], "mass 1e+300 and frequency 1e+300 give length 0.0, outside the float range"),
    ],
    ids=["inf-mass", "tiny-mass", "tiny-both", "huge-both"],
)
def test_from_mass_frequency_names_the_bad_input(masses, frequencies, message):
    # one ValueError with Python floats in it, and no numpy warning (the suite makes one an error)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OscParams.from_mass_frequency(1.0, np.array(masses), frequencies)


def test_covariance_matrix_validation(rng, random_symplectic):
    with pytest.raises(ValueError):
        CovarianceMatrix(1, np.array([[1.0, 0.1], [0.0, 1.0]]), DIMENSION_FULL)
    with pytest.raises(ValueError):  # not positive definite
        CovarianceMatrix(1, np.diag([1.0, -1.0]), DIMENSION_FULL)
    with pytest.raises(ValueError):  # 2V fails the group condition
        CovarianceMatrix(1, np.diag([3.0, 5.0]), QUADRATURE)
    ok = CovarianceMatrix(1, np.diag([0.25, 1.0]), QUADRATURE)
    assert ok.convention == QUADRATURE


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, np.diag([np.nan, 1.0])), "covariance contains non-finite entries"),
        ((1, np.array([[1.0, 0.1], [0.0, 1.0]])), "covariance must be symmetric: asymmetry 1.000e-01"),
        (
            (1, np.diag([3.0, 5.0]), QUADRATURE),
            "2 x covariance fails the symplectic purity condition: residual 5.900e+01",
        ),
        ((np.int64(1), np.eye(4)), "expected shape (2, 2), got (4, 4)"),
        ((1, np.eye(2) + 1e-3j), "covariance must be real-valued, got dtype complex128"),
        ((1, np.eye(2, dtype=complex), QUADRATURE), "covariance must be real-valued, got dtype complex128"),
        ((1, np.array([[1 + 0j, 0], [0, 1]], dtype=object)), "covariance must be real-valued, got dtype object"),
        ((True, np.eye(2)), "mode count must be a positive integer, got True"),  # bool is not a count
        # 2V's residual overflows to inf, without an overflow warning
        (
            (2, np.diag([1e160, 1e-160, 1e160, 1e-160]), QUADRATURE),
            "2 x covariance fails the symplectic purity condition: residual inf",
        ),
        # 2V itself overflows, and inf * 0 makes the residual nan, which fails too
        (
            (1, np.diag([1e308, 1.0]), QUADRATURE),
            "2 x covariance fails the symplectic purity condition: residual nan",
        ),
    ],
    ids=[
        "args0-covariance contains non-finite entries",
        "args1-covariance must be symmetric: asymmetry 1.000e-01",
        "args2-2 x covariance fails the symplectic purity condition: residual 5.900e+01",
        "args3-expected shape (2, 2), got (4, 4)",
        "args4-covariance must be real-valued, got dtype complex128",
        "args5-covariance must be real-valued, got dtype complex128",
        "args6-covariance must be real-valued, got dtype object",
        "args7-mode count must be a positive integer, got True",
        "args8-2 x covariance fails the symplectic purity condition: residual inf",
        "args9-2 x covariance fails the symplectic purity condition: residual nan",
    ],
)
def test_covariance_matrix_rejections(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        CovarianceMatrix(*args)
    assert type(info.value) is ValueError


def test_lambda_matrix_identity_cases():
    np.testing.assert_allclose(
        lambda_matrix(_identity(1), OscParams(1.0, (1.0,))), np.eye(2), atol=1e-15
    )
    lam = lambda_matrix(_identity(2), OscParams(2.0, (1.0, 1.0)))
    np.testing.assert_allclose(lam, np.diag([0.25, 0.25, 1.0, 1.0]), atol=1e-15)


def test_lambda_matrix_scales_covariance(rng, random_symplectic):
    p = OscParams(0.7, (1.3, 0.4))
    for _ in range(10):
        M = random_symplectic(rng, 2)
        lam = lambda_matrix(M, p)
        V = covariance(M, p).data
        np.testing.assert_allclose(lam, (2.0 / p.hbar**2) * V, atol=1e-12)


def test_lambda_matrix_mode_mismatch():
    with pytest.raises(ValueError):
        lambda_matrix(_identity(2), OscParams(1.0, (1.0,)))


def test_covariance_vacuum_and_squeezed():
    p = OscParams(1.0, (1.0,))
    np.testing.assert_allclose(
        covariance(_identity(1), p).data, np.diag([0.5, 0.5]), atol=1e-15
    )
    M = squeeze_matrix_n1(SqueezeSpec(modes=1, R=1.0, angle=0.0, params=p))
    V = covariance(M, p).data
    np.testing.assert_allclose(
        V, np.diag([VAC_SQUEEZED_LOW, VAC_SQUEEZED_HIGH]), atol=1e-15
    )


def test_covariance_symmetric_positive(rng, random_symplectic):
    p = OscParams(0.5, (2.0,))
    for _ in range(20):
        V = covariance(random_symplectic(rng, 1), p).data
        np.testing.assert_array_equal(V, V.T)  # symmetrized exactly
        assert np.all(np.linalg.eigvalsh(V) > 0)


def test_covariance_quadrature_identity_and_squeeze():
    np.testing.assert_allclose(
        covariance_quadrature(_identity(1)).data, 0.5 * np.eye(2), atol=1e-15
    )
    p = OscParams(1.0, (1.0, 1.0))
    R = 0.6
    M = squeeze_matrix_n2(SqueezeSpec(modes=2, R=R, angle=0.3, params=p))
    Vq = covariance_quadrature(M).data
    np.testing.assert_allclose(np.diag(Vq), np.full(4, np.cosh(2 * R) / 2), atol=1e-12)


def test_covariance_quadrature_purity(rng, random_symplectic):
    for _ in range(50):
        n = int(rng.integers(1, 3))
        Vq = covariance_quadrature(random_symplectic(rng, n)).data
        assert abs(np.linalg.det(2.0 * Vq) - 1.0) <= 1e-10
        mags = np.abs(np.linalg.eigvals(2.0 * omega(n) @ Vq))
        np.testing.assert_allclose(mags, 1.0, atol=1e-9)


def test_covariance_conventions_agree_at_unit_params(rng, random_symplectic):
    p = OscParams(1.0, (1.0,))
    M = random_symplectic(rng, 1)
    np.testing.assert_array_equal(
        covariance(M, p).data, covariance_quadrature(M).data
    )


def test_purity_invariant_dimension_full(rng, random_symplectic):
    # rescaling by T0 = diag(1/l, l) maps the covariance onto a pure
    # quadrature one, so (2/hbar) Omega T0 V T0^T has unit-modulus spectrum
    for _ in range(20):
        n = int(rng.integers(1, 3))
        p = OscParams(rng.uniform(0.5, 2.0), tuple(rng.uniform(0.3, 3.0, n)))
        M = random_symplectic(rng, n)
        V = covariance(M, p).data
        l = p.length_array()
        T0 = np.diag(np.concatenate([1.0 / l, l]))
        mags = np.abs(np.linalg.eigvals((2.0 / p.hbar) * omega(n) @ T0 @ V @ T0.T))
        np.testing.assert_allclose(mags, 1.0, atol=1e-9)


def test_weyl_amplitude_origin_and_literal():
    p = OscParams(1.0, (1.0,))
    assert weyl_amplitude(_identity(1), p, [0.0], [0.0]) == 1.0
    assert weyl_amplitude(_identity(1), p, [2.0], [0.0]) == pytest.approx(
        EXP_MINUS_ONE, rel=1e-15
    )


def test_weyl_amplitude_symmetry_and_quadratic_log(rng, random_symplectic):
    p = OscParams(0.8, (1.4,))
    M = random_symplectic(rng, 1)
    a, b = 0.37, -0.81
    plus = weyl_amplitude(M, p, [a], [b])
    minus = weyl_amplitude(M, p, [-a], [-b])
    assert plus == minus  # quadratic form is even
    for t in (0.5, 2.0, 3.0):
        scaled = weyl_amplitude(M, p, [t * a], [t * b])
        assert abs(np.log(scaled) - t * t * np.log(plus)) <= 1e-12


def test_weyl_amplitude_vector_length_check():
    with pytest.raises(ValueError):
        weyl_amplitude(_identity(2), OscParams(1.0, (1.0, 1.0)), [0.1], [0.2, 0.3])


@pytest.mark.parametrize("points", [300.5, 400.0, "400", True])
def test_overlap_grid_rejects_non_integer_points(points):
    with pytest.raises(ValueError, match="integer"):
        OverlapGrid(points=points)
    assert OverlapGrid(points=np.int64(300)).points == 300


def test_overlap_grid_validation():
    grid = OverlapGrid()
    assert grid.points == 400 and grid.halfwidth_sigmas == 10.0
    with pytest.raises(ValueError):
        OverlapGrid(points=100)
    with pytest.raises(ValueError):
        OverlapGrid(halfwidth_sigmas=4.0)


@pytest.mark.parametrize("halfwidth", [float("nan"), float("inf")])
def test_overlap_grid_rejects_non_finite_halfwidth(halfwidth):
    with pytest.raises(ValueError, match="finite"):
        OverlapGrid(halfwidth_sigmas=halfwidth)


@pytest.mark.parametrize("a,b", [(float("nan"), 0.2), (0.1, float("inf"))])
def test_numeric_overlap_rejects_non_finite_displacements(a, b):
    M, p = _reference_setup()
    with pytest.raises(ValueError, match="displacements must be finite"):
        numeric_overlap_n1(M, p, a, b)


@pytest.mark.parametrize(
    "a,b", [([float("inf")], [0.2]), ([0.1], [float("nan")])],
    ids=["a0-b0", "a1-b1"],
)
def test_weyl_amplitude_rejects_non_finite_displacements(a, b):
    M, p = _reference_setup()
    with pytest.raises(ValueError, match="displacements must be finite"):
        weyl_amplitude(M, p, a, b)


def test_weyl_amplitude_of_an_overflowing_form_is_zero_without_warning():
    M, p = _reference_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert weyl_amplitude(M, p, [1e200], [0.0]) == 0.0
        assert weyl_amplitude(M, p, [0.0], [-1e200]) == 0.0


def _reference_setup():
    p = OscParams(1.0, (1.0,))
    M = squeeze_matrix_n1(SqueezeSpec(modes=1, R=0.3, angle=np.pi / 2, params=p))
    return M, p


def test_numeric_overlap_normalization():
    M, p = _reference_setup()
    value = numeric_overlap_n1(M, p, 0.0, 0.0)
    assert abs(value - 1.0) <= 1e-8


def test_numeric_overlap_matches_amplitude():
    M, p = _reference_setup()
    value = numeric_overlap_n1(M, p, 0.7, -0.2)
    amp = weyl_amplitude(M, p, [0.7], [-0.2])
    assert abs(value - amp) <= 1e-6
    assert abs(value) == pytest.approx(OVERLAP_REFERENCE, abs=1e-9)


def test_numeric_overlap_grid_refinement():
    M, p = _reference_setup()
    coarse = numeric_overlap_n1(M, p, 0.7, -0.2, OverlapGrid(points=400))
    fine = numeric_overlap_n1(M, p, 0.7, -0.2, OverlapGrid(points=800))
    assert abs(coarse - fine) < 1e-7


@pytest.mark.parametrize("angle", [0.0, np.pi])
def test_numeric_overlap_at_zero_b(angle):
    # diagonal squeezes have B = 0, where an integral-kernel route has no form
    p = OscParams(0.7, (1.3,))
    M = squeeze_matrix_n1(SqueezeSpec(modes=1, R=0.5, angle=angle, params=p))
    assert abs(M.data[0, 1]) < 1e-14
    value = numeric_overlap_n1(M, p, 0.4, -0.3)
    assert abs(value - weyl_amplitude(M, p, [0.4], [-0.3])) <= 1e-13


def test_numeric_overlap_tracks_amplitude_with_and_without_b(rng):
    # half the draws are lower-triangular [[e^r, 0], [c, e^-r]]: B = 0 exactly
    worst = 0.0
    for i in range(200):
        p = OscParams(rng.uniform(0.5, 2.0), (rng.uniform(0.5, 2.0),))
        if i % 2:
            r, c = rng.uniform(-1.0, 1.0, 2)
            M = SympMatrix(1, [[np.exp(r), 0.0], [c, np.exp(-r)]])
        else:
            M = squeeze_matrix_n1(SqueezeSpec(1, rng.uniform(0.1, 1.2), rng.uniform(0, 2 * np.pi), p))
        a, b = rng.uniform(-1.0, 1.0, 2)
        worst = max(worst, abs(numeric_overlap_n1(M, p, a, b) - weyl_amplitude(M, p, [a], [b])))
    assert worst <= 1e-13


@pytest.mark.parametrize("a", [30.0, 300.0])
def test_numeric_overlap_refuses_unresolved_displacements(a):
    # unrefused, the 400-node grid reads modulus 0.974 at a = 30, where the amplitude is 2.9e-82
    p = OscParams(1.0, (1.0,))
    M = squeeze_matrix_n1(SqueezeSpec(modes=1, R=0.3, angle=1.0, params=p))
    with pytest.raises(ValueError, match=r"OverlapGrid\(points=\d+\) resolves it") as err:
        numeric_overlap_n1(M, p, a, 0.2)
    needed = int(re.search(r"points=(\d+)", str(err.value)).group(1))
    assert abs(numeric_overlap_n1(M, p, a, 0.2, OverlapGrid(points=needed))) <= 1e-9


def test_numeric_overlap_resolves_a_ten():
    p = OscParams(1.0, (1.0,))
    M = squeeze_matrix_n1(SqueezeSpec(modes=1, R=0.3, angle=1.0, params=p))
    value = numeric_overlap_n1(M, p, 10.0, 0.2)
    amp = weyl_amplitude(M, p, [10.0], [0.2])
    assert abs(value - amp) <= 1e-13


def test_numeric_overlap_rejects_multimode():
    p = OscParams(1.0, (1.0, 1.0))
    M = squeeze_matrix_n2(SqueezeSpec(modes=2, R=0.4, angle=0.7, params=p))
    with pytest.raises(ValueError):
        numeric_overlap_n1(M, p, 0.1, 0.1)


def test_numeric_overlap_random_points(rng):
    # moduli must track the closed-form amplitude
    for _ in range(5):
        p = OscParams(rng.uniform(0.5, 2.0), (rng.uniform(0.5, 2.0),))
        spec = SqueezeSpec(
            modes=1,
            R=rng.uniform(0.1, 1.0),
            angle=rng.uniform(0.0, 2.0 * np.pi),
            params=p,
        )
        M = squeeze_matrix_n1(spec)
        a, b = rng.uniform(-1, 1, 2)
        value = numeric_overlap_n1(M, p, a, b)
        amp = weyl_amplitude(M, p, [a], [b])
        assert abs(value - amp) <= 1e-6


# numeric_overlap_n1 on the draws of `verify overlap` at seed 0 (rng [0, 6]), pinned bit for bit:
# the cached tanh-sinh nodes must not move a bit
_OVERLAP_DRAW_VALUES = [
    (0.9829799353819113-6.938893903907228e-17j),
    (0.9406961699417543+1.1102230246251565e-16j),
    (0.015457005505891887-2.55351295663786e-15j),
    (0.33854787713029166-1.3877787807814457e-17j),
    (0.9937319838611535-4.163336342344337e-17j),
]


def _verify_overlap_values():
    rng = np.random.default_rng([0, 6])
    values = []
    for _ in _OVERLAP_DRAW_VALUES:
        p = OscParams(float(rng.uniform(0.5, 2.0)), (float(rng.uniform(0.5, 2.0)),))
        r = float(rng.uniform(0.2, 1.2))
        th = float(rng.uniform(0.0, 2.0 * np.pi))
        M = squeeze_matrix_n1(SqueezeSpec(1, r, th, p))
        a, b = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))
        values.append(numeric_overlap_n1(M, p, a, b))
    return values


def test_overlap_values_on_the_verify_draws_are_bytewise_fixed():
    assert _verify_overlap_values() == _OVERLAP_DRAW_VALUES
    assert _verify_overlap_values() == _OVERLAP_DRAW_VALUES  # from the cached nodes


def test_covariance_rejects_an_unknown_convention():
    with pytest.raises(ValueError, match="^unknown convention 'natural'$"):
        CovarianceMatrix(1, np.eye(2), convention="natural")


def test_only_gaussian_states_reads_the_units():
    # hbar and the lengths enter the package through gaussian_states; besides it, only the CLI
    # (settings and records) and the oracles (their fixed parameters) may name them
    import pathlib

    import sympberry

    package = pathlib.Path(sympberry.__file__).parent
    readers = {f.name for f in package.glob("*.py") if re.search(r"\.(hbar|lengths)\b", f.read_text())}
    assert "gaussian_states.py" in readers
    assert readers <= {"gaussian_states.py", "cli.py", "oracles.py"}
