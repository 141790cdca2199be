"""Group/algebra containers, ordering conversions, and the exponential map."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import scipy.linalg

from sympberry import (
    LieAlgElement,
    NonFiniteIntegrand,
    OscParams,
    SqueezeSpec,
    SympMatrix,
    SympPath,
    block_decompose,
    convert_ordering,
    exp_map,
    gamma_permutation,
    integrate_phase,
    is_symplectic,
    omega,
    omega_interleaved,
    squeeze_circle_path,
    squeeze_matrix_n1,
    symplectic_core,
    symplectic_residual,
)
from sympberry import _random
from sympberry._random import random_symmetric


def test_omega_structure():
    for n in (1, 2, 3):
        om = omega(n)
        assert np.array_equal(om.T, -om)
        assert np.array_equal(om @ om, -np.eye(2 * n))
    J = omega_interleaved(1)
    assert np.array_equal(J, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.array_equal(omega_interleaved(2)[:2, :2], J)
    assert np.array_equal(omega_interleaved(2)[2:, 2:], J)


def test_omega_interleaved_is_one_shared_read_only_array():
    for n in (1, 2, 3):
        form = omega_interleaved(n)
        assert omega_interleaved(n) is form
        assert not form.flags.writeable
        with pytest.raises(ValueError):
            form[0, 1] = 2.0
        expected = np.zeros((2 * n, 2 * n))
        for i in range(n):
            expected[2 * i, 2 * i + 1] = 1.0
            expected[2 * i + 1, 2 * i] = -1.0
        np.testing.assert_array_equal(form, expected)
    assert omega_interleaved(np.int64(2)) is omega_interleaved(2)


@pytest.mark.parametrize("form", [omega, omega_interleaved, gamma_permutation])
def test_forms_reject_a_boolean_mode_count(form):
    with pytest.raises(ValueError, match="^mode count must be a positive integer, got True$"):
        form(True)


def test_interleaved_sympmatrix_still_validated():
    # convert_ordering, the one reader of interleaved arrays, checks them against diag(J, J)
    with pytest.raises(ValueError, match="interleaved-ordering symplectic condition"):
        convert_ordering(2 * np.eye(4))
    shear = np.eye(4)
    shear[1, 2] = 0.5  # det 1, but p1 += x2/2 without p2 += x1/2 breaks the form
    with pytest.raises(ValueError, match="interleaved-ordering symplectic condition"):
        convert_ordering(shear)
    squeeze = np.diag([2.0, 1.0, 0.5, 1.0])  # x1 against p1 when grouped, x1 against x2 when interleaved
    assert is_symplectic(squeeze)
    with pytest.raises(ValueError, match="interleaved-ordering symplectic condition"):
        convert_ordering(squeeze)
    assert np.array_equal(convert_ordering(np.eye(4)).data, np.eye(4))


def test_sympmatrix_takes_no_ordering():
    # every SympMatrix is grouped: an ordering argument, by name or in its old position, is refused
    with pytest.raises(TypeError):
        SympMatrix(1, np.eye(2), ordering="grouped")
    with pytest.raises(TypeError):
        SympMatrix(1, np.eye(2), "grouped", 1e-10)
    assert [f.name for f in dataclasses.fields(SympMatrix)] == ["n", "data", "tol_symp"]
    with pytest.raises(TypeError):
        symplectic_residual(np.eye(4), "interleaved")


def test_is_symplectic_basics():
    assert is_symplectic(np.eye(4))
    assert not is_symplectic(2 * np.eye(4))
    bad = np.eye(4)
    bad[0, 0] = np.nan
    assert not is_symplectic(bad)
    with pytest.raises(ValueError):
        is_symplectic(np.eye(3))
    with pytest.raises(ValueError):
        is_symplectic(np.eye(4)[:2])


def test_sympmatrix_validation(rng, random_symmetric):
    M = exp_map(LieAlgElement(2, random_symmetric(rng, 4)))
    assert symplectic_residual(M.data) <= 1e-10
    assert abs(np.linalg.det(M.data) - 1.0) <= 1e-8
    with pytest.raises(ValueError):
        SympMatrix(2, M.data + 1e-3)
    with pytest.raises(ValueError):
        SympMatrix(1, M.data)  # wrong mode count for a 4x4


def test_sympmatrix_immutable(rng, random_symmetric):
    M = exp_map(LieAlgElement(1, random_symmetric(rng, 2)))
    with pytest.raises(ValueError):
        M.data[0, 0] = 5.0


def test_inverse_is_form_conjugate(rng, random_symplectic):
    # inverse identity M^{-1} = -Omega M^T Omega, a direct group consequence
    for n in (1, 2, 3):
        M = random_symplectic(rng, n)
        om = omega(n)
        np.testing.assert_allclose(
            M.inverse().data, -om @ M.data.T @ om, atol=1e-12
        )
        np.testing.assert_allclose(
            (M @ M.inverse()).data, np.eye(2 * n), atol=1e-9
        )


def test_matmul_closure(rng, random_symplectic):
    M1 = random_symplectic(rng, 2)
    M2 = random_symplectic(rng, 2)
    prod = M1 @ M2
    assert is_symplectic(prod.data, tol=1e-9)


def test_matmul_mode_count_mismatch(rng, random_symplectic):
    with pytest.raises(ValueError, match="^operands must share mode count$"):
        random_symplectic(rng, 1) @ random_symplectic(rng, 2)


def test_lie_alg_element_requires_symmetry():
    with pytest.raises(ValueError):
        LieAlgElement(1, np.array([[0.0, 1.0], [0.5, 0.0]]))
    L = LieAlgElement(1, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert L.n == 1


def test_block_decompose_identities(rng, random_symplectic):
    M = random_symplectic(rng, 2)
    A, B, C, D = blocks = block_decompose(M)
    np.testing.assert_allclose(A @ D.T - B @ C.T, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(A @ B.T, B @ A.T, atol=1e-10)
    np.testing.assert_allclose(C @ D.T, D @ C.T, atol=1e-10)
    assert np.array_equal(np.block([[A, B], [C, D]]), M.data)
    # read-only views of the checked matrix: no copy and no second check
    for block, corner in zip(blocks, (M.data[:2, :2], M.data[:2, 2:], M.data[2:, :2], M.data[2:, 2:])):
        assert np.shares_memory(block, M.data) and not block.flags.writeable
        assert np.array_equal(block, corner)


# a finite matrix whose residual M Omega M^T overflows: each public entry point reports it
# without numpy's overflow warning, which the suite turns into an error
_OVERFLOWING = [[1e200, 1e200], [0.0, 1.0]]


def test_symplectic_residual_of_an_overflowing_matrix_is_inf():
    assert symplectic_residual(np.array(_OVERFLOWING)) == np.inf


def test_is_symplectic_rejects_an_overflowing_matrix():
    assert is_symplectic(_OVERFLOWING) is False


_COMPLEX = "matrix must be real-valued, got dtype complex128"
_SHAPE = "expected a 2n x 2n matrix or a (k, 2n, 2n) stack, got shape "


@pytest.mark.parametrize(
    "check, M, message",
    [
        (is_symplectic, np.eye(2) + 1e-3j, _COMPLEX),
        (symplectic_residual, np.eye(2) * (1 + 1j), _COMPLEX),
        (symplectic_residual, np.eye(3), _SHAPE + "(3, 3)"),
        (symplectic_residual, np.eye(4)[:2], _SHAPE + "(2, 4)"),
        (symplectic_residual, np.ones(2), _SHAPE + "(2,)"),
        (symplectic_residual, np.ones((3, 2, 4)), _SHAPE + "(3, 2, 4)"),
        (symplectic_residual, np.ones((1, 1, 2, 2)), _SHAPE + "(1, 1, 2, 2)"),
    ],
    ids=["is_symplectic-complex", "residual-complex", "odd", "not-square", "vector", "stack-not-square", "4-d"],
)
def test_public_group_checks_refuse_what_sympmatrix_refuses(check, M, message):
    # the complex part is not cast away, and a wrong shape gets a named error
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(M)


def test_symplectic_residual_reads_a_float_stack_without_copying(monkeypatch):
    stack = np.stack([np.eye(2)] * 3)
    seen = []
    monkeypatch.setattr(symplectic_core, "_residual", lambda M, form: seen.append(M) or 0.0)
    assert symplectic_residual(stack) == 0.0
    assert seen[0] is stack


def test_is_symplectic_applies_the_determinant_gate():
    # residual 1e-6 passes tol 1e-5 in both; both then reject |det - 1| = 1e-6 above 1e-8
    M = np.diag([1 + 1e-6, 1.0])
    assert is_symplectic(M, tol=1e-5) is False
    with pytest.raises(ValueError, match="^determinant 1.000001 deviates from 1 beyond 1e-08$"):
        SympMatrix(1, M, tol_symp=1e-5)


def test_gamma_permutation_is_orthogonal():
    for n in (1, 2, 3):
        g = gamma_permutation(n)
        np.testing.assert_array_equal(g @ g.T, np.eye(2 * n))
        # it carries the block-diagonal form to the grouped form
        np.testing.assert_array_equal(g @ omega_interleaved(n) @ g.T, omega(n))


def test_convert_ordering_round_trip(rng, random_symplectic):
    M = random_symplectic(rng, 2)
    g = gamma_permutation(2)
    tilde = g.T @ M.data @ g
    back = convert_ordering(tilde)
    np.testing.assert_allclose(back.data, M.data, atol=1e-13)
    # permutation similarity preserves the Frobenius norm exactly
    assert np.linalg.norm(tilde) == pytest.approx(np.linalg.norm(M.data), abs=0)


def test_convert_ordering_rejects_non_symplectic():
    with pytest.raises(ValueError):
        convert_ordering(2 * np.eye(4))


def test_interleaved_block_diagonal_of_single_mode_elements(rng, random_symmetric):
    # block-diag of per-mode group elements is interleaved-symplectic
    blocks = [
        exp_map(LieAlgElement(1, random_symmetric(rng, 2))).data for _ in range(3)
    ]
    tilde = np.zeros((6, 6))
    for i, blk in enumerate(blocks):
        tilde[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = blk
    form = omega_interleaved(3)
    assert abs(tilde @ form @ tilde.T - form).max() <= 1e-12
    M = convert_ordering(tilde)
    g = gamma_permutation(3)
    assert M.n == 3 and np.array_equal(M.data, g @ tilde @ g.T)


def test_exp_map_zero_is_identity():
    M = exp_map(LieAlgElement(2, np.zeros((4, 4))))
    np.testing.assert_array_equal(M.data, np.eye(4))


@settings(max_examples=40, deadline=None)
@given(
    entries=arrays(
        np.float64,
        (4, 4),
        elements=st.floats(min_value=-1.0, max_value=1.0),
    )
)
def test_exp_map_lands_in_group(entries):
    L = LieAlgElement(2, (entries + entries.T) / 2.0)
    M = exp_map(L, tol=1e-8)
    assert symplectic_residual(M.data) <= 1e-8


def test_product_of_exponentials_stays_symplectic(rng, random_symmetric):
    for _ in range(20):
        L1 = LieAlgElement(2, random_symmetric(rng, 4))
        L2 = LieAlgElement(2, random_symmetric(rng, 4))
        prod = exp_map(L1) @ exp_map(L2)
        assert is_symplectic(prod.data, tol=1e-9)


def _stacks_of_one(A):
    return np.array([symplectic_core._expm(a[None])[0] for a in A])


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_stacked_expm_slices_equal_stacks_of_one(m):
    # 1-norms from 0.01 to 200 ask for 0 to about 6 squarings; a slice of the stack takes
    # its own count, whatever the other slices need
    rng = np.random.default_rng(m)
    A = rng.uniform(-1.0, 1.0, size=(12, m, m)) * np.geomspace(0.01, 200.0 / m, 12)[:, None, None]
    A[3] = np.diag(rng.uniform(-2.0, 2.0, size=m))
    A[7] = 0.0
    stacked = symplectic_core._expm(A)
    assert np.array_equal(stacked, _stacks_of_one(A))
    # normwise against scipy, itself up to 1.3e3 eps off here; the mpmath tests pin accuracy
    reference = scipy.linalg.expm(A)
    assert np.all(np.abs(stacked - reference).max(axis=(1, 2)) <= 1e-12 * np.abs(reference).max(axis=(1, 2)))


def test_stacked_expm_is_exact_on_zero_and_diagonal_slices(rng):
    d = rng.uniform(-3.0, 3.0, size=4)
    A = np.stack([np.zeros((4, 4)), np.diag(d), 0.3 * random_symmetric(rng, 4)])
    E = symplectic_core._expm(A)
    assert np.array_equal(E[0], np.eye(4))  # exp(0) = I bit for bit
    assert np.array_equal(E[1], np.diag(np.exp(d)))
    assert np.array_equal(E[:2], scipy.linalg.expm(A[:2]))  # as scipy's diagonal shortcut
    K = np.zeros((1, 4, 4))
    K[0, :2, :2] = [[-0.1, 0.5], [-0.3, 0.1]]  # a zero block: exp of it is exactly I
    assert np.array_equal(symplectic_core._expm(K)[0, 2:, :], np.eye(4)[2:])


def test_stacked_expm_keeps_non_finite_slices_non_finite_unwarned():
    # the suite turns every numpy warning into an error
    finite = np.array([[0.2, 0.5], [-0.4, 0.1]])
    bad = [
        [[np.nan, 0.0], [0.0, 1.0]],  # NaN on the diagonal of a diagonal slice
        [[0.0, np.inf], [1.0, 0.0]],
        [[-np.inf, 0.0], [0.0, 0.0]],  # exp(-inf) = 0 would hide it
        [[1e308, 1e308], [1e308, 1.0]],  # the 1-norm overflows
        [[1e300, 1.0], [-1.0, 1.0]],  # about 1000 squarings
        [[800.0, 1.0], [2.0, 700.0]],  # the squarings overflow
        [[1000.0, 0.0], [0.0, 1.0]],  # exp of the diagonal overflows
    ]
    A = np.array([finite] + bad + [finite])
    E = symplectic_core._expm(A)
    assert not np.isfinite(E[1:-1]).all(axis=(1, 2)).any()
    assert np.array_equal(E[0], E[-1]) and np.array_equal(E[:1], symplectic_core._expm(A[:1]))
    assert np.array_equal(E, _stacks_of_one(A), equal_nan=True)


# Every rejection of the validators, with its exception type and message.

_NOT_SQUARE = np.zeros((2, 3))


def _with(value):
    arr = np.eye(2)
    arr[1, 0] = value
    return arr


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.0, np.eye(2)), "mode count must be a positive integer, got 1.0"),
        (("1", np.eye(2)), "mode count must be a positive integer, got '1'"),
        ((0, np.eye(2)), "mode count must be a positive integer, got 0"),
        ((1, _NOT_SQUARE), "symplectic matrix must be square, got shape (2, 3)"),
        ((1, np.ones(2)), "symplectic matrix must be square, got shape (2,)"),
        ((1, _with(np.nan)), "symplectic matrix contains non-finite entries"),
        ((1, _with(np.inf)), "symplectic matrix contains non-finite entries"),
        ((1, _with(-np.inf)), "symplectic matrix contains non-finite entries"),
        # finiteness is checked before the shape
        ((1, np.full((4, 4), np.nan)), "symplectic matrix contains non-finite entries"),
        ((1, np.eye(4)), "expected shape (2, 2), got (4, 4)"),
        # the shape is checked before the residual
        ((1, np.eye(4), 1e-3), "expected shape (2, 2), got (4, 4)"),
        # the residual is checked before the determinant (here 4)
        (
            (1, 2 * np.eye(2)),
            "matrix fails the symplectic condition: residual 3.000e+00 exceeds "
            "tolerance 1.000e-10",
        ),
        (
            (2, 2 * np.eye(4), 1e-3),
            "matrix fails the symplectic condition: residual 3.000e+00 exceeds "
            "tolerance 1.000e-03",
        ),
        # residual 1e-6 passes the loose tolerance; the determinant does not
        (
            (1, np.diag([1 + 1e-6, 1.0]), 1e-3),
            "determinant 1.000001 deviates from 1 beyond 1e-08",
        ),
        ((np.int64(1), np.eye(4)), "expected shape (2, 2), got (4, 4)"),
        # complex input is rejected before the cast, even with a zero imaginary part
        ((1, np.eye(2) + 1e-3j), "symplectic matrix must be real-valued, got dtype complex128"),
        ((1, np.eye(2, dtype=np.complex64)), "symplectic matrix must be real-valued, got dtype complex64"),
        ((1, [[1.0, 0j], [0j, 1.0]]), "symplectic matrix must be real-valued, got dtype complex128"),
        (
            (1, np.array([[1 + 0j, 0], [0, 1]], dtype=object)),
            "symplectic matrix must be real-valued, got dtype object",
        ),
        # a finite matrix whose residual overflows fails it, without an overflow warning
        (
            (1, [[1e200, 1e200], [0.0, 1.0]]),
            "matrix fails the symplectic condition: residual inf exceeds tolerance 1.000e-10",
        ),
        # bool is a subclass of int, but not a count
        ((True, np.eye(2)), "mode count must be a positive integer, got True"),
        ((np.True_, np.eye(2)), "mode count must be a positive integer, got np.True_"),
        # a NaN tolerance passes nothing, as in is_symplectic: residual 1, determinant 1
        (
            (2, np.diag([2.0, 1.0, 1.0, 0.5]), math.nan),
            "matrix fails the symplectic condition: residual 1.000e+00 exceeds tolerance nan",
        ),
        ((1, np.eye(2), math.nan), "matrix fails the symplectic condition: residual 0.000e+00 exceeds tolerance nan"),
        # four blocks of one's own: A D^T - B C^T = I fails by 1 (D = 2I), then A B^T = B A^T by 0.5
        (
            (2, np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), 2 * np.eye(2)]])),
            "matrix fails the symplectic condition: residual 1.000e+00 exceeds tolerance 1.000e-10",
        ),
        (
            (2, np.block([[np.eye(2), np.array([[0.0, 0.5], [0.0, 0.0]])], [np.zeros((2, 2)), np.eye(2)]]), 1e-3),
            "matrix fails the symplectic condition: residual 5.000e-01 exceeds tolerance 1.000e-03",
        ),
    ],
    ids=[
        "args0-mode count must be a positive integer, got 1.0",
        "args1-mode count must be a positive integer, got '1'",
        "args2-mode count must be a positive integer, got 0",
        "args3-symplectic matrix must be square, got shape (2, 3)",
        "args4-symplectic matrix must be square, got shape (2,)",
        "args5-symplectic matrix contains non-finite entries",
        "args6-symplectic matrix contains non-finite entries",
        "args7-symplectic matrix contains non-finite entries",
        "args8-symplectic matrix contains non-finite entries",
        "args9-expected shape (2, 2), got (4, 4)",
        "args10-expected shape (2, 2), got (4, 4)",
        "args12-matrix fails the symplectic condition: residual 3.000e+00 exceeds tolerance 1.000e-10",
        "args13-matrix fails the symplectic condition: residual 3.000e+00 exceeds tolerance 1.000e-03",
        "args14-determinant 1.000001 deviates from 1 beyond 1e-08",
        "args15-expected shape (2, 2), got (4, 4)",
        "args16-symplectic matrix must be real-valued, got dtype complex128",
        "args17-symplectic matrix must be real-valued, got dtype complex64",
        "args18-symplectic matrix must be real-valued, got dtype complex128",
        "args19-symplectic matrix must be real-valued, got dtype object",
        "args20-matrix fails the symplectic condition: residual inf exceeds tolerance 1.000e-10",
        "args21-mode count must be a positive integer, got True",
        "args22-mode count must be a positive integer, got np.True_",
        "args23-matrix fails the symplectic condition: residual 1.000e+00 exceeds tolerance nan",
        "args24-matrix fails the symplectic condition: residual 0.000e+00 exceeds tolerance nan",
        "args25-matrix fails the symplectic condition: residual 1.000e+00 exceeds tolerance 1.000e-10",
        "args26-matrix fails the symplectic condition: residual 5.000e-01 exceeds tolerance 1.000e-03",
    ],
)
def test_sympmatrix_rejections(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        SympMatrix(*args)
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.5, np.eye(2)), "mode count must be a positive integer, got 1.5"),
        ((1, _NOT_SQUARE), "generator must be square, got shape (2, 3)"),
        ((1, _with(np.nan)), "generator contains non-finite entries"),
        ((1, _with(np.inf)), "generator contains non-finite entries"),
        ((1, np.eye(4)), "expected shape (2, 2), got (4, 4)"),
        (
            (1, np.array([[0.0, 1.0], [0.5, 0.0]])),
            "generator must be symmetric: asymmetry 5.000e-01 exceeds 1e-12",
        ),
        ((np.int64(1), np.eye(4)), "expected shape (2, 2), got (4, 4)"),
        ((1, np.eye(2) + 1e-3j), "generator must be real-valued, got dtype complex128"),
        # non-finite entries fail the one symmetry reduction; the ordered checks name them
        ((1, np.full((2, 2), np.inf)), "generator contains non-finite entries"),
        ((1, np.full((4, 4), np.nan)), "generator contains non-finite entries"),
        ((2, np.full((2, 3), np.nan)), "generator must be square, got shape (2, 3)"),
        ((True, np.eye(2)), "mode count must be a positive integer, got True"),
    ],
    ids=[
        "args0-mode count must be a positive integer, got 1.5",
        "args1-generator must be square, got shape (2, 3)",
        "args2-generator contains non-finite entries",
        "args3-generator contains non-finite entries",
        "args4-expected shape (2, 2), got (4, 4)",
        "args5-generator must be symmetric: asymmetry 5.000e-01 exceeds 1e-12",
        "args6-expected shape (2, 2), got (4, 4)",
        "args7-generator must be real-valued, got dtype complex128",
        "args8-generator contains non-finite entries",
        "args9-generator contains non-finite entries",
        "args10-generator must be square, got shape (2, 3)",
        "args11-mode count must be a positive integer, got True",
    ],
)
def test_lie_alg_element_rejections(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        LieAlgElement(*args)
    assert type(info.value) is ValueError


def test_exp_map_checks_its_result():
    with pytest.raises(ValueError, match="^matrix fails the symplectic condition: residual "):
        exp_map(LieAlgElement(2, 0.7 * np.eye(4)), tol=0.0)


# exp_map, @, inverse and convert_ordering build their result array themselves and give it
# only the group check. Each row returns (result, the arrays it was made from, n, tol_symp):
# the result must be the SympMatrix the public constructor builds from its data.
def _exp_map_site(rng):
    L = LieAlgElement(2, random_symmetric(rng, 4, 0.5))
    return exp_map(L, tol=1e-9), [L.data], 2, 1e-9


def _matmul_site(rng):
    A = _random.random_symplectic(rng, 2)
    B = SympMatrix(2, _random.random_symplectic(rng, 2).data, tol_symp=1e-9)
    return A @ B, [A.data, B.data], 2, 1e-8  # 10x the larger operand tolerance


def _inverse_site(rng):
    M = SympMatrix(3, _random.random_symplectic(rng, 3).data, 1e-9)
    return M.inverse(), [M.data], 3, 1e-9


def _convert_ordering_site(rng):
    g = gamma_permutation(2)
    Mtilde = g.T @ _random.random_symplectic(rng, 2).data @ g
    return convert_ordering(Mtilde, tol=1e-9), [Mtilde], 2, 1e-9


@pytest.mark.parametrize(
    "site",
    [_exp_map_site, _matmul_site, _inverse_site, _convert_ordering_site],
    ids=["exp_map", "matmul", "inverse", "convert_ordering"],
)
def test_library_results_equal_the_public_construction(site):
    result, inputs, n, tol = site(np.random.default_rng(11))
    assert type(result) is SympMatrix and type(result.n) is int
    assert (result.n, result.tol_symp) == (n, tol)
    assert result.data.dtype == np.float64 and not result.data.flags.writeable
    assert not any(np.shares_memory(result.data, x) for x in inputs)
    reference = SympMatrix(n, result.data.copy(), tol)
    assert (reference.n, reference.tol_symp) == (n, tol)
    assert np.array_equal(reference.data, result.data)
    with pytest.raises(ValueError):
        result.data[0, 0] = 5.0


_P1 = OscParams(1.0, (1.0,))
_NEAR_DET = SympMatrix(1, np.diag([1 + 6e-9, 1.0]), 1e-3)  # passes; its square does not


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: squeeze_matrix_n1(SqueezeSpec(1, 4.5, 0.3, _P1))
            @ squeeze_matrix_n1(SqueezeSpec(1, 4.5, 1.1, _P1)),
            "matrix fails the symplectic condition: residual 1.784e-09 exceeds tolerance 1.000e-09",
        ),
        (
            lambda: exp_map(LieAlgElement(1, [[0.3, 0.1], [0.1, -0.2]]), tol=1e-30),
            "matrix fails the symplectic condition: residual 9.201e-18 exceeds tolerance 1.000e-30",
        ),
        (lambda: _NEAR_DET @ _NEAR_DET, "determinant 1.000000012 deviates from 1 beyond 1e-08"),
        (
            lambda: convert_ordering(np.diag([1 + 1e-6, 1.0]), tol=1e-5),
            "determinant 1.000001 deviates from 1 beyond 1e-08",
        ),
        # no operand of @ carries a NaN tolerance, whose 10x would pass any product
        (
            lambda: SympMatrix(1, np.eye(2), tol_symp=math.nan) @ _NEAR_DET,
            "matrix fails the symplectic condition: residual 0.000e+00 exceeds tolerance nan",
        ),
    ],
    ids=[
        "matmul-residual", "exp_map-residual", "matmul-determinant", "convert_ordering-determinant",
        "matmul-nan-tolerance",
    ],
)
def test_library_results_fail_with_the_public_message(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        make()
    assert type(info.value) is ValueError


def test_residual_and_membership_values():
    assert symplectic_residual(2 * np.eye(4)) == 3.0
    assert symplectic_residual(np.eye(4)) == 0.0
    with pytest.raises(ValueError, match="^mode count must be a positive integer, got 0$"):
        symplectic_residual(np.zeros((1, 1)))
    for value in (np.nan, np.inf, -np.inf):
        bad = np.eye(4)
        bad[2, 1] = value
        assert is_symplectic(bad) is False
    assert is_symplectic(np.eye(4)) is True
    assert is_symplectic(np.diag([1 + 1e-6, 1.0]), tol=1e-5) is False
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 4\)$"):
        is_symplectic(np.eye(4)[:2])
    with pytest.raises(ValueError, match="^dimension must be even and positive, got 3$"):
        is_symplectic(np.eye(3))


def test_convert_ordering_rejections():
    with pytest.raises(ValueError, match=r"^matrix must be square, got shape \(2, 3\)$"):
        convert_ordering(_NOT_SQUARE)
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        convert_ordering(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="^dimension must be even, got 3$"):
        convert_ordering(np.eye(3))
    with pytest.raises(ValueError, match="^mode count must be a positive integer, got 0$"):
        convert_ordering(np.zeros((0, 0)))
    with pytest.raises(
        ValueError,
        match="^input fails the interleaved-ordering symplectic condition: "
        r"residual 3\.000e\+00 exceeds 1\.000e-10$",
    ):
        convert_ordering(2 * np.eye(4))


@pytest.mark.parametrize("cls", [SympMatrix, LieAlgElement])
def test_validated_data_is_a_read_only_copy(cls):
    source = np.array([[2.0, 0.5], [0.5, 0.625]])  # symmetric, det 1
    obj = cls(1, source)
    assert obj.data is not source
    assert not np.shares_memory(obj.data, source)
    assert not obj.data.flags.writeable
    assert source.flags.writeable  # the caller's array is left alone
    source[0, 0] = 5.0
    assert obj.data[0, 0] == 2.0
    with pytest.raises(ValueError):
        obj.data[0, 0] = 5.0
    frozen = np.eye(2)
    frozen.setflags(write=False)  # a read-only input is copied too
    assert not np.shares_memory(cls(1, frozen).data, frozen)
    assert type(cls(np.int64(1), np.eye(2)).n) is int


def test_determinant_computed_only_where_the_residual_does_not_imply_it(monkeypatch):
    real_det, det_shapes = np.linalg.det, []

    def counting_det(x):
        det_shapes.append(np.shape(x))
        return real_det(x)

    path = squeeze_circle_path(1, 0.7, OscParams(1.0, (1.0,)))
    monkeypatch.setattr(np.linalg, "det", counting_det)
    SympMatrix(2, np.eye(4))
    SympMatrix(5, np.eye(10), tol_symp=1e-9)  # 2n tol = 1e-8: still implied
    assert det_shapes == []
    integrate_phase(path, OscParams(1.0, (1.0,)))
    assert det_shapes == []
    SympMatrix(2, np.eye(4), tol_symp=1e-3)
    assert det_shapes == [(4, 4)]
    SympMatrix(6, np.eye(12), tol_symp=1e-9)
    assert det_shapes == [(4, 4), (12, 12)]


# The group check as it was before the determinant and finiteness gates left its pass
# path: every check in order, each computed. The kernel must reach the same verdict and
# raise the same error on every input.
def _reference_sympmatrix(n, data, tol):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"mode count must be a positive integer, got {n!r}")
    arr = np.array(data, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"symplectic matrix must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("symplectic matrix contains non-finite entries")
    if arr.shape != (2 * n, 2 * n):
        raise ValueError(f"expected shape {(2 * n, 2 * n)}, got {arr.shape}")
    form = omega(n)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(abs(arr.dot(form).dot(arr.T) - form).max())
    if resid > tol:
        raise ValueError(
            f"matrix fails the symplectic condition: residual {resid:.3e} "
            f"exceeds tolerance {tol:.3e}"
        )
    det = float(np.linalg.det(arr))
    if abs(det - 1.0) > 1e-8:
        raise ValueError(f"determinant {det!r} deviates from 1 beyond 1e-08")


def _reference_stack(Ms, ts, n):
    if not np.isfinite(Ms).all():
        bad = ~np.isfinite(Ms).all(axis=(1, 2))
        raise NonFiniteIntegrand(f"path sample is non-finite at t={ts[np.argmax(bad)]}")
    form = omega(n)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = abs(Ms @ form @ Ms.swapaxes(-1, -2) - form).max(axis=(-2, -1))
        det = np.linalg.det(Ms)
    if not (resid.max() <= 1e-10 and abs(det - 1.0).max() <= 1e-8):
        i = int(np.argmax(~((resid <= 1e-10) & (abs(det - 1.0) <= 1e-8))))
        raise ValueError(
            f"sample at t={ts[i]} fails the symplectic condition: residual "
            f"{resid[i]:.3e}, determinant {float(det[i])!r}"
        )


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


_SPECIAL = (np.nan, np.inf, -np.inf, 1e200, -1e200)


@st.composite
def _near_symplectic(draw, n, tol):
    """A group element S = expm(Omega X) plus a perturbation that puts the residual
    within a factor 30 of tol or of 1e-9 (where a loose tol leaves the determinant
    gate to decide), and sometimes special entries."""
    rng, form = np.random.default_rng(draw(st.integers(0, 2**32 - 1))), omega(n)
    S = scipy.linalg.expm(form @ random_symmetric(rng, 2 * n, 0.4))
    E = rng.standard_normal((2 * n, 2 * n))
    slope = abs(E @ form @ S.T + S @ form @ E.T).max()  # the residual per unit of E
    target = draw(st.sampled_from([tol, min(tol, 1e-9)])) * 10.0 ** draw(st.floats(-1.5, 1.5))
    M = S + (target / slope) * E
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        M[draw(st.integers(0, 2 * n - 1)), draw(st.integers(0, 2 * n - 1))] = draw(
            st.sampled_from(_SPECIAL)
        )
    return M


_TOLS = st.sampled_from([1e-10, 1e-9, 1e-6, 1e-3])


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), tol=_TOLS)
def test_sympmatrix_check_matches_the_ordered_reference(data, n, tol):
    M = data.draw(_near_symplectic(n, tol))
    shape = data.draw(st.sampled_from(["right", "right", "right", "other n", "not square", "flat"]))
    if shape == "other n":
        M = np.pad(M, 1)
    elif shape == "not square":
        M = M[:, :-1]
    elif shape == "flat":
        M = M[0]
    expected = _outcome(_reference_sympmatrix, n, M, tol)
    assert _outcome(SympMatrix, n, M, tol) == expected
    if expected is None:
        assert np.array_equal(SympMatrix(n, M, tol).data, M)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), tol=_TOLS)
def test_is_symplectic_agrees_with_sympmatrix(data, n, tol):
    M = data.draw(_near_symplectic(n, tol))
    assert is_symplectic(M, tol) == (_outcome(SympMatrix, n, M, tol) is None)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), k=st.integers(1, 6))
def test_path_stack_check_matches_the_ordered_reference(data, n, k):
    Ms = np.array([data.draw(_near_symplectic(n, 1e-10)) for _ in range(k)])
    ts = np.linspace(0.1, 0.9, k)
    drawn = []

    def eval_batch(ts):  # identities for the construction samples, then the drawn stack
        return drawn[0] if drawn else np.broadcast_to(np.eye(2 * n), (ts.size, 2 * n, 2 * n))

    path = SympPath(n, eval_batch=eval_batch, tangent_batch=eval_batch)
    drawn.append(Ms)
    assert _outcome(path.sample, ts) == _outcome(_reference_stack, Ms, ts, n)
    form = omega(n)
    for tol in (1e-10, 1e-9, 1e-6, 1e-3):  # the kernel's verdict on a stack, at any tol
        with np.errstate(over="ignore", invalid="ignore"):
            resid = abs(Ms @ form @ Ms.swapaxes(-1, -2) - form).max()
            expected = resid <= tol and abs(np.linalg.det(Ms) - 1.0).max() <= 1e-8
        assert (symplectic_core._group_failure(Ms, form, tol) is None) == expected


@settings(max_examples=300, deadline=None)
@given(data=st.data(), tol=st.sampled_from([1e-10, 1e-9]))
def test_passing_residual_implies_the_determinant_gate(data, tol):
    # det M = Pf(M Omega M^T) / Pf(Omega), so |det M - 1| <= n resid to first order
    n = data.draw(st.integers(1, min(8, round(0.5e-8 / tol))))  # 2n tol <= 1e-8
    M = data.draw(_near_symplectic(n, tol))
    with np.errstate(over="ignore", invalid="ignore"):
        resid = symplectic_residual(M)
    if resid <= tol:
        deviation = abs(np.linalg.det(M) - 1.0)
        assert deviation <= 1e-8
        assert deviation <= 2 * n * resid + 1e-13
