"""Group/algebra containers, ordering conversions, and the exponential map."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sympberry import (
    GROUPED,
    INTERLEAVED,
    BlockDecomposition,
    LieAlgElement,
    SympMatrix,
    block_decompose,
    convert_ordering,
    exp_map,
    gamma_permutation,
    is_symplectic,
    omega,
    omega_interleaved,
    symplectic_residual,
)


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


def test_interleaved_sympmatrix_still_validated():
    with pytest.raises(ValueError, match="symplectic condition"):
        SympMatrix(2, 2 * np.eye(4), INTERLEAVED)
    shear = np.eye(4)
    shear[1, 2] = 0.5  # det 1, but p1 += x2/2 without p2 += x1/2 breaks the form
    with pytest.raises(ValueError, match="symplectic condition"):
        SympMatrix(2, shear, INTERLEAVED)
    assert SympMatrix(2, np.eye(4), INTERLEAVED).ordering == INTERLEAVED


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


def test_matmul_ordering_mismatch(rng, random_symplectic):
    M = random_symplectic(rng, 1)
    tilted = SympMatrix(1, M.data, INTERLEAVED)  # n=1: orderings coincide
    with pytest.raises(ValueError):
        M @ tilted


def test_lie_alg_element_requires_symmetry():
    with pytest.raises(ValueError):
        LieAlgElement(1, np.array([[0.0, 1.0], [0.5, 0.0]]))
    L = LieAlgElement(1, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert L.n == 1


def test_block_decompose_identities(rng, random_symplectic):
    M = random_symplectic(rng, 2)
    blocks = block_decompose(M)
    A, B, C, D = blocks.A, blocks.B, blocks.C, blocks.D
    np.testing.assert_allclose(A @ D.T - B @ C.T, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(A @ B.T, B @ A.T, atol=1e-10)
    np.testing.assert_allclose(C @ D.T, D @ C.T, atol=1e-10)
    np.testing.assert_allclose(blocks.assemble(), M.data, atol=0)


def test_block_decomposition_rejects_broken_blocks():
    eye, zero = np.eye(2), np.zeros((2, 2))
    message = "blocks violate the symplectic identities: residual {} exceeds {}"
    with pytest.raises(ValueError, match=re.escape(message.format("1.000e+00", "1.000e-10"))):
        BlockDecomposition(A=eye, B=zero, C=zero, D=2 * eye)
    # A D^T - B C^T = I holds, A B^T = B A^T fails by 0.5
    with pytest.raises(ValueError, match=re.escape(message.format("5.000e-01", "1.000e-03"))):
        BlockDecomposition(A=eye, B=np.array([[0.0, 0.5], [0.0, 0.0]]), C=zero, D=eye, tol=1e-3)
    with pytest.raises(ValueError, match="^blocks must share one shape$"):
        BlockDecomposition(A=eye, B=zero, C=zero, D=np.eye(3))
    with pytest.raises(ValueError, match="^block C contains non-finite entries$"):
        BlockDecomposition(A=eye, B=zero, C=np.full((2, 2), np.nan), D=eye)
    with pytest.raises(ValueError, match="^block B must be real-valued, got dtype complex128$"):
        BlockDecomposition(A=eye, B=zero + 0j, C=zero, D=eye)


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
    assert symplectic_residual(tilde, INTERLEAVED) <= 1e-12
    M = convert_ordering(tilde)
    assert M.n == 3 and M.ordering == GROUPED


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
        # the shape is checked before the ordering
        ((1, np.eye(4), "xp"), "expected shape (2, 2), got (4, 4)"),
        ((1, np.eye(2), "xp"), "unknown ordering 'xp'"),
        # the residual is checked before the determinant (here 4)
        (
            (1, 2 * np.eye(2)),
            "matrix fails the symplectic condition: residual 3.000e+00 exceeds "
            "tolerance 1.000e-10",
        ),
        (
            (2, 2 * np.eye(4), INTERLEAVED, 1e-3),
            "matrix fails the symplectic condition: residual 3.000e+00 exceeds "
            "tolerance 1.000e-03",
        ),
        # residual 1e-6 passes the loose tolerance; the determinant does not
        (
            (1, np.diag([1 + 1e-6, 1.0]), GROUPED, 1e-3),
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
    ],
)
def test_lie_alg_element_rejections(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        LieAlgElement(*args)
    assert type(info.value) is ValueError


def test_exp_map_checks_its_result():
    with pytest.raises(ValueError, match="^matrix fails the symplectic condition: residual "):
        exp_map(LieAlgElement(2, 0.7 * np.eye(4)), tol=0.0)


def test_residual_and_membership_values():
    assert symplectic_residual(2 * np.eye(4)) == 3.0
    assert symplectic_residual(2 * np.eye(4), INTERLEAVED) == 3.0
    assert symplectic_residual(np.eye(4)) == 0.0
    with pytest.raises(ValueError, match="^unknown ordering 'xp'$"):
        symplectic_residual(np.eye(4), "xp")
    with pytest.raises(ValueError, match="^mode count must be a positive integer, got 0$"):
        symplectic_residual(np.zeros((1, 1)))
    for value in (np.nan, np.inf, -np.inf):
        bad = np.eye(4)
        bad[2, 1] = value
        assert is_symplectic(bad) is False
    assert is_symplectic(np.eye(4)) is True
    assert is_symplectic(np.diag([1 + 1e-6, 1.0]), tol=1e-5) is True
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
