"""Dense real symplectic-matrix foundations.

Provides the standard antisymmetric form, membership tests, block
decomposition, conversion between the two common coordinate orderings, and a
generic (oracle-grade) exponential map onto the group.

Two coordinate orderings appear throughout:

* ``"grouped"``: (x_1, ..., x_n, p_1, ..., p_n). The form matrix is
  ``omega(n) = [[0, I], [-I, 0]]``.
* ``"interleaved"``: (x_1, p_1, ..., x_n, p_n). The form matrix is the block
  diagonal ``omega_interleaved(n)`` built from 2x2 blocks [[0, 1], [-1, 0]].

A permutation similarity (``gamma_permutation``) converts between them.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

__all__ = [
    "GROUPED",
    "INTERLEAVED",
    "SympMatrix",
    "LieAlgElement",
    "BlockDecomposition",
    "omega",
    "omega_interleaved",
    "symplectic_residual",
    "is_symplectic",
    "block_decompose",
    "gamma_permutation",
    "convert_ordering",
    "exp_map",
]

GROUPED = "grouped"
INTERLEAVED = "interleaved"

DEFAULT_TOL_SYMP = 1e-10
_DET_TOL = 1e-8
_SYMMETRY_TOL = 1e-12
_FLOAT64 = np.dtype(float)  # native float64: a singleton, so `is` tests it


# Validation kernel. _residual computes every group-condition residual in the package;
# on small matrices the np.max/np.all wrappers and a re-validated omega(n) cost more
# than the arithmetic, so the kernel uses ndarray methods and takes the form as given.
def _real_array(data, name: str, copy: bool = True) -> np.ndarray:
    """data as a float array, or ValueError if it is complex-valued. The result is a
    copy unless copy is False and data already is a float64 array."""
    arr = np.array(data) if copy else np.asarray(data)  # dtype checked before any cast
    if arr.dtype is not _FLOAT64:
        if arr.dtype.kind == "c":
            raise ValueError(f"{name} must be real-valued, got dtype {arr.dtype}")
        try:
            arr = arr.astype(float)
        except TypeError:  # an object array holding complex numbers
            raise ValueError(f"{name} must be real-valued, got dtype {arr.dtype}") from None
    return arr


def _mode_count(n) -> int:
    """n as an int, or ValueError if it is not a positive integer."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"mode count must be a positive integer, got {n!r}")
    return int(n)


def _as_square_matrix(data, name: str = "matrix") -> np.ndarray:
    """A float copy of data, or ValueError if it is not a finite, real, square matrix."""
    arr = _real_array(data, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _residual(M: np.ndarray, form: np.ndarray):
    """max |M form M^T - form|: a float for a matrix, an array for a (k, m, m) stack."""
    if M.ndim > 2:
        return abs(M @ form @ M.swapaxes(-1, -2) - form).max(axis=(-2, -1))
    # the same BLAS product as @ on 2-D float arrays, without the matmul ufunc's dispatch
    return float(abs(M.dot(form).dot(M.T) - form).max())


def _passes_group_check(M: np.ndarray, form: np.ndarray, tol: float) -> bool:
    """True iff M, a matrix or a (k, 2n, 2n) stack, passes the group check at tol. NaN, inf and
    overflow fail the residual, which implies the det gate where 2n tol <= _DET_TOL (NOTES.md)."""
    with np.errstate(over="ignore", invalid="ignore"):
        resid = _residual(M, form)
        if not (resid if M.ndim == 2 else resid.max()) <= tol:
            return False
        return M.shape[-1] * tol <= _DET_TOL or bool((abs(np.linalg.det(M) - 1.0) <= _DET_TOL).all())


def _group_gates(M: np.ndarray, form: np.ndarray, tol: float):
    """(residual, determinant, passed) of a matrix or of each stacked matrix, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        resid, det = _residual(M, form), np.linalg.det(M)
    return resid, det, (resid <= tol) & (abs(det - 1.0) <= _DET_TOL)


def _asymmetry(arr: np.ndarray) -> float:
    """max |arr - arr^T| of a square matrix."""
    return float(abs(arr - arr.T).max())


def omega(n: int) -> np.ndarray:
    """Standard antisymmetric form [[0, I], [-I, 0]] in grouped ordering.

    Built once per mode count and returned as a shared read-only array.
    """
    return _omega_cached(_mode_count(n))


@functools.lru_cache(maxsize=None)
def _omega_cached(n: int) -> np.ndarray:
    eye = np.eye(n)
    zero = np.zeros((n, n))
    form = np.block([[zero, eye], [-eye, zero]])
    form.setflags(write=False)
    return form


def omega_interleaved(n: int) -> np.ndarray:
    """Block-diagonal form diag(J, ..., J), J = [[0, 1], [-1, 0]].

    Built once per mode count and returned as a shared read-only array.
    """
    return _omega_interleaved_cached(_mode_count(n))


@functools.lru_cache(maxsize=None)
def _omega_interleaved_cached(n: int) -> np.ndarray:
    out = np.zeros((2 * n, 2 * n))
    x = 2 * np.arange(n)  # the x index of each mode; its p index is x + 1
    out[x, x + 1], out[x + 1, x] = 1.0, -1.0
    out.setflags(write=False)
    return out


_FORMS = {GROUPED: _omega_cached, INTERLEAVED: _omega_interleaved_cached}  # for a checked n


def symplectic_residual(M: np.ndarray, ordering: str = GROUPED) -> float:
    """Max-norm residual of the group condition M form M^T = form."""
    M = np.asarray(M, dtype=float)
    if ordering not in (GROUPED, INTERLEAVED):
        raise ValueError(f"unknown ordering {ordering!r}")
    form = omega if ordering == GROUPED else omega_interleaved
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is an inf residual
        return _residual(M, form(M.shape[0] // 2))


def is_symplectic(M, tol: float = DEFAULT_TOL_SYMP) -> bool:
    """True iff the matrix preserves the grouped-ordering form within tol.

    Rejects non-square and odd-dimension inputs.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] % 2 != 0 or M.shape[0] == 0:
        raise ValueError(f"dimension must be even and positive, got {M.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the residual
        return bool(np.isfinite(M).all()) and _residual(M, _omega_cached(M.shape[0] // 2)) <= tol


@dataclasses.dataclass(frozen=True)
class SympMatrix:
    """A 2n x 2n real matrix validated against the symplectic group condition.

    Parameters
    ----------
    n : mode count.
    data : 2n x 2n real matrix.
    ordering : "grouped" (default) or "interleaved"; selects the form matrix
        the group condition is checked against.
    tol_symp : max-norm tolerance for the group-condition residual.
    """

    n: int
    data: np.ndarray
    ordering: str = GROUPED
    tol_symp: float = DEFAULT_TOL_SYMP

    def __post_init__(self) -> None:
        n = _mode_count(self.n)
        arr = _real_array(self.data, "symplectic matrix")
        known = arr.shape == (2 * n, 2 * n) and self.ordering in (GROUPED, INTERLEAVED)
        if not (known and _passes_group_check(arr, _FORMS[self.ordering](n), self.tol_symp)):
            _as_square_matrix(arr, "symplectic matrix")  # the ordered checks name the failure
            if arr.shape != (2 * n, 2 * n):
                raise ValueError(f"expected shape {(2 * n, 2 * n)}, got {arr.shape}")
            if self.ordering not in (GROUPED, INTERLEAVED):
                raise ValueError(f"unknown ordering {self.ordering!r}")
            resid, det, _ = _group_gates(arr, _FORMS[self.ordering](n), self.tol_symp)
            if resid > self.tol_symp:
                raise ValueError(
                    f"matrix fails the symplectic condition: residual {resid:.3e} "
                    f"exceeds tolerance {self.tol_symp:.3e}"
                )
            if abs(det - 1.0) > _DET_TOL:
                raise ValueError(f"determinant {float(det)!r} deviates from 1 beyond {_DET_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "n", n)

    @property
    def dim(self) -> int:
        return 2 * self.n

    def inverse(self) -> "SympMatrix":
        """Group inverse via the form: M^{-1} = form^{-1} M^T form."""
        form = _FORMS[self.ordering](self.n)
        inv = -form @ self.data.T @ form  # form^{-1} = -form
        return SympMatrix(self.n, inv, self.ordering, self.tol_symp)

    def __matmul__(self, other: "SympMatrix") -> "SympMatrix":
        if not isinstance(other, SympMatrix):
            return NotImplemented
        if other.n != self.n or other.ordering != self.ordering:
            raise ValueError("operands must share mode count and ordering")
        # residuals compound under products; loosen the check accordingly
        tol = 10 * max(self.tol_symp, other.tol_symp)
        return SympMatrix(self.n, self.data @ other.data, self.ordering, tol)


@dataclasses.dataclass(frozen=True)
class LieAlgElement:
    """A symmetric 2n x 2n real matrix; the generator of exp_map."""

    n: int
    data: np.ndarray

    def __post_init__(self) -> None:
        n = _mode_count(self.n)
        arr = _as_square_matrix(self.data, "generator")
        if arr.shape != (2 * n, 2 * n):
            raise ValueError(f"expected shape {(2 * n, 2 * n)}, got {arr.shape}")
        asym = _asymmetry(arr)
        if asym > _SYMMETRY_TOL:
            raise ValueError(
                f"generator must be symmetric: asymmetry {asym:.3e} exceeds "
                f"{_SYMMETRY_TOL}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "n", n)


@dataclasses.dataclass(frozen=True)
class BlockDecomposition:
    """n x n blocks A, B, C, D of a grouped-ordering symplectic matrix.

    The group condition in block form reads A D^T - B C^T = I,
    A B^T = B A^T, C D^T = D C^T: the blocks of M form M^T = form, whose
    residual is validated within tol.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    tol: float = DEFAULT_TOL_SYMP

    def __post_init__(self) -> None:
        shape = None
        for name in ("A", "B", "C", "D"):
            arr = _as_square_matrix(getattr(self, name), f"block {name}")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise ValueError("blocks must share one shape")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the residual
            worst = _residual(self.assemble(), _omega_cached(shape[0]))
        if not worst <= self.tol:
            raise ValueError(
                f"blocks violate the symplectic identities: residual {worst:.3e} "
                f"exceeds {self.tol:.3e}"
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def assemble(self) -> np.ndarray:
        return np.block([[self.A, self.B], [self.C, self.D]])


def block_decompose(M: SympMatrix) -> BlockDecomposition:
    """Split a grouped-ordering SympMatrix into its n x n corner blocks."""
    if M.ordering != GROUPED:
        raise ValueError("block decomposition is defined for grouped ordering")
    n = M.n
    d = M.data
    return BlockDecomposition(
        A=d[:n, :n], B=d[:n, n:], C=d[n:, :n], D=d[n:, n:], tol=M.tol_symp
    )


def gamma_permutation(n: int) -> np.ndarray:
    """Permutation taking interleaved coordinates to grouped ones.

    Acting on column vectors: (x1, p1, ..., xn, pn) |-> (x1..xn, p1..pn).
    Orthogonal, so its transpose is its inverse. n=1 gives the identity.
    """
    n = _mode_count(n)
    g = np.zeros((2 * n, 2 * n))
    for i in range(n):
        g[i, 2 * i] = 1.0
        g[n + i, 2 * i + 1] = 1.0
    return g


def convert_ordering(Mtilde, tol: float = DEFAULT_TOL_SYMP) -> SympMatrix:
    """Conjugate an interleaved-ordering symplectic matrix into grouped form.

    Validates the block-diagonal form condition on the input first, then
    returns Gamma Mtilde Gamma^{-1} as a grouped SympMatrix.
    """
    arr = _as_square_matrix(Mtilde, "matrix")
    if arr.shape[0] % 2 != 0:
        raise ValueError(f"dimension must be even, got {arr.shape[0]}")
    n = arr.shape[0] // 2
    resid = symplectic_residual(arr, INTERLEAVED)
    if resid > tol:
        raise ValueError(
            f"input fails the interleaved-ordering symplectic condition: "
            f"residual {resid:.3e} exceeds {tol:.3e}"
        )
    g = gamma_permutation(n)
    return SympMatrix(n, g @ arr @ g.T, GROUPED, tol)


def exp_map(L: LieAlgElement, tol: float = DEFAULT_TOL_SYMP) -> SympMatrix:
    """Exponential map M = exp(omega L) via scaling-and-squaring.

    The generic dense exponential; serves as the oracle for the closed-form
    routes elsewhere in the package. ``import sympberry`` does not load
    scipy: ``scipy.linalg`` is imported on the first call.
    """
    import scipy.linalg

    M = scipy.linalg.expm(_omega_cached(L.n) @ L.data)
    return SympMatrix(L.n, M, GROUPED, tol)
