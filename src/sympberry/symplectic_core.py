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
    "DEFAULT_TOL_SYMP",
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


def _as_square_matrix(data, name: str = "matrix") -> np.ndarray:
    arr = np.array(data, dtype=float, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def omega(n: int) -> np.ndarray:
    """Standard antisymmetric form [[0, I], [-I, 0]] in grouped ordering.

    Built once per mode count and returned as a shared read-only array.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"mode count must be a positive integer, got {n!r}")
    return _omega_cached(int(n))


@functools.lru_cache(maxsize=None)
def _omega_cached(n: int) -> np.ndarray:
    eye = np.eye(n)
    zero = np.zeros((n, n))
    form = np.block([[zero, eye], [-eye, zero]])
    form.setflags(write=False)
    return form


def omega_interleaved(n: int) -> np.ndarray:
    """Block-diagonal form diag(J, ..., J), J = [[0, 1], [-1, 0]]."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"mode count must be a positive integer, got {n!r}")
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n, 2 * n))
    for i in range(n):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = j
    return out


def _form_matrix(n: int, ordering: str) -> np.ndarray:
    if ordering == GROUPED:
        return omega(n)
    if ordering == INTERLEAVED:
        return omega_interleaved(n)
    raise ValueError(f"unknown ordering {ordering!r}")


def symplectic_residual(M: np.ndarray, ordering: str = GROUPED) -> float:
    """Max-norm residual of the group condition M form M^T = form."""
    M = np.asarray(M, dtype=float)
    form = _form_matrix(M.shape[0] // 2, ordering)
    return float(np.max(np.abs(M @ form @ M.T - form)))


def is_symplectic(M, tol: float = DEFAULT_TOL_SYMP) -> bool:
    """True iff the matrix preserves the grouped-ordering form within tol.

    Rejects non-square and odd-dimension inputs.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] % 2 != 0 or M.shape[0] == 0:
        raise ValueError(f"dimension must be even and positive, got {M.shape[0]}")
    if not np.all(np.isfinite(M)):
        return False
    return symplectic_residual(M, GROUPED) <= tol


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
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"mode count must be a positive integer, got {self.n!r}")
        arr = _as_square_matrix(self.data, "symplectic matrix")
        if arr.shape != (2 * self.n, 2 * self.n):
            raise ValueError(
                f"expected shape {(2 * self.n, 2 * self.n)}, got {arr.shape}"
            )
        if self.ordering not in (GROUPED, INTERLEAVED):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        resid = symplectic_residual(arr, self.ordering)
        if resid > self.tol_symp:
            raise ValueError(
                f"matrix fails the symplectic condition: residual {resid:.3e} "
                f"exceeds tolerance {self.tol_symp:.3e}"
            )
        det = float(np.linalg.det(arr))
        if abs(det - 1.0) > _DET_TOL:
            raise ValueError(f"determinant {det!r} deviates from 1 beyond {_DET_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "n", int(self.n))

    @property
    def dim(self) -> int:
        return 2 * self.n

    def inverse(self) -> "SympMatrix":
        """Group inverse via the form: M^{-1} = form^{-1} M^T form."""
        form = _form_matrix(self.n, self.ordering)
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
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"mode count must be a positive integer, got {self.n!r}")
        arr = _as_square_matrix(self.data, "generator")
        if arr.shape != (2 * self.n, 2 * self.n):
            raise ValueError(
                f"expected shape {(2 * self.n, 2 * self.n)}, got {arr.shape}"
            )
        asym = float(np.max(np.abs(arr - arr.T)))
        if asym > _SYMMETRY_TOL:
            raise ValueError(
                f"generator must be symmetric: asymmetry {asym:.3e} exceeds "
                f"{_SYMMETRY_TOL}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "n", int(self.n))


@dataclasses.dataclass(frozen=True)
class BlockDecomposition:
    """n x n blocks A, B, C, D of a grouped-ordering symplectic matrix.

    The group condition in block form reads A D^T - B C^T = I,
    A B^T = B A^T, C D^T = D C^T; each is validated within tol.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    tol: float = DEFAULT_TOL_SYMP

    def __post_init__(self) -> None:
        blocks = {}
        shape = None
        for name in ("A", "B", "C", "D"):
            arr = _as_square_matrix(getattr(self, name), f"block {name}")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise ValueError("blocks must share one shape")
            arr.setflags(write=False)
            blocks[name] = arr
        n = shape[0]
        eye = np.eye(n)
        r1 = np.max(np.abs(blocks["A"] @ blocks["D"].T - blocks["B"] @ blocks["C"].T - eye))
        r2 = np.max(np.abs(blocks["A"] @ blocks["B"].T - blocks["B"] @ blocks["A"].T))
        r3 = np.max(np.abs(blocks["C"] @ blocks["D"].T - blocks["D"] @ blocks["C"].T))
        worst = float(max(r1, r2, r3))
        if worst > self.tol:
            raise ValueError(
                f"blocks violate the symplectic identities: residual {worst:.3e} "
                f"exceeds {self.tol:.3e}"
            )
        for name, arr in blocks.items():
            object.__setattr__(self, name, arr)

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
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"mode count must be a positive integer, got {n!r}")
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

    M = scipy.linalg.expm(omega(L.n) @ L.data)
    return SympMatrix(L.n, M, GROUPED, tol)
