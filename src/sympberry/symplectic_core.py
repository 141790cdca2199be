"""Dense real symplectic-matrix foundations.

Provides the standard antisymmetric form, membership tests, block
decomposition, conversion between the two common coordinate orderings, a
generic (oracle-grade) exponential map onto the group, and a private numpy
exponential of matrix stacks.

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


def _is_integer(value) -> bool:
    """True for an int or a numpy integer; bool, a subclass of int, is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _mode_count(n) -> int:
    """n as an int, or ValueError if it is not a positive integer."""
    if not _is_integer(n) or n < 1:
        raise ValueError(f"mode count must be a positive integer, got {n!r}")
    return int(n)


def _as_square_matrix(data, name: str = "matrix", dim: int | None = None) -> np.ndarray:
    """A float copy of data, or ValueError unless it is a finite, real, square (dim x dim) matrix."""
    arr = _real_array(data, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    if dim is not None and arr.shape != (dim, dim):
        raise ValueError(f"expected shape {(dim, dim)}, got {arr.shape}")
    return arr


def _residual(M: np.ndarray, form: np.ndarray, axis=None):
    """max |M form M^T - form| of a matrix or a (k, m, m) stack, over every entry or over axis,
    unwarned: NaN, inf and overflow give a NaN or inf residual, which fails any `<= tol`.
    M form M^T - form is built in place and reduced once, one reduction for a whole stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        # on 2-D float arrays .dot is the same BLAS product as @, without the matmul ufunc's dispatch
        R = M.dot(form).dot(M.T) if M.ndim == 2 else M @ form @ M.swapaxes(-1, -2)
        R -= form
        return np.maximum.reduce(np.abs(R, out=R), axis=axis)


def _group_failure(M: np.ndarray, form: np.ndarray, tol: float):
    """None if M, a matrix or a (k, 2n, 2n) stack, passes the group check at tol: residual
    within tol and |det - 1| within _DET_TOL. Else (index, residual, determinant) of the first
    failing matrix, index 0 for a single one. NaN, inf and overflow fail the residual, which
    implies the det gate where 2n tol <= _DET_TOL, so a pass there costs one reduction (NOTES.md)."""
    if _residual(M, form) <= tol and M.shape[-1] * tol <= _DET_TOL:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        resid, det = np.atleast_1d(_residual(M, form, (-2, -1)), np.linalg.det(M))
    failed = ~((resid <= tol) & (abs(det - 1.0) <= _DET_TOL))
    i = int(failed.argmax())
    return (i, resid[i], det[i]) if failed[i] else None


def _asymmetry(arr: np.ndarray) -> float:
    """max |arr - arr^T| of a square matrix, unwarned; not finite if an entry is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.maximum.reduce(abs(arr - arr.T), axis=None))


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
    """Max-norm residual of the group condition M form M^T = form, over a matrix or a stack."""
    M = _real_array(M, "matrix", copy=False)
    if ordering not in (GROUPED, INTERLEAVED):
        raise ValueError(f"unknown ordering {ordering!r}")
    if M.ndim in (2, 3):  # a dimension below 2 names its mode count, 0
        form = (omega if ordering == GROUPED else omega_interleaved)(M.shape[-1] // 2)
    if M.ndim not in (2, 3) or M.shape[-2:] != form.shape:
        raise ValueError(f"expected a 2n x 2n matrix or a (k, 2n, 2n) stack, got shape {M.shape}")
    return float(_residual(M, form))


def is_symplectic(M, tol: float = DEFAULT_TOL_SYMP) -> bool:
    """True iff the matrix passes SympMatrix's group check in grouped ordering at tol.

    Rejects complex, non-square and odd-dimension inputs.
    """
    M = _real_array(M, "matrix", copy=False)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] % 2 != 0 or M.shape[0] == 0:
        raise ValueError(f"dimension must be even and positive, got {M.shape[0]}")
    return _group_failure(M, _omega_cached(M.shape[0] // 2), tol) is None  # non-finite M fails it


@dataclasses.dataclass(frozen=True)
class SympMatrix:
    """A 2n x 2n real matrix validated against the symplectic group condition.

    The constructor checks outside input, which may have any type, dtype or shape, in full,
    and keeps a read-only copy. exp_map, @, inverse and convert_ordering make a fresh float64
    array of the right shape themselves, so their results take only the group check.

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
        n = self.n if type(self.n) is int and self.n > 0 else _mode_count(self.n)
        arr = _real_array(self.data, "symplectic matrix")
        known = arr.shape == (2 * n, 2 * n) and self.ordering in (GROUPED, INTERLEAVED)
        failure = _group_failure(arr, _FORMS[self.ordering](n), self.tol_symp) if known else ()
        if failure is not None:
            _as_square_matrix(arr, "symplectic matrix", 2 * n)  # ordered checks name the failure
            if self.ordering not in (GROUPED, INTERLEAVED):
                raise ValueError(f"unknown ordering {self.ordering!r}")
            _, resid, det = failure
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

    @classmethod
    def _checked(cls, n: int, arr: np.ndarray, ordering: str, tol: float) -> "SympMatrix":
        """SympMatrix(n, arr, ordering, tol) of a fresh float64 (2n, 2n) array it takes over, n an int."""
        if _group_failure(arr, _FORMS[ordering](n), tol) is not None:
            return cls(n, arr, ordering, tol)  # the public constructor names the failure
        arr.setflags(write=False)
        self = object.__new__(cls)
        self.__dict__.update(n=n, data=arr, ordering=ordering, tol_symp=tol)
        return self

    def inverse(self) -> "SympMatrix":
        """Group inverse via the form: M^{-1} = form^{-1} M^T form."""
        form = _FORMS[self.ordering](self.n)
        inv = (-form).dot(self.data.T).dot(form)  # form^{-1} = -form
        return SympMatrix._checked(self.n, inv, self.ordering, self.tol_symp)

    def __matmul__(self, other: "SympMatrix") -> "SympMatrix":
        if not isinstance(other, SympMatrix):
            return NotImplemented
        if other.n != self.n or other.ordering != self.ordering:
            raise ValueError("operands must share mode count and ordering")
        # residuals compound under products; loosen the check accordingly
        tol = 10 * max(self.tol_symp, other.tol_symp)
        return SympMatrix._checked(self.n, self.data.dot(other.data), self.ordering, tol)


@dataclasses.dataclass(frozen=True)
class LieAlgElement:
    """A symmetric 2n x 2n real matrix; the generator of exp_map."""

    n: int
    data: np.ndarray

    def __post_init__(self) -> None:
        n = self.n if type(self.n) is int and self.n > 0 else _mode_count(self.n)
        arr = _real_array(self.data, "generator")
        # a non-finite entry makes the asymmetry non-finite, so one reduction decides a pass
        if not (arr.shape == (2 * n, 2 * n) and _asymmetry(arr) <= _SYMMETRY_TOL):
            arr = _as_square_matrix(arr, "generator", 2 * n)  # ordered checks name the failure
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
        worst = _residual(self.assemble(), _omega_cached(shape[0]))
        if not worst <= self.tol:
            raise ValueError(
                f"blocks violate the symplectic identities: residual {worst:.3e} "
                f"exceeds {self.tol:.3e}"
            )

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
    return SympMatrix._checked(n, g.dot(arr).dot(g.T), GROUPED, tol)


def exp_map(L: LieAlgElement, tol: float = DEFAULT_TOL_SYMP) -> SympMatrix:
    """Exponential map M = exp(omega L) via scaling-and-squaring.

    The generic dense exponential of one matrix, by scipy.linalg.expm; stacks
    go through _expm, which says why the two differ. ``import sympberry``
    does not load scipy: ``scipy.linalg`` is imported on the first call.
    """
    import scipy.linalg

    M = scipy.linalg.expm(_omega_cached(L.n).dot(L.data))
    return SympMatrix._checked(L.n, M, GROUPED, tol)


# Padé-13 numerator coefficients b_0 ... b_13 and the 1-norm up to which Padé-13 needs no
# scaling (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of each slice of a (k, m, m) float stack: Padé-13 with scaling and squaring.

    Each slice is scaled by its own 1-norm, so its result does not depend on the other
    slices: a slice of a stack equals the same matrix exponentiated as a stack of one,
    bit for bit. A finite diagonal slice, zero included, gets exp of its diagonal, as in
    scipy's diagonal shortcut: exp(0) is exactly I. A slice with a non-finite 1-norm gives
    NaN, and an exponential that overflows gives inf or NaN, without a numpy warning.

    scipy.linalg.expm loops over a stack's slices in Python, about 200 us for 20 4x4
    slices against 70 us here, and its import takes about 0.25 s; the stacked callers and
    the verify and expm commands use this one. exp_map stays on scipy, which takes about
    12 us for a single 4x4 matrix against 30-50 us here: a finite-difference loop calls
    exp_map several hundred times per phase. (Python 3.11, numpy 2.4, scipy 1.17, two
    cores of an Intel Xeon.)
    """
    k, m, _ = A.shape
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(A).sum(axis=1).max(axis=1)
    bad = ~np.isfinite(norm)
    # off the diagonal: the runs of m entries between the diagonal entries of a flat slice
    diag = ~(bad | A.reshape(k, m * m)[:, 1:].reshape(k, m - 1, m + 1)[:, :, :m].any(axis=(1, 2)))
    special = diag | bad  # set after the Padé step, in which X = 0 stands for them
    any_special = special.any()
    X = A
    if any_special:
        X, norm = np.where(special[:, None, None], 0.0, A), np.where(special, 0.0, norm)
    # the least s >= 0 with norm / 2^s < theta_13, from each slice's own 1-norm
    s = np.maximum(np.frexp(norm / _THETA13)[1], 0)[:, None, None]
    X = np.ldexp(X, -s)
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X2 @ X4
    b, eye = _PADE13, np.eye(m)
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2) + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2) + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye
    # over b_0, so a zero block of X gives an exact I: the solve multiplies by 1 / pivot
    E = np.linalg.solve((V - U) / b[0], (V + U) / b[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(s.max(initial=0)):
            E = np.where(step < s, E @ E, E)
        if any_special:
            E[bad] = np.nan
            i, d = np.arange(m), np.flatnonzero(diag)[:, None]
            E[d[:, 0]] = 0.0
            E[d, i, i] = np.exp(A[d, i, i])
    return E
