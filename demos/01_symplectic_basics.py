"""Symplectic matrices: validation, orderings, blocks, and the exp map.

Walks through the group-level plumbing everything else builds on: what a
SympMatrix checks at construction, how symmetric generators exponentiate into
the group, and how an array in the interleaved index ordering becomes a
SympMatrix, which is always grouped.
"""
import numpy as np

from sympberry import (
    LieAlgElement,
    SympMatrix,
    block_decompose,
    convert_ordering,
    exp_map,
    gamma_permutation,
    omega,
    omega_interleaved,
    symplectic_residual,
)

rng = np.random.default_rng(1)

print("== the form matrix ==")
print("grouped ordering (x1, x2, p1, p2):")
print(omega(2).astype(int))
print("interleaved ordering (x1, p1, x2, p2):")
print(omega_interleaved(2).astype(int))

print("\n== exponentiating a symmetric generator ==")
sym = rng.uniform(-0.5, 0.5, size=(4, 4))
sym = (sym + sym.T) / 2.0
M = exp_map(LieAlgElement(2, sym))
print(f"residual of M form M^T - form: {symplectic_residual(M.data):.3e}")
print(f"det M = {np.linalg.det(M.data):.15f}  (must be exactly 1 up to rounding)")

print("\n== block identities ==")
A, B, C, D = block_decompose(M)  # read-only views of M.data
print(f"|A D^T - B C^T - I|_max = {np.max(np.abs(A @ D.T - B @ C.T - np.eye(2))):.3e}")
print(f"|A B^T - B A^T|_max     = {np.max(np.abs(A @ B.T - B @ A.T)):.3e}")

print("\n== the inverse without solving ==")
Minv = M.inverse()
print(f"|M M^{{-1}} - I|_max = {np.max(np.abs((M @ Minv).data - np.eye(4))):.3e}")

print("\n== reading an interleaved array ==")
# every SympMatrix is grouped; convert_ordering is the one function that reads an
# interleaved array: it checks it against diag(J, J), then permutes it into grouped order.
# Build one from two independent single-mode blocks
theta = 0.4
one_mode = exp_map(LieAlgElement(1, np.array([[0.3, theta], [theta, -0.1]])))
tilde = np.zeros((4, 4))
tilde[:2, :2] = one_mode.data
tilde[2:, 2:] = one_mode.data
form = omega_interleaved(2)
print(f"interleaved residual: {np.max(np.abs(tilde @ form @ tilde.T - form)):.3e}")
grouped = convert_ordering(tilde)
print(f"grouped residual after conversion: {symplectic_residual(grouped.data):.3e}")
gam = gamma_permutation(2)
print(f"permutation is orthogonal: |G G^T - I|_max = {np.max(np.abs(gam @ gam.T - np.eye(4))):.3e}")

print("\n== construction rejects non-symplectic input ==")
bad = np.eye(4)
bad[0, 0] = 1.001
try:
    SympMatrix(2, bad)
except ValueError as exc:
    print(f"rejected as expected: {exc}")
