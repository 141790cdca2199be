"""Covariances, displacement amplitudes, and the numeric overlap oracle.

A symplectic matrix acting on the vacuum fixes a pure Gaussian state. Its
covariance matrix, the expectation value of a displacement operator, and a
brute-force wavefunction overlap all have to tell one consistent story.
"""
import numpy as np

from sympberry import (
    GROUPED,
    OscParams,
    SqueezeSpec,
    SympMatrix,
    covariance,
    covariance_quadrature,
    numeric_overlap_n1,
    omega,
    squeeze_matrix_n1,
    weyl_amplitude,
)

params = OscParams(hbar=1.0, lengths=(1.0,))

print("== vacuum ==")
vacuum = SympMatrix(1, np.eye(2), GROUPED)
print("covariance:")
print(covariance(vacuum, params).data)

print("\n== squeezed state ==")
spec = SqueezeSpec(modes=1, R=1.0, angle=0.0, params=params)
M = squeeze_matrix_n1(spec)
V = covariance(M, params).data
print("covariance (squeezing factor e^{-2} and e^{+2} on the diagonal):")
print(V)
print(f"det(2V) = {np.linalg.det(2 * V):.15f}  (pure state: exactly 1)")

print("\n== purity across parameters ==")
p2 = OscParams(hbar=0.7, lengths=(1.9,))
spec2 = SqueezeSpec(modes=1, R=0.8, angle=1.1, params=p2)
M2 = squeeze_matrix_n1(spec2)
Vq = covariance_quadrature(M2).data
mags = np.abs(np.linalg.eigvals(2.0 * omega(1) @ Vq))
print(f"|eig(2 Omega V_q)| = {mags}  (unit modulus marks a pure state)")

print("\n== displacement amplitude vs numeric overlap ==")
p = OscParams(1.0, (1.0,))
spec = SqueezeSpec(modes=1, R=0.3, angle=np.pi / 2, params=p)
M = squeeze_matrix_n1(spec)
a, b = 0.7, -0.2
amp = weyl_amplitude(M, p, [a], [b])
overlap = numeric_overlap_n1(M, p, a, b)
print(f"closed-form amplitude:      {amp:.15f}")
print(f"numeric overlap modulus:    {abs(overlap):.15f}")
print(f"numeric overlap phase:      {np.angle(overlap):.15f} rad")
# compared as complex numbers, as `sympberry verify overlap` does: a modulus
# check alone cannot see a wrong phase factor
print(f"complex deviation:          {abs(overlap - amp):.3e}")

print("\n== normalization sanity ==")
unity = numeric_overlap_n1(M, p, 0.0, 0.0)
print(f"overlap at zero displacement: {unity:.15f}  (should be 1)")
