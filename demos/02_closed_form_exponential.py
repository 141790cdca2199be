"""The closed-form 4x4 exponential against the generic dense one.

The two-mode exponential reduces to six scalar series sums in the
eigenvalues of the generator's structured square. This script shows the
reduction agreeing with scipy's expm, the coefficient recurrence agreeing
with its closed form, and the scalar-square closed form at an eigenvalue
degeneracy. The generator and U are in the interleaved ordering (x1, p1, x2,
p2); closed_form_exp returns a grouped SympMatrix, so scipy's exp(U) is read
through convert_ordering before the two are compared.
"""
import numpy as np
import scipy.linalg

from sympberry import (
    Sp4Generator,
    closed_form_exp,
    coeff_closed,
    coeff_recurrence,
    convert_ordering,
    eigenvalues,
    squeeze_block_exp,
)

rng = np.random.default_rng(2)


def generic_exp(g):
    """scipy's exp(U) of the interleaved generator, as a grouped matrix."""
    return convert_ordering(scipy.linalg.expm(g.u_matrix())).data


def sym2():
    X = rng.uniform(-1, 1, size=(2, 2))
    return (X + X.T) / 2.0


print("== random generator, closed form vs generic ==")
g = Sp4Generator(a=sym2(), b=rng.uniform(-1, 1, size=(2, 2)), c=sym2())
lam_p, lam_m = eigenvalues(g)
print(f"eigenvalues of the structured square: {lam_p:.6f}, {lam_m:.6f}")
M, branch = closed_form_exp(g, return_branch=True)
generic = generic_exp(g)
print(f"branch taken: {branch}")
print(f"max |closed - generic| = {np.max(np.abs(M.data - generic)):.3e}")

print("\n== power coefficients: recurrence vs closed form ==")
for n in (1, 2, 5, 10):
    rec = coeff_recurrence(g, n)
    clo = coeff_closed(g, n)
    worst = max(abs(x - y) for x, y in zip(rec, clo))
    print(f"n = {n:2d}: max coefficient deviation {worst:.3e}")

print("\n== the degenerate family ==")
# a = c = 0 collapses both eigenvalues onto -det(b): the series sums'
# denominator vanishes, but the square S = -det(b) I is scalar, so
# exp(U) = cosh(sqrt(-det b)) I + sinhc(sqrt(-det b)) U still holds in
# closed form; only a Jordan-type degeneracy (d != 0) needs a generic expm
b = rng.uniform(-1, 1, size=(2, 2))
g0 = Sp4Generator(a=np.zeros((2, 2)), b=b, c=np.zeros((2, 2)))
M0, branch0 = closed_form_exp(g0, return_branch=True)
print(f"a = c = 0 branch: {branch0}")
print(f"scalar-square closed form vs generic: {np.max(np.abs(M0.data - generic_exp(g0))):.3e}")

print("\n== same family, the scalar-square formula by hand ==")
root = np.emath.sqrt(-np.linalg.det(b))  # imaginary when det b > 0: cos and sin / x
by_hand = convert_ordering((np.cosh(root) * np.eye(4) + np.sinh(root) / root * g0.u_matrix()).real).data
print(f"cosh I + sinhc U vs squeeze_block_exp: {np.max(np.abs(by_hand - squeeze_block_exp(b).data)):.3e}")
print("diagonal blocks are cosh(sqrt(-det b)) I to the FIRST power;")
print("see NOTES.md for the derivation pitfall this guards against")

print("\n== bulk agreement ==")
worst = 0.0
for _ in range(300):
    g = Sp4Generator(a=sym2(), b=rng.uniform(-1, 1, size=(2, 2)), c=sym2())
    M = closed_form_exp(g)
    worst = max(worst, float(np.max(np.abs(M.data - generic_exp(g)))))
print(f"300 random generators: max deviation {worst:.3e}")
