"""Three routes to the same phase, plus the invariance that makes it geometric.

The direct connection integral, an integration-by-parts form with an
explicit covariance boundary term, and a reduced form for paths whose
upper-right block vanishes must all agree. Left-translating the whole path
by a fixed group element must change nothing.
"""
import numpy as np

from sympberry import (
    LieAlgElement,
    OscParams,
    check_canonical_invariance,
    exp_map,
    integrate_phase,
    integrate_phase_boundary_form,
    phase_b_zero,
    squeeze_circle_path,
)
from sympberry.oracles import b_zero_loop

params = OscParams(hbar=1.0, lengths=(1.0,))
path = squeeze_circle_path(1, 1.0, params)

print("== direct vs boundary form ==")
direct = integrate_phase(path, params)
boundary = integrate_phase_boundary_form(path, params)
print(f"direct:   {direct.value:.15f} (err est {direct.error_estimate:.1e})")
print(f"boundary: {boundary.value:.15f} (err est {boundary.error_estimate:.1e})")
print(f"difference: {abs(direct.value - boundary.value):.3e}")

print("\n== left translation by a random group element ==")
rng = np.random.default_rng(5)
sym = rng.uniform(-0.6, 0.6, size=(2, 2))
S = exp_map(LieAlgElement(1, (sym + sym.T) / 2.0))
base, moved, diff = check_canonical_invariance(path, S, params)
print(f"original path:   {base:.15f}")
print(f"translated path: {moved:.15f}")
print(f"|difference|:    {diff:.3e}")

print("\n== the reduced form for vanishing upper-right block ==")
# build a closed two-mode path [[A, 0], [G A, A^{-T}]]: rotation-like A(t)
# under a time-dependent symmetric shear G(t)
K = rng.uniform(-0.8, 0.8, size=(2, 2))
K0 = (K - K.T) / 2.0
G0 = rng.uniform(-0.6, 0.6, size=(2, 2))
G0 = (G0 + G0.T) / 2.0
G1 = rng.uniform(-0.6, 0.6, size=(2, 2))
G1 = (G1 + G1.T) / 2.0
# A(t) = expm(sin(2 pi t) K0), G(t) = 0.4 G0 + (1 - cos(2 pi t)) G1
shear_path = b_zero_loop(K0, G0, G1, g0_weight=0.4)
p2 = OscParams(hbar=0.9, lengths=(1.1, 0.8))
reduced = phase_b_zero(shear_path, p2)
general = integrate_phase(shear_path, p2)
print(f"reduced integrand: {reduced.value:.15f}")
print(f"general integrand: {general.value:.15f}")
print(f"difference:        {abs(reduced.value - general.value):.3e}")

print("\n== a pure rotation picks up no phase ==")
rot = b_zero_loop(K0)  # G = 0: [[A, 0], [0, A^{-T}]]
print(f"phase: {phase_b_zero(rot, p2).value:.3e}")
