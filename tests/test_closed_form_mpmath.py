"""closed_form_exp and the generic stacked exponential against a 40-digit mpmath exponential.

The families put det a = det c exactly (c is the adjugate of a) and scale b by
eps, so d = a J b + b J c and with it the eigenvalue gap of S scale with eps:
the sweep eps = 1e-1 ... 1e-10 crosses the switch to the generic fallback at
|lambda_+ - lambda_-| = 1e-8 max(1, |lambda_+|, |lambda_-|); there d != 0, a
Jordan-type degeneracy. A scalar square S = lam I (d = 0, det a == det c) is
degenerate too but keeps a closed form. The generic exponential,
symplectic_core._expm, is the Jordan-type fallback and the oracle of
``sympberry verify``; mpmath is the independent oracle of every route.
"""
import mpmath
import numpy as np
import pytest

from sympberry import BRANCH_CLOSED_FORM, BRANCH_FALLBACK, Sp4Generator, closed_form_exp, gamma_permutation, omega
from sympberry.symplectic_core import _THETA13, _expm

_DPS = 40
_REL_TOL = 1e-12
_DEG_FACTOR = 1e-8  # the documented degeneracy threshold factor

_A0 = np.array([[0.9, 0.2], [0.2, -0.4]])
_C0 = np.array([[-0.4, -0.2], [-0.2, 0.9]])  # adjugate of _A0: the same determinant, bit for bit
_B0_REAL = np.array([[0.47, -0.77], [-0.22, 0.03]])  # det d > 0: a real eigenvalue pair
_B0_COMPLEX = np.array([[-0.81, -0.13], [-0.04, -0.68]])  # det d < 0: a complex-conjugate pair
_EPSILONS = [10.0**-k for k in range(1, 11)]


def _mp_blocks(g):
    return [mpmath.matrix(x.tolist()) for x in (g.a, g.b, g.c)]


def _mp_det(x):
    return x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]


def _mp_exp(g):
    """exp(diag(J, J) L) at _DPS digits from the blocks' float entries, L = [[a, b], [b^T, c]]
    interleaved, in grouped ordering: Gamma exp(U) Gamma^T, whose products with 0 and 1 are exact."""
    with mpmath.workdps(_DPS):
        L = mpmath.matrix(np.block([[g.a, g.b], [g.b.T, g.c]]).tolist())
        JJ = mpmath.matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        G = mpmath.matrix(gamma_permutation(2).tolist())
        return G * mpmath.expm(JJ * L) * G.T


def _mp_gap(g):
    """(|lambda_+ - lambda_-|, 1e-8 max(1, |lambda_+|, |lambda_-|)) at _DPS digits."""
    with mpmath.workdps(_DPS):
        a, b, c = _mp_blocks(g)
        J = mpmath.matrix([[0, 1], [-1, 0]])
        d = a * J * b + b * J * c
        det_a, det_b, det_c, det_d = (_mp_det(x) for x in (a, b, c, d))
        center = -(det_a + det_c + 2 * det_b) / 2
        root = mpmath.sqrt(mpmath.mpc((det_a - det_c) ** 2 + 4 * det_d)) / 2
        lam_p, lam_m = center + root, center - root
        return abs(lam_p - lam_m), _DEG_FACTOR * max(1, abs(lam_p), abs(lam_m))


def _relative_error(g):
    M, branch = closed_form_exp(g, return_branch=True)
    ref = _mp_exp(g)
    with mpmath.workdps(_DPS):
        err = max(abs(mpmath.mpf(float(M.data[i, j])) - ref[i, j]) for i in range(4) for j in range(4))
        scale = max(abs(ref[i, j]) for i in range(4) for j in range(4))
        return float(err / scale), branch


@pytest.mark.parametrize("b0", [_B0_REAL, _B0_COMPLEX], ids=["real-pair", "complex-pair"])
@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_gap_sweep_against_mpmath(b0, scale):
    a, c = scale * _A0, scale * _C0
    branches, per_eps = [], []
    for eps in _EPSILONS:
        g = Sp4Generator(a=a, b=eps * scale * b0, c=c)
        with mpmath.workdps(_DPS):  # exact: products of doubles fit in 40 digits
            mp_a, _, mp_c = _mp_blocks(g)
            assert _mp_det(mp_a) == _mp_det(mp_c)
        assert (g.invariants[3] > 0) == (b0 is _B0_REAL)
        gap, threshold = _mp_gap(g)
        per_eps.append(float(gap) / eps)
        assert abs(gap / threshold - 1) > 1e-3  # no sample sits on the threshold itself
        err, branch = _relative_error(g)
        assert err <= _REL_TOL, (eps, branch, err)
        assert branch == (BRANCH_FALLBACK if gap < threshold else BRANCH_CLOSED_FORM), (eps, gap, threshold)
        branches.append(branch)
    # the gap is linear in eps, and the sweep crosses the threshold exactly once
    np.testing.assert_allclose(per_eps, per_eps[0], rtol=1e-6)
    switch = branches.index(BRANCH_FALLBACK)
    assert 0 < switch < len(branches)
    assert branches == [BRANCH_CLOSED_FORM] * switch + [BRANCH_FALLBACK] * (len(branches) - switch)


@pytest.mark.parametrize("size", [2.0, 4.0, 6.0])
def test_large_b_against_mpmath(size):
    rng = np.random.default_rng(int(size))
    for _ in range(3):
        b = size * rng.uniform(-1, 1, size=(2, 2))
        g = Sp4Generator(a=0.5 * _A0, b=b, c=0.5 * _C0 + 0.1 * np.eye(2))
        err, branch = _relative_error(g)
        assert branch == BRANCH_CLOSED_FORM
        assert err <= _REL_TOL, (b, err)


@pytest.mark.parametrize("family", ["a-c-zero", "b-zero"])
def test_scalar_square_against_mpmath(family):
    # degenerate with S = lam I: d = 0 and det a == det c bit for bit, so closed_form_exp takes
    # cosh(sqrt lam) I + sinhc(sqrt lam) U; lam of both signs, and under the sinhc Taylor cutoff
    rng = np.random.default_rng(["a-c-zero", "b-zero"].index(family))
    lams = []
    for size in [1e-4, 0.5, 1.0, 2.0, 4.0, 6.0] * 2:
        if family == "a-c-zero":
            b = size * rng.uniform(-1, 1, size=(2, 2))
            g = Sp4Generator(a=np.zeros((2, 2)), b=b, c=np.zeros((2, 2)))
        else:
            p, q = size * rng.uniform(-1, 1, size=2)
            g = Sp4Generator(a=np.diag([p, q]), b=np.zeros((2, 2)), c=np.diag([q, p]))
        det_a, det_b, det_c, _ = g.invariants
        assert det_a == det_c and not g.d.any()
        lams.append(-(det_a + det_b))
        err, branch = _relative_error(g)
        assert branch == BRANCH_FALLBACK
        assert err <= _REL_TOL, (g, err)
    assert min(lams) < 0 < max(lams) and min(map(abs, lams)) < 1e-6


_EXPM_REL_TOL = 16 * np.finfo(float).eps  # the worst draw below measured 2.8 eps


@pytest.mark.parametrize("scale", [0.05, 0.5, 2.0])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_stacked_expm_against_mpmath(n, scale):
    # exp(omega L) of five symmetric L with entries in [-scale, scale], as one stack
    rng = np.random.default_rng([n, int(100 * scale)])
    X = rng.uniform(-scale, scale, size=(5, 2 * n, 2 * n))
    H = omega(n) @ ((X + X.transpose(0, 2, 1)) / 2.0)
    if scale == 2.0 and n == 4:  # a 1-norm past theta_13: the squarings run
        assert np.abs(H).sum(axis=1).max() > _THETA13
    for h, e in zip(H, _expm(H)):
        with mpmath.workdps(_DPS):
            ref = mpmath.expm(mpmath.matrix(h.tolist()))
            err = max(abs(mpmath.mpf(float(x)) - ref[i, j]) for (i, j), x in np.ndenumerate(e))
            size = max(abs(x) for x in ref)
            assert float(err / size) <= _EXPM_REL_TOL
