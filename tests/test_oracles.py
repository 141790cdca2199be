"""The verify oracles: checks that can fail, and the shared zero-B loop."""
import itertools
import types

import numpy as np
import pytest

from sympberry import (
    OscParams,
    SqueezeSpec,
    gaussian_states,
    geometric_phase,
    omega,
    oracles,
    sp4_closed_form,
    squeeze_paths,
    symplectic_core,
)
from sympberry._quadrature import GK15_NODES
from sympberry._random import (
    SYMPLECTIC_SCALE,
    random_generator,
    random_generators,
    random_symmetric,
    random_symplectic,
    random_symplectics,
)
from sympberry.cli import main
from sympberry.oracles import _FAULT_SIZE, CHECKS, _generic_exp, b_zero_loop
from sympberry.sp4_closed_form import DegenerateEigenvalues, Sp4Generator


def _swapped_conversion(conversion):
    """The conversion with D = diag(hbar/l, l): lengths hbar/l swap l and hbar/l at the same hbar."""
    return lambda p: conversion(OscParams(p.hbar, tuple(p.hbar / l for l in p.lengths)))


def _conversion_without_hbar(conversion):
    """The conversion with D = diag(l, 1/l), as at hbar = 1: the frame then reads Z0 = i diag(1/l^2)."""
    return lambda p: conversion(OscParams(1.0, p.lengths))


def _inject_into_the_conversion(monkeypatch, make_faulty):
    # the one conversion, in every module that binds it
    faulty = make_faulty(gaussian_states._unit_conversion)
    for module in (gaussian_states, geometric_phase):
        monkeypatch.setattr(module, "_unit_conversion", faulty)


def _flipped_winding_sign(monkeypatch):
    winding = geometric_phase._winding_values
    monkeypatch.setattr(geometric_phase, "_winding_values", lambda Ms, dMs: -winding(Ms, dMs))


def _winding_without_hbar(monkeypatch):
    """The winding kernel alone on samples converted as at hbar = 1, so its frame reads
    Z0 = i diag(1/l^2); the connection route keeps the true conversion, so the routes part."""
    boundary_form = geometric_phase.integrate_phase_boundary_form
    winding = geometric_phase._winding_values
    convert = gaussian_states._unit_conversion
    ratio = []  # q / q at hbar = 1, for the OscParams of the running call

    def recording(path, p, quad=None):
        ratio[:] = [convert(p) / convert(OscParams(1.0, p.lengths))]
        return boundary_form(path, p, quad)

    monkeypatch.setattr(geometric_phase, "integrate_phase_boundary_form", recording)
    dropped = lambda Ms, dMs: winding(Ms * ratio[0], dMs * ratio[0])
    monkeypatch.setattr(geometric_phase, "_winding_values", dropped)


FAULTS = {
    "winding_sign": _flipped_winding_sign,
    "winding_hbar": _winding_without_hbar,
    "swapped_conversion": lambda mp: _inject_into_the_conversion(mp, _swapped_conversion),
}


@pytest.mark.parametrize(
    "check,fault",
    [
        ("two_form", "winding_sign"),
        ("two_form", "winding_hbar"),
        ("two_form", "swapped_conversion"),
        ("overlap", "swapped_conversion"),
    ],
)
def test_check_catches_swapped_metric_weights(monkeypatch, check, fault):
    residual, tol = CHECKS[check](np.random.default_rng(0), 25, False)
    assert residual <= tol
    FAULTS[fault](monkeypatch)
    residual, tol = CHECKS[check](np.random.default_rng(0), 25, False)
    assert residual > tol


@pytest.mark.parametrize("check", ["overlap", "two_form"])
def test_checks_catch_a_frame_without_hbar(monkeypatch, check):
    # D = diag(l, 1/l) in the one conversion: the physical frame Z0 = i diag(1/l^2), without hbar
    residual, tol = CHECKS[check](np.random.default_rng(0), 25, False)
    assert residual <= tol
    _inject_into_the_conversion(monkeypatch, _conversion_without_hbar)
    residual, tol = CHECKS[check](np.random.default_rng(0), 25, False)
    assert residual > tol


@pytest.mark.parametrize(
    "make_faulty", [_swapped_conversion, _conversion_without_hbar], ids=["swapped", "without_hbar"]
)
def test_verify_fails_on_a_faulty_conversion(monkeypatch, capsys, make_faulty):
    # two_form's two integrals and b_zero's share the conversion, so they agree on its fault;
    # two_form's closed circles against reference_phase and the overlap see it
    _inject_into_the_conversion(monkeypatch, make_faulty)
    assert main(["verify", "--seed", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = {line.split()[1].rstrip(":") for line in lines if line.startswith("[FAIL]")}
    assert failed == {"two_form", "overlap"}


def test_two_form_compares_two_routes():
    # the split shares no arithmetic with the direct integrand, so rounding shows
    residual, tol = CHECKS["two_form"](np.random.default_rng(0), 25, False)
    assert 0.0 < residual <= tol


@pytest.mark.parametrize("check", list(CHECKS))
def test_check_over_no_draws_returns_a_passing_residual(check):
    # count 0 is a library call the CLI refuses; no stack may reduce to an error
    residual, tol = CHECKS[check](np.random.default_rng(0), 0, False)
    assert np.isfinite(residual) and residual <= tol


def test_closed_form_check_catches_a_wrong_scalar_square(monkeypatch):
    # count 0: only the 20 degenerate a = c = 0 draws, whose square S is scalar, so
    # closed_form_exp takes its cosh/sinhc route there and _expm runs on the oracle side only
    residual, tol = CHECKS["closed_form"](np.random.default_rng([0, 0]), 0, False)
    assert 0.0 < residual <= tol
    cosh_sinhc = sp4_closed_form._cosh_sinhc
    squared = lambda lam: (cosh_sinhc(lam)[0] ** 2, cosh_sinhc(lam)[1])  # the NOTES.md pitfall
    monkeypatch.setattr(sp4_closed_form, "_cosh_sinhc", squared)
    with pytest.raises(ValueError, match="^matrix fails the symplectic condition"):
        CHECKS["closed_form"](np.random.default_rng([0, 0]), 0, False)
    # without the group check of the result, the comparison with _expm fails the check
    monkeypatch.setattr(sp4_closed_form, "SympMatrix", lambda n, M, *_: types.SimpleNamespace(data=M))
    residual, tol = CHECKS["closed_form"](np.random.default_rng([0, 0]), 0, False)
    assert residual > 1e3 * tol


def test_b_zero_loop_samples_keep_the_block_form():
    rng = np.random.default_rng(8)
    om = omega(2)
    ts = np.linspace(0.0, 1.0, 101)
    for _ in range(5):
        K0 = rng.uniform(-0.7, 0.7, size=(2, 2))
        G0, G1 = random_symmetric(rng, 2), random_symmetric(rng, 2)
        shear = np.array([b_zero_loop(K0, G0, G1).eval(t).data for t in ts])
        rotation = np.array([b_zero_loop(K0).eval(t).data for t in ts])
        for Ms in (shear, rotation):
            assert np.max(np.abs(Ms @ om @ Ms.transpose(0, 2, 1) - om)) <= 1e-13
            assert np.all(Ms[:, :2, 2:] == 0.0)
            np.testing.assert_allclose(Ms[:, 2:, 2:], np.linalg.inv(Ms[:, :2, :2]).transpose(0, 2, 1))
        assert np.all(rotation[:, 2:, :2] == 0.0)


def _b_zero_loop_per_point(K0, G0=None, G1=None, *, g0_weight=None, scale=1.0):
    """b_zero_loop as it was before its samples came in stacks: one expm (a stack of one),
    one inverse and one SympMatrix per point. The reference the stacked loop must reproduce
    bitwise."""

    def eval_path(t):
        s = np.sin(2.0 * np.pi * t)
        A = symplectic_core._expm((s * K0)[None])[0]
        M = np.zeros((4, 4))
        M[:2, :2] = A
        M[2:, 2:] = np.linalg.inv(A).T
        if G0 is not None:
            w = s if g0_weight is None else g0_weight
            G = scale * (w * G0 + (1.0 - np.cos(2.0 * np.pi * t)) * G1)
            M[2:, :2] = G @ A
        return symplectic_core.SympMatrix(2, M)

    return geometric_phase.SympPath(n=2, eval=eval_path, closed=True)


_B_ZERO_FORMS = (
    geometric_phase.integrate_phase,
    geometric_phase.integrate_phase_boundary_form,
    geometric_phase.phase_b_zero,
)
# two ends, an interior point, and the nodes of the adaptive rule's first split
_B_ZERO_TS = np.concatenate([[0.0, 0.3, 1.0], 0.25 + 0.25 * GK15_NODES, 0.75 + 0.25 * GK15_NODES])


def _loop_results(loop, p):
    phases = [(r.value, r.error_estimate, r.evaluations) for r in (form(loop, p) for form in _B_ZERO_FORMS)]
    return loop.sample(_B_ZERO_TS), phases


@pytest.mark.parametrize("seed", range(6))
def test_stacked_b_zero_loop_matches_the_per_point_loop_bitwise(seed):
    # the draws of the b_zero check: three loops per seed, each plain, with a constant
    # G0 weight and with the fault's scaled G. The samples are pinned bitwise; so are the
    # phases of the stacked samples under the per-point loop's two-point stencil
    rng = np.random.default_rng(seed)
    p = OscParams(2.0, (0.5, 1.5))
    cases = []
    for _ in range(3):
        K0 = rng.uniform(-0.7, 0.7, size=(2, 2))
        G0, G1 = random_symmetric(rng, 2), random_symmetric(rng, 2)
        cases += [((K0, G0, G1), kwargs) for kwargs in ({}, {"g0_weight": 0.4}, {"scale": 1.001})]
    if seed == 0:
        cases.append(((np.array([[0.0, 0.5], [-0.5, 0.0]]),), {}))  # the unsheared loop
    ts = np.linspace(0.0, 1.0, 33)
    for args, kwargs in cases:
        loop, reference = b_zero_loop(*args, **kwargs), _b_zero_loop_per_point(*args, **kwargs)
        assert np.array_equal(loop.eval_batch(ts), reference.eval_batch(ts))
        stencil = geometric_phase.SympPath(n=2, eval_batch=loop.eval_batch, closed=True)
        (Ms, dMs), phases = _loop_results(stencil, p)
        (ref_Ms, ref_dMs), ref_phases = _loop_results(reference, p)
        assert np.array_equal(Ms, ref_Ms) and np.array_equal(dMs, ref_dMs)
        assert phases == ref_phases


@pytest.mark.parametrize("seed", range(3))
def test_b_zero_loop_tangent_is_exact(seed):
    # against a central difference of eval_batch, whose error falls as h^2; and its phases
    # against those of the same samples without the tangent, closed, which the periodic
    # trapezoid differentiates spectrally, while the three exact-tangent integrals agree to
    # rounding of the integrand
    rng = np.random.default_rng(seed)
    p = OscParams(2.0, (0.5, 1.5))
    ts = np.linspace(0.0, 1.0, 37)
    K0 = rng.uniform(-0.7, 0.7, size=(2, 2))
    G0, G1 = random_symmetric(rng, 2), random_symmetric(rng, 2)
    for kwargs in ({}, {"g0_weight": 0.4}, {"scale": 1.001}):
        loop = b_zero_loop(K0, G0, G1, **kwargs)
        errors = [
            np.max(np.abs((loop.eval_batch(ts + h) - loop.eval_batch(ts - h)) / (2 * h)
                          - loop.tangent_batch(ts)))
            for h in (2e-3, 1e-3)
        ]
        assert 3.9 < errors[0] / errors[1] < 4.1 and errors[1] < 1e-3
        stencil = geometric_phase.SympPath(n=2, eval_batch=loop.eval_batch, closed=True)
        open_stencil = geometric_phase.SympPath(n=2, eval_batch=loop.eval_batch)
        exact = [form(loop, p) for form in _B_ZERO_FORMS]
        for form, result in zip(_B_ZERO_FORMS, exact):
            differenced = form(stencil, p)
            # the exact tangent takes G7K15, as the open stencil does; the closed path
            # without a tangent takes the periodic trapezoid
            assert result.evaluations == form(open_stencil, p).evaluations
            assert differenced.evaluations == 32
            assert abs(result.value - differenced.value) <= 1e-12
            assert abs(result.value - exact[0].value) <= 1e-14
    rotation = b_zero_loop(K0)
    assert np.all(rotation.tangent_batch(ts)[:, 2:, :2] == 0.0)


def test_b_zero_loop_tangent_reuses_the_samples_expm(monkeypatch):
    # a sampled node set costs one expm of its k matrices, where the stencil took 2k
    rng = np.random.default_rng(0)
    loop = b_zero_loop(rng.uniform(-0.7, 0.7, size=(2, 2)), random_symmetric(rng, 2), random_symmetric(rng, 2))
    shapes = []
    expm = symplectic_core._expm
    monkeypatch.setattr(symplectic_core, "_expm", lambda X: shapes.append(X.shape) or expm(X))
    Ms, dMs = loop.sample(np.linspace(0.0, 1.0, 15))
    assert shapes == [(15, 2, 2)]
    assert not (Ms.flags.writeable or dMs.flags.writeable)


def test_b_zero_loop_builds_no_sympmatrix_while_integrating(monkeypatch):
    rng = np.random.default_rng(0)
    K0 = rng.uniform(-0.7, 0.7, size=(2, 2))
    loop = b_zero_loop(K0, random_symmetric(rng, 2), random_symmetric(rng, 2))
    built = []
    original = symplectic_core.SympMatrix.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(symplectic_core.SympMatrix, "__post_init__", counting)
    for form in _B_ZERO_FORMS:
        assert form(loop, OscParams(2.0, (0.5, 1.5))).evaluations > 15  # refined
    loop.sample(_B_ZERO_TS)
    assert built == []


def test_overlap_check_sees_the_displacement_phase_factor(monkeypatch):
    # exp(i a b / 2 hbar) flipped to exp(-i a b / 2 hbar): the modulus is unchanged, so
    # only a complex comparison catches it
    residual, tol = CHECKS["overlap"](np.random.default_rng([0, 6]), 200, False)
    assert residual <= tol
    overlap = gaussian_states.numeric_overlap_n1
    flipped = lambda M, p, a, b, grid=None: overlap(M, p, a, b, grid) * np.exp(-1j * a * b / p.hbar)
    monkeypatch.setattr(gaussian_states, "numeric_overlap_n1", flipped)
    residual, tol = CHECKS["overlap"](np.random.default_rng([0, 6]), 200, False)
    assert residual > 0.1


_GAMMA = symplectic_core.gamma_permutation(2)  # carries an interleaved reference to grouped ordering


def _expm_one(X):
    """The generic exponential of one matrix: _expm on a stack of one."""
    return symplectic_core._expm(X[None])[0]


# The per-draw loops as they were before each check compared its draws in one stacked route:
# the reference the stacked checks must reproduce.
def _closed_form_per_draw(rng, count, fault):
    worst = 0.0
    for i in range(count + max(20, count // 5)):
        if i < count:
            g = random_generator(rng)
        else:
            g = Sp4Generator(a=np.zeros((2, 2)), b=rng.uniform(-1, 1, size=(2, 2)), c=np.zeros((2, 2)))
        g_used = Sp4Generator(a=g.a, b=g.b + _FAULT_SIZE, c=g.c) if fault and i == 0 else g
        M = sp4_closed_form.closed_form_exp(g_used)
        worst = max(worst, float(np.max(np.abs(M.data - _GAMMA @ _expm_one(g.u_matrix()) @ _GAMMA.T))))
    return worst, 1e-9, None


def _coefficients_per_draw(rng, count, fault):
    worst = 0.0
    done = 0
    while done < count:
        g = random_generator(rng)
        g_used = Sp4Generator(a=g.a, b=g.b + _FAULT_SIZE, c=g.c) if fault and done == 0 else g
        try:
            for order in range(1, 11):
                exact = sp4_closed_form.coeff_recurrence(g, order)
                closed = sp4_closed_form.coeff_closed(g_used, order)
                for x, y in zip(exact, closed):
                    worst = max(worst, abs(x - y) / max(1.0, abs(x)))
        except DegenerateEigenvalues:
            continue
        done += 1
    return worst, 1e-9, None


def _symplectic_per_draw(rng, count, fault):
    """Also returns max |M| over the drawn matrices, which scales the rounding allowance."""
    worst = scale = 0.0
    p1 = OscParams(1.0, (1.0,))
    p2 = OscParams(1.0, (1.0, 1.0))
    for i in range(count):
        r = rng.uniform(0.0, 2.0)
        th = rng.uniform(0.0, 2.0 * np.pi)
        M1 = squeeze_paths.squeeze_matrix_n1(SqueezeSpec(1, r, th, p1)).data
        M2 = squeeze_paths.squeeze_matrix_n2(SqueezeSpec(2, r, th, p2)).data
        M3 = random_symplectic(rng, 1).data
        M4 = random_symplectic(rng, 2).data
        if fault and i == 0:
            M1 = M1 + _FAULT_SIZE
        for M in (M1, M2, M3, M4):
            worst = max(worst, symplectic_core.symplectic_residual(M))
            scale = max(scale, float(np.max(np.abs(M))))
    return worst, 1e-9, scale


_PER_DRAW = {
    "closed_form": (_closed_form_per_draw, [(sp4_closed_form, "closed_form_exp")]),
    "coefficients": (
        _coefficients_per_draw,
        [(sp4_closed_form, "coeff_closed"), (sp4_closed_form, "coeff_recurrence")],
    ),
    "symplectic": (_symplectic_per_draw, [(squeeze_paths, "_squeeze_stack")]),
}


def _counting(monkeypatch, targets):
    """Wrap each module function in targets with a call counter, as bench/tracing.py does."""
    counts = dict.fromkeys((name for _, name in targets), 0)
    for module, name in targets:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("count", [1, 20, 200])
@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("check", list(_PER_DRAW))
def test_stacked_check_matches_the_per_draw_loop(monkeypatch, check, seed, count, fault):
    reference, targets = _PER_DRAW[check]
    counts = _counting(monkeypatch, targets)
    residual, tol = CHECKS[check](np.random.default_rng([seed, 0]), count, fault)
    stacked_counts = dict(counts)
    counts.update(dict.fromkeys(counts, 0))
    expected, expected_tol, scale = reference(np.random.default_rng([seed, 0]), count, fault)
    if check == "closed_form":  # the code under test still runs once per draw, where tracing sees it
        assert stacked_counts == counts
        assert counts["closed_form_exp"] == count + max(20, count // 5)
    elif check == "coefficients":
        assert stacked_counts == counts
        assert counts["coeff_closed"] == 10 * count <= counts["coeff_recurrence"]
    else:  # one stacked build per mode count; each public squeeze_matrix_n1/n2 call is a stack of one
        assert stacked_counts == {"_squeeze_stack": 2}
        assert counts == {"_squeeze_stack": 2 * count}
    assert tol == expected_tol
    assert (residual <= tol) == (expected <= tol) == (not fault)
    if scale is None:
        assert residual == expected  # bytewise: the stacked expm equals each single call
    else:
        # a stacked matmul may round the last bit differently from a 2-D .dot
        assert abs(residual - expected) <= 4.0 * np.finfo(float).eps * scale**2


def test_symplectic_check_raises_on_a_random_element_off_the_group(monkeypatch):
    # the stacked random elements get SympMatrix's group check and its ValueError
    expm = symplectic_core._expm
    off = lambda X: expm(X) + 1e-3 * (np.arange(len(X)) == 2)[:, None, None]
    monkeypatch.setattr(symplectic_core, "_expm", off)
    message = (r"^random 1-mode element 2 fails the group check at tolerance 1\.0e-10: "
               r"residual 1\.\d{3}e-03, determinant 1\.001\d+$")  # a Python float's repr
    with pytest.raises(ValueError, match=message):
        CHECKS["symplectic"](np.random.default_rng(0), 5, False)


def test_symplectic_check_raises_on_a_squeeze_off_the_group(monkeypatch):
    # each squeeze stack gets the random elements' group check and message, and comes first
    build = squeeze_paths._squeeze_stack
    off = lambda n, *args: build(n, *args) + 1e-3 * (n == 1) * (np.arange(5) == 2)[:, None, None]
    monkeypatch.setattr(squeeze_paths, "_squeeze_stack", off)
    monkeypatch.setattr(symplectic_core, "_expm", lambda X: X + np.nan)  # fails too, but is checked later
    message = (r"^squeeze 1-mode element 2 fails the group check at tolerance 1\.0e-10: "
               r"residual \d\.\d{3}e-03, determinant 1\.001\d+$")
    with pytest.raises(ValueError, match=message):
        CHECKS["symplectic"](np.random.default_rng(0), 5, False)


def test_stacked_generic_exponential_equals_each_single_call():
    rng = np.random.default_rng(3)
    gs = [random_generator(rng) for _ in range(30)]
    gs += [Sp4Generator(a=np.zeros((2, 2)), b=rng.uniform(-1, 1, size=(2, 2)), c=np.zeros((2, 2)))]
    stacked = _generic_exp(gs)  # in grouped ordering, as closed_form_exp returns its matrix
    assert np.array_equal(stacked, np.array([_GAMMA @ _expm_one(g.u_matrix()) @ _GAMMA.T for g in gs]))


# The stream each check consumes, written out draw by draw with one uniform call per scalar or
# matrix and (X + X.T) / 2 per symmetric block, as the checks drew before their inputs came
# from one array-bounded uniform call. Each returns the bytes of the inputs that the check's
# recorded calls (_STREAMS) must see, in call order.
def _sym(X):
    return (X + X.T) / 2.0


def _generator_blocks(rng, scale=1.0):
    a = _sym(rng.uniform(-scale, scale, size=(2, 2)))
    b = rng.uniform(-scale, scale, size=(2, 2))
    return a, b, _sym(rng.uniform(-scale, scale, size=(2, 2)))


def _symplectic_element(rng, n, scale=SYMPLECTIC_SCALE):
    return _expm_one(omega(n) @ _sym(rng.uniform(-scale, scale, size=(2 * n, 2 * n))))


def _spec_bytes(spec):
    return np.array([spec.R, spec.angle]).tobytes()


def _closed_form_stream(rng, count):
    blocks = [_generator_blocks(rng) for _ in range(count)]
    zero = np.zeros((2, 2))
    blocks += [(zero, rng.uniform(-1, 1, size=(2, 2)), zero) for _ in range(max(20, count // 5))]
    return [np.array(abc).tobytes() for abc in blocks]


def _coefficients_stream(rng, count):
    seen, done = [], 0
    while done < count:
        abc = _generator_blocks(rng)
        seen.append(np.array(abc).tobytes())
        try:
            sp4_closed_form.coeff_closed(Sp4Generator(*abc), 1)
        except DegenerateEigenvalues:
            continue
        done += 1
    return seen


def _symplectic_stream(rng, count):
    specs, Ls = [], ([], [])
    for _ in range(count):
        r = rng.uniform(0.0, 2.0)
        th = rng.uniform(0.0, 2.0 * np.pi)
        specs.append(_spec_bytes(SqueezeSpec(1, r, th, OscParams(1.0, (1.0,)))))
        Ls[0].append(_sym(rng.uniform(-SYMPLECTIC_SCALE, SYMPLECTIC_SCALE, size=(2, 2))))
        Ls[1].append(_sym(rng.uniform(-SYMPLECTIC_SCALE, SYMPLECTIC_SCALE, size=(4, 4))))
    # one stacked squeeze build per mode count sees every draw's (R, angle) at once
    exponents = [(omega(n) @ np.array(L)).tobytes() for n, L in ((1, Ls[0]), (2, Ls[1]))]
    return [b"".join(specs)] * 2 + exponents


def _stack_bytes(modes, R, angles, params):
    """The (R, angle) pairs of a stacked squeeze build, as the specs of its draws would hold them."""
    return np.stack(np.broadcast_arrays(R, angles), axis=-1).tobytes()


def _overlap_stream(rng, count):
    seen = []
    for _ in range(min(count, 5)):
        p = OscParams(float(rng.uniform(0.5, 2.0)), (float(rng.uniform(0.5, 2.0)),))
        r = float(rng.uniform(0.2, 1.2))
        th = float(rng.uniform(0.0, 2.0 * np.pi))
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(-1.0, 1.0))
        seen += [_spec_bytes(SqueezeSpec(1, r, th, p)), np.array([p.hbar, *p.lengths, a, b]).tobytes()]
    return seen


def _b_zero_stream(rng, count):
    seen = []
    for _ in range(min(count, 3)):
        K0 = rng.uniform(-0.7, 0.7, size=(2, 2))
        G0 = _sym(rng.uniform(-1.0, 1.0, size=(2, 2)))
        G1 = _sym(rng.uniform(-1.0, 1.0, size=(2, 2)))
        seen.append(np.array([K0, G0, G1]).tobytes())
    return seen


def _invariance_stream(rng, count):
    return [_symplectic_element(rng, 1).tobytes() for _ in range(min(count, 5))]


# check -> (its per-draw stream, [(module, function, the bytes of a call's inputs or None)])
_STREAMS = {
    "closed_form": (
        _closed_form_stream,
        [(sp4_closed_form, "closed_form_exp", lambda g: np.array([g.a, g.b, g.c]).tobytes())],
    ),
    "coefficients": (
        _coefficients_stream,
        [(sp4_closed_form, "coeff_recurrence",
          lambda g, k: np.array([g.a, g.b, g.c]).tobytes() if k == 1 else None)],
    ),
    "symplectic": (
        _symplectic_stream,
        [(squeeze_paths, "_squeeze_stack", _stack_bytes), (symplectic_core, "_expm", lambda X: X.tobytes())],
    ),
    "overlap": (
        _overlap_stream,
        [
            (squeeze_paths, "squeeze_matrix_n1", _spec_bytes),
            (gaussian_states, "numeric_overlap_n1",
             lambda M, p, a, b: np.array([p.hbar, *p.lengths, a, b]).tobytes()),
        ],
    ),
    "b_zero": (
        _b_zero_stream,
        [(oracles, "b_zero_loop", lambda K0, G0, G1, **_: np.array([K0, G0, G1]).tobytes())],
    ),
    "invariance": (
        _invariance_stream,
        [(geometric_phase, "check_canonical_invariance", lambda path, S0, p: S0.data.tobytes())],
    ),
}


@pytest.mark.parametrize("count", [1, 7, 200])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("check", list(_STREAMS))
def test_check_consumes_the_per_draw_stream(monkeypatch, check, seed, count):
    # the inputs the code under test sees, bytewise, and the generator's state afterwards
    stream, calls = _STREAMS[check]
    per_draw = np.random.default_rng([seed, 0])
    expected = stream(per_draw, count)
    seen = []
    for module, name, inputs in calls:
        def recording(*args, _fn=getattr(module, name), _inputs=inputs, **kwargs):
            if (key := _inputs(*args, **kwargs)) is not None:
                seen.append(key)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    stacked = np.random.default_rng([seed, 0])
    CHECKS[check](stacked, count, False)
    assert seen == expected
    assert stacked.bit_generator.state == per_draw.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_draws_equal_count_one_calls(n):
    # k draws of one stack are k calls of the count = 1 helper, which draws as it always did
    for seed in range(10):
        k = 1 + seed % 4
        rngs = [np.random.default_rng([seed, n]) for _ in range(3)]
        stacked = random_symplectics(rngs[0], n, k)
        assert [M.data.tobytes() for M in stacked] == [random_symplectic(rngs[1], n).data.tobytes()
                                                       for _ in range(k)]
        assert [M.data.tobytes() for M in stacked] == [_symplectic_element(rngs[2], n).tobytes()
                                                       for _ in range(k)]
        gs = random_generators(rngs[0], k, 0.5 * n)
        singles = [random_generator(rngs[1], 0.5 * n) for _ in range(k)]
        blocks = [_generator_blocks(rngs[2], 0.5 * n) for _ in range(k)]
        for g, single, abc in zip(gs, singles, blocks):
            assert np.array([g.a, g.b, g.c]).tobytes() == np.array([single.a, single.b, single.c]).tobytes()
            assert np.array([g.a, g.b, g.c]).tobytes() == np.array(abc).tobytes()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == rngs[2].bit_generator.state


def _nan_on_call(call, poison):
    """A patch factory: the wrapped function's result on its call-th call goes through poison."""

    def patch(fn):
        calls = itertools.count()
        return lambda *args, **kwargs: (
            poison(fn(*args, **kwargs)) if next(calls) == call else fn(*args, **kwargs)
        )

    return patch


def _nan_in_stacks(fn):
    """fn, with a NaN in its result on a (k, m, m) stack: the check's own stacked route, not
    the 2-D calls inside the code under test (each SympMatrix check)."""

    def patched(M, *args, **kwargs):
        out = fn(M, *args, **kwargs)
        if np.ndim(M) != 3:
            return out
        out = np.array(out, dtype=float)
        out[(2,) if out.ndim else ()] = np.nan  # the third draw's slice, or the whole reduction
        return out

    return patched


_NAN_MATRIX = lambda out: types.SimpleNamespace(data=np.full_like(out.data, np.nan))
_NAN_VALUE = lambda out: types.SimpleNamespace(value=np.nan)


def _nan_at_draw_1(stack):
    stack[1] = np.nan
    return stack


# check -> (module, function, patch) per route: the code under test, then its independent route
_NAN_ROUTES = {
    ("closed_form", "code"): (sp4_closed_form, "closed_form_exp", _nan_on_call(2, _NAN_MATRIX)),
    # the fallback binds its own _expm, so only the check's stacked route goes through this one
    ("closed_form", "oracle"): (symplectic_core, "_expm", _nan_in_stacks),
    ("coefficients", "code"): (
        sp4_closed_form, "coeff_closed", _nan_on_call(3, lambda c: (c[0], np.nan, c[2]))
    ),
    ("coefficients", "oracle"): (
        sp4_closed_form, "coeff_recurrence", _nan_on_call(3, lambda c: (np.nan, c[1], c[2]))
    ),
    # the two-mode squeeze stack, draw 1: the stack's group check refuses it before the residual
    ("symplectic", "code"): (squeeze_paths, "_squeeze_stack", _nan_on_call(1, _nan_at_draw_1)),
    # the residual the check reports; the group check of its random elements stays unpatched
    ("symplectic", "oracle"): (symplectic_core, "symplectic_residual", _nan_in_stacks),
    ("two_form", "code"): (geometric_phase, "integrate_phase", _nan_on_call(1, _NAN_VALUE)),
    ("two_form", "oracle"): (
        geometric_phase, "integrate_phase_boundary_form", _nan_on_call(2, _NAN_VALUE)
    ),
    ("invariance", "code"): (
        geometric_phase, "check_canonical_invariance", _nan_on_call(1, lambda r: (r[0], np.nan, r[2]))
    ),
    ("invariance", "oracle"): (geometric_phase, "integrate_phase", _nan_on_call(0, _NAN_VALUE)),
    ("b_zero", "code"): (geometric_phase, "phase_b_zero", _nan_on_call(1, _NAN_VALUE)),
    ("b_zero", "oracle"): (geometric_phase, "integrate_phase", _nan_on_call(1, _NAN_VALUE)),
    ("overlap", "code"): (
        gaussian_states, "numeric_overlap_n1", _nan_on_call(2, lambda z: complex(np.nan, z.imag))
    ),
    ("overlap", "oracle"): (gaussian_states, "weyl_amplitude", _nan_on_call(2, lambda w: np.nan)),
}


@pytest.mark.parametrize("check, route", list(_NAN_ROUTES))
def test_a_nan_from_either_route_fails_verify(monkeypatch, tmp_path, capsys, check, route):
    cfg = tmp_path / "one.ini"
    cfg.write_text(f"[verify]\nchecks = {check}\ncount = 5\n")
    assert main(["verify", "--config", str(cfg)]) == 0
    capsys.readouterr()
    module, name, patch = _NAN_ROUTES[check, route]
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    assert main(["verify", "--config", str(cfg)]) == 1
    lines = capsys.readouterr().out.splitlines()
    if (check, route) == ("symplectic", "code"):
        assert lines[1] == (
            "[FAIL] symplectic: raised ValueError: squeeze 2-mode element 1 fails the group check "
            "at tolerance 1.0e-10: residual nan, determinant nan"
        )
    else:
        assert lines[1].startswith(f"[FAIL] {check}: max residual nan (tol ")
    assert lines[-1] == "verify: FAILED"
