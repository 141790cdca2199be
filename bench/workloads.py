"""Seeded inputs, operations and result checks of the benchmark workloads.

Each workload turns a seed into a pool of cases (``build``) and runs one
case as one operation (``run``), which returns True when the result passes
its check. The library only ever sees the generated cases. Every call into
the library goes through the ``sympberry`` package attributes at call time,
so the traced run can wrap them.

Mode counts are balanced in blocks (each block is a seeded permutation of
the mode counts). The parameters that set the refinement depth of
``refined_loops`` sit on a fixed design, which the seed only jitters, so
that every seed asks for the same quadrature work and the latency
percentiles do not move with the seed.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
from typing import Callable, Sequence

import bench_env  # pins thread pools and finds src/; must precede numpy
import numpy as np

import sympberry as sb
import sympberry.cli  # noqa: F401  (binds sb.cli)

# ---------------------------------------------------------------------------
# sampling helpers


def _balanced(rng: np.random.Generator, values: Sequence[int], count: int) -> list[int]:
    """count entries cycling through values, each block in seeded order."""
    out: list[int] = []
    while len(out) < count:
        out.extend(values[i] for i in rng.permutation(len(values)))
    return out[:count]


# ---------------------------------------------------------------------------
# squeeze_circles


@dataclasses.dataclass(frozen=True)
class CircleCase:
    modes: int
    R: float
    hbar: float
    lengths: tuple[float, ...]
    reference: float


def circle_reference(modes: int, R: float) -> float:
    """Closed-form circle phase -modes * pi * sinh^2(R)."""
    return -modes * math.pi * math.sinh(R) ** 2


CIRCLE_POOL = 512


def build_circles(seed: int) -> list[CircleCase]:
    rng = np.random.default_rng([seed, 1])
    cases = []
    for modes in _balanced(rng, (1, 2), CIRCLE_POOL):
        R = float(rng.uniform(0.1, 2.5))
        hbar = float(rng.uniform(0.5, 2.0))
        lengths = tuple(float(x) for x in rng.uniform(0.3, 3.0, size=modes))
        cases.append(CircleCase(modes, R, hbar, lengths, circle_reference(modes, R)))
    return cases


def run_circle(case: CircleCase) -> bool:
    p = sb.OscParams(case.hbar, case.lengths)
    gamma = sb.integrate_phase(sb.squeeze_circle_path(case.modes, case.R, p), p).value
    return abs(gamma - case.reference) <= 1e-8 * max(1.0, abs(case.reference))


# ---------------------------------------------------------------------------
# refined_loops


@dataclasses.dataclass(frozen=True)
class LoopCase:
    """M(t) = S0 exp_map(L(phi(t))) with L block-diagonal one-mode squeezes.

    Mode j is squeezed by R[j] at angle 2 pi windings[j] phi(t), and
    phi(t) = t + atan2(kappa sin 2 pi t, 1 - kappa cos 2 pi t) / pi is a
    monotone reparametrization of [0, 1] for kappa < 1.
    """

    n: int
    R: np.ndarray
    hbar: float
    lengths: tuple[float, ...]
    windings: np.ndarray
    kappa: float
    S0: sb.SympMatrix
    reference: float


LOOP_MODES = (1, 2, 4)
# Case k of each mode count has kappa near LOOP_KAPPA[k], and its mode j has
# R near LOOP_R[(k + j) % 4] and |w| = 1 + (k + j) % 2. The kappa levels sit
# inside plateaus of the refinement depth (165, 225, 225 and 285 evaluations
# for one mode), so the seeded jitter rarely changes the number of panels.
LOOP_KAPPA = (0.35, 0.5, 0.6, 0.66)
LOOP_KAPPA_JITTER = 0.01
LOOP_R = (0.3, 0.5, 0.7, 0.9)
LOOP_R_JITTER = 0.05


def loop_reference(windings: np.ndarray, R: np.ndarray) -> float:
    """-pi sum_j w_j sinh^2(R_j).

    Left translation by S0 and the monotone reparametrization leave the
    phase unchanged, and uncoupled modes add, so each mode contributes its
    circle phase once per winding.
    """
    return float(-math.pi * np.sum(windings * np.sinh(R) ** 2))


def loop_scale(windings: np.ndarray, R: np.ndarray) -> float:
    """pi sum_j |w_j| sinh^2(R_j): the reference with every term counted positive.

    The finite-difference error is set by each mode's own phase, not by the
    net sum, whose terms of opposite winding can cancel.
    """
    return float(math.pi * np.sum(np.abs(windings) * np.sinh(R) ** 2))


def build_loops(seed: int) -> list[LoopCase]:
    rng = np.random.default_rng([seed, 2])
    per_group = len(LOOP_KAPPA)
    groups = {}
    for n in LOOP_MODES:
        group = []
        for k in range(per_group):
            levels = [(k + j) % len(LOOP_R) for j in range(n)]
            R = np.array([LOOP_R[i] for i in levels]) + rng.uniform(-LOOP_R_JITTER, LOOP_R_JITTER, n)
            windings = (1 + np.array(levels) % 2) * rng.choice((-1, 1), size=n)
            kappa = LOOP_KAPPA[k] + rng.uniform(-LOOP_KAPPA_JITTER, LOOP_KAPPA_JITTER)
            X = rng.uniform(-0.3, 0.3, size=(2 * n, 2 * n))
            S0 = sb.exp_map(sb.LieAlgElement(n, (X + X.T) / 2.0))
            group.append(
                LoopCase(
                    n=n,
                    R=R,
                    hbar=float(rng.uniform(0.5, 2.0)),
                    lengths=tuple(float(x) for x in rng.uniform(0.3, 3.0, size=n)),
                    windings=windings,
                    kappa=float(kappa),
                    S0=S0,
                    reference=loop_reference(windings, R),
                )
            )
        groups[n] = iter(group)
    return [next(groups[n]) for n in _balanced(rng, LOOP_MODES, per_group * len(LOOP_MODES))]


def loop_phi(case: LoopCase, t: float) -> float:
    theta = 2.0 * math.pi * t
    k = case.kappa
    return t + math.atan2(k * math.sin(theta), 1.0 - k * math.cos(theta)) / math.pi


def loop_generator(case: LoopCase, phi: float) -> np.ndarray:
    """L(phi) in grouped ordering: the squeeze_lie_n1 form in each mode."""
    n = case.n
    theta = 2.0 * math.pi * case.windings * phi
    l2 = np.asarray(case.lengths) ** 2
    rs, rc = case.R * np.sin(theta), case.R * np.cos(theta)
    idx = np.arange(n)
    L = np.zeros((2 * n, 2 * n))
    L[idx, idx] = (case.hbar / l2) * rs
    L[idx, n + idx] = -rc
    L[n + idx, idx] = -rc
    L[n + idx, n + idx] = -(l2 / case.hbar) * rs
    return L


def loop_path(case: LoopCase) -> sb.SympPath:
    def eval_loop(t: float) -> sb.SympMatrix:
        L = sb.LieAlgElement(case.n, loop_generator(case, loop_phi(case, t)))
        return case.S0 @ sb.exp_map(L)

    return sb.SympPath(n=case.n, eval=eval_loop, tangent=None, closed=True)


def run_loop(case: LoopCase) -> bool:
    gamma = sb.integrate_phase(loop_path(case), sb.OscParams(case.hbar, case.lengths)).value
    return abs(gamma - case.reference) <= 1e-6 * loop_scale(case.windings, case.R)


# ---------------------------------------------------------------------------
# oracle_verify

VERIFY_POOL = 512
VERIFY_COUNT = 20
VERIFY_CHECKS = ("closed_form", "coefficients", "symplectic", "overlap")


@dataclasses.dataclass(frozen=True)
class VerifyCase:
    seed: int
    config: str


def build_verify(seed: int) -> list[VerifyCase]:
    """Seeds for `sympberry verify`, plus the config file it reads."""
    os.makedirs(bench_env.OUT_DIR, exist_ok=True)
    config = os.path.join(bench_env.OUT_DIR, "verify.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"[verify]\nchecks = {', '.join(VERIFY_CHECKS)}\ncount = {VERIFY_COUNT}\n")
    rng = np.random.default_rng([seed, 3])
    return [VerifyCase(int(s), config) for s in rng.integers(0, 2**31 - 1, size=VERIFY_POOL)]


def run_verify(case: VerifyCase) -> bool:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sb.cli.main(["verify", "--seed", str(case.seed), "--config", case.config])
    lines = out.getvalue().splitlines()
    return (
        code == 0
        and not any(line.startswith("[FAIL]") for line in lines)
        and sum(line.startswith("[PASS]") for line in lines) == len(VERIFY_CHECKS)
    )


# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]
    run: Callable[[object], bool]
    trace_ops: int  # cases in the traced pass: the first ones of the pool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("squeeze_circles", build_circles, run_circle, trace_ops=256),
        Workload("refined_loops", build_loops, run_loop, trace_ops=6),
        Workload("oracle_verify", build_verify, run_verify, trace_ops=24),
    )
}
