"""Seeded random draws shared by ``sympberry verify`` and the test suite.

Each helper consumes its generator in a fixed order, so one seed gives the
same draws wherever it is used.
"""
from __future__ import annotations

import numpy as np

from . import symplectic_core
from .sp4_closed_form import Sp4Generator
from .symplectic_core import LieAlgElement, SympMatrix


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Symmetric n x n matrix: the symmetric part of uniform(-scale, scale) entries."""
    X = rng.uniform(-scale, scale, size=(n, n))
    return (X + X.T) / 2.0


def random_generator(rng: np.random.Generator, scale: float = 1.0) -> Sp4Generator:
    """Sp(4, R) generator with symmetric a, c and a general b block."""
    return Sp4Generator(
        a=random_symmetric(rng, 2, scale),
        b=rng.uniform(-scale, scale, size=(2, 2)),
        c=random_symmetric(rng, 2, scale),
    )


def random_symplectic(rng: np.random.Generator, n: int, scale: float = 0.6) -> SympMatrix:
    """exp_map of a bounded symmetric generator: always a valid group element."""
    # looked up on the module, so that bench/tracing.py, which wraps the
    # exp_map each library module binds, counts these calls too
    return symplectic_core.exp_map(LieAlgElement(n, random_symmetric(rng, 2 * n, scale)))
