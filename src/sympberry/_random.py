"""Seeded random draws shared by ``sympberry verify`` and the test suite.

Each helper consumes its generator in a fixed order, so one seed gives the
same draws wherever it is used.
"""
from __future__ import annotations

import numpy as np

from . import symplectic_core
from .sp4_closed_form import Sp4Generator
from .symplectic_core import SympMatrix


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


SYMPLECTIC_SCALE = 0.6  # entry bound of random_symplectic's symmetric generator


def random_symplectic(rng: np.random.Generator, n: int, scale: float = SYMPLECTIC_SCALE) -> SympMatrix:
    """exp(omega L) of a bounded symmetric L, by _expm on a stack of one: always a group element.

    numpy only, like the stacked exponentials of ``sympberry verify``; exp_map would load scipy."""
    H = symplectic_core.omega(n) @ random_symmetric(rng, 2 * n, scale)
    return SympMatrix(n, symplectic_core._expm(H[None])[0])
