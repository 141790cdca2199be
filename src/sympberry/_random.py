"""Seeded random draws shared by ``sympberry verify`` and the test suite.

Each helper consumes its generator in a fixed order, so one seed gives the
same draws wherever it is used. A stacked helper takes all its entries from
one ``Generator.uniform`` call, which fills them in C order through the same
routine as one call per draw: its k draws, and the generator's state after
them, are bit for bit those of k calls of its count = 1 case (NOTES.md).
"""
from __future__ import annotations

import numpy as np

from . import symplectic_core
from .sp4_closed_form import Sp4Generator
from .symplectic_core import SympMatrix


def symmetric_part(X: np.ndarray) -> np.ndarray:
    """(X + X^T) / 2 of a matrix, or of each matrix in a stack."""
    return (X + X.swapaxes(-1, -2)) / 2.0


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Symmetric n x n matrix: the symmetric part of uniform(-scale, scale) entries."""
    return symmetric_part(rng.uniform(-scale, scale, size=(n, n)))


def random_generators(rng: np.random.Generator, count: int, scale: float = 1.0) -> list[Sp4Generator]:
    """Sp(4, R) generators with symmetric a, c and a general b block, each drawing a, b, c in turn."""
    X = rng.uniform(-scale, scale, size=(count, 3, 2, 2))
    a, b, c = symmetric_part(X[:, 0]), X[:, 1], symmetric_part(X[:, 2])
    return [Sp4Generator(a=a[i], b=b[i], c=c[i]) for i in range(count)]


def random_generator(rng: np.random.Generator, scale: float = 1.0) -> Sp4Generator:
    """One random_generators draw."""
    return random_generators(rng, 1, scale)[0]


SYMPLECTIC_SCALE = 0.6  # entry bound of random_symplectic's symmetric generator


def random_symplectics(
    rng: np.random.Generator, n: int, count: int, scale: float = SYMPLECTIC_SCALE
) -> list[SympMatrix]:
    """exp(omega L) of bounded symmetric Ls, by one _expm of the stack: always group elements.

    numpy only, like the stacked exponentials of ``sympberry verify``; exp_map would load scipy."""
    L = symmetric_part(rng.uniform(-scale, scale, size=(count, 2 * n, 2 * n)))
    return [SympMatrix(n, M) for M in symplectic_core._expm(symplectic_core.omega(n) @ L)]


def random_symplectic(rng: np.random.Generator, n: int, scale: float = SYMPLECTIC_SCALE) -> SympMatrix:
    """One random_symplectics draw."""
    return random_symplectics(rng, n, 1, scale)[0]
