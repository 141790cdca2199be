"""Geometric phases of Gaussian states along symplectic paths.

Numerical library for n-mode Gaussian states labelled by symplectic
matrices: group/algebra utilities, a closed-form 4x4 exponential with a
degeneracy fallback, covariance and displacement-amplitude constructions, a
one-mode integral-kernel overlap oracle, Berry-phase line integrals, and
ready-made squeeze-circle paths with known reference phases. The ``sympberry``
command-line tool fronts the same machinery.

A public name is declared only in its module's ``__all__``; this package
re-exports every one of them.
"""
from . import (
    _quadrature, gaussian_states, geometric_phase, sp4_closed_form, squeeze_paths, symplectic_core,
)
from ._quadrature import *
from .gaussian_states import *
from .geometric_phase import *
from .sp4_closed_form import *
from .squeeze_paths import *
from .symplectic_core import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *symplectic_core.__all__,
    *sp4_closed_form.__all__,
    *gaussian_states.__all__,
    *geometric_phase.__all__,
    *squeeze_paths.__all__,
    *_quadrature.__all__,
]
