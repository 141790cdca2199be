"""Geometric phases of Gaussian states along symplectic paths.

Numerical library for n-mode Gaussian states labelled by symplectic
matrices: group/algebra utilities, a closed-form 4x4 exponential with a
degeneracy fallback, covariance and displacement-amplitude constructions, a
one-mode integral-kernel overlap oracle, Berry-phase line integrals, and
ready-made squeeze-circle paths with known reference phases. The ``sympberry``
command-line tool fronts the same machinery.
"""
from ._quadrature import (
    QuadratureBudgetExceeded,
    adaptive_gauss_kronrod,
    fixed_gauss_kronrod,
    tanh_sinh_nodes,
)
from .gaussian_states import (
    DIMENSION_FULL,
    QUADRATURE,
    CovarianceMatrix,
    OscParams,
    OverlapGrid,
    SingularB,
    covariance,
    covariance_quadrature,
    lambda_matrix,
    numeric_overlap_n1,
    weyl_amplitude,
)
from .geometric_phase import (
    ADAPTIVE,
    FIXED,
    NonFiniteIntegrand,
    NotBZeroForm,
    PhaseResult,
    QuadSpec,
    SympPath,
    check_canonical_invariance,
    connection_integrand,
    integrate_phase,
    integrate_phase_boundary_form,
    phase_b_zero,
    polygon_phase,
)
from .sp4_closed_form import (
    BRANCH_CLOSED_FORM,
    BRANCH_FALLBACK,
    DegenerateEigenvalues,
    SeriesCoefficients,
    Sp4Generator,
    closed_form_exp,
    coeff_closed,
    coeff_recurrence,
    eigenvalues,
    s_matrix,
    series_coefficients,
    squeeze_block_exp,
)
from .squeeze_paths import (
    SqueezeSpec,
    reference_phase,
    squeeze_b_block_n2,
    squeeze_circle_path,
    squeeze_lie_n1,
    squeeze_matrix_n1,
    squeeze_matrix_n2,
)
from .symplectic_core import (
    GROUPED,
    INTERLEAVED,
    BlockDecomposition,
    LieAlgElement,
    SympMatrix,
    block_decompose,
    convert_ordering,
    exp_map,
    gamma_permutation,
    is_symplectic,
    omega,
    omega_interleaved,
    symplectic_residual,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # symplectic_core
    "GROUPED",
    "INTERLEAVED",
    "BlockDecomposition",
    "LieAlgElement",
    "SympMatrix",
    "block_decompose",
    "convert_ordering",
    "exp_map",
    "gamma_permutation",
    "is_symplectic",
    "omega",
    "omega_interleaved",
    "symplectic_residual",
    # sp4_closed_form
    "BRANCH_CLOSED_FORM",
    "BRANCH_FALLBACK",
    "DegenerateEigenvalues",
    "SeriesCoefficients",
    "Sp4Generator",
    "closed_form_exp",
    "coeff_closed",
    "coeff_recurrence",
    "eigenvalues",
    "s_matrix",
    "series_coefficients",
    "squeeze_block_exp",
    # gaussian_states
    "DIMENSION_FULL",
    "QUADRATURE",
    "CovarianceMatrix",
    "OscParams",
    "OverlapGrid",
    "SingularB",
    "covariance",
    "covariance_quadrature",
    "lambda_matrix",
    "numeric_overlap_n1",
    "weyl_amplitude",
    # geometric_phase
    "ADAPTIVE",
    "FIXED",
    "NonFiniteIntegrand",
    "NotBZeroForm",
    "PhaseResult",
    "QuadSpec",
    "SympPath",
    "check_canonical_invariance",
    "connection_integrand",
    "integrate_phase",
    "integrate_phase_boundary_form",
    "phase_b_zero",
    "polygon_phase",
    # squeeze_paths
    "SqueezeSpec",
    "reference_phase",
    "squeeze_b_block_n2",
    "squeeze_circle_path",
    "squeeze_lie_n1",
    "squeeze_matrix_n1",
    "squeeze_matrix_n2",
    # quadrature
    "QuadratureBudgetExceeded",
    "adaptive_gauss_kronrod",
    "fixed_gauss_kronrod",
    "tanh_sinh_nodes",
]
