"""Finite-dimensional operator realizations of equivariant fuzzy hyperspheres."""

from .basis import BasisMap, FuzzyConfig, dimension, enumerate_chains, level_dimension
from .coefficients import centrifugal_coeff, ladder_coeffs, radial_weight, reduced_element, updown_weights
from .convergence import k_schedule, product_convergence_diagnostic, x_convergence_diagnostic
from .harmonics import (
    HarmonicPolynomial,
    approximate_function,
    build_fuzzy_harmonic,
    harmonic_basis,
    multiply_harmonics,
    position_matrix_elements,
    sphere_integral,
    verify_harmonics,
)
from .operators import (
    SparseOperator,
    VerificationReport,
    build_angular_momentum,
    build_casimir,
    build_position,
    build_projector,
    verify_algebra,
)
from .radial import radial_overlap, radial_params, radial_wavefunction
from .realization import dressing_sequence, level_operator, realize_position, verify_isomorphism

__version__ = "0.1.0"

__all__ = [
    "BasisMap",
    "FuzzyConfig",
    "HarmonicPolynomial",
    "SparseOperator",
    "VerificationReport",
    "approximate_function",
    "build_angular_momentum",
    "build_casimir",
    "build_fuzzy_harmonic",
    "build_position",
    "build_projector",
    "centrifugal_coeff",
    "dimension",
    "dressing_sequence",
    "enumerate_chains",
    "harmonic_basis",
    "k_schedule",
    "ladder_coeffs",
    "level_dimension",
    "level_operator",
    "multiply_harmonics",
    "position_matrix_elements",
    "product_convergence_diagnostic",
    "radial_overlap",
    "radial_params",
    "radial_wavefunction",
    "radial_weight",
    "realize_position",
    "reduced_element",
    "sphere_integral",
    "updown_weights",
    "verify_algebra",
    "verify_harmonics",
    "verify_isomorphism",
    "x_convergence_diagnostic",
]
