"""Numerical laboratory for symmetric matrix Schroedinger operators.

The operator div(Q grad f) - V f acts on R^m-valued functions; here it is
discretized on a truncated box with zero boundary values.  The package
assembles the associated energy form and sparse operator, computes low
spectra, propagates the semigroup e^{-tB}, and verifies the structural
properties the continuous theory predicts: form axioms, unit-ball projection
contraction, mixed-norm contraction of the semigroup, the positivity
dichotomy driven by the sign of the off-diagonal coupling, eigenvalue
bracketing by scalar comparison operators, and the exact spectral merge of
coupled identical copies.
"""
from .errors import (
    ConfigError,
    ConvergenceError,
    EllipticityError,
    EllipticityWarning,
    GridMismatchError,
    QuadratureError,
)
from .grid import (
    DiffusionField,
    GridSpec,
    PotentialField,
    VectorState,
    axis_differences,
    build_grid,
    mixed_norm,
    sample_fields,
    smooth_bump_profile,
    smooth_bump_slope,
)
from .form import (
    FormAssembly,
    assemble_form,
    edge_jump_norms,
    eval_form,
    form_norm,
    form_norms,
    form_terms,
)
from .operators import (
    SandwichReport,
    SpectrumReport,
    SymmetricOperator,
    assemble_operator,
    eigen_lowest,
    pointwise_extremal_eigs,
    sandwich_check,
)
from .semigroup import (
    ProbeReport,
    PropagatorConfig,
    contraction_probe,
    default_config,
    positivity_probe,
    propagate,
    strong_continuity_probe,
    violation_witness,
)
from .gallery import (
    GALLERY,
    GalleryProblem,
    MergeReport,
    antisymmetric_continuity,
    antisymmetric_continuity_demo,
    build_problem,
    complete_graph_laplacian,
    coupled_confining,
    coupling_eigenbasis,
    degenerate_counterexample,
    expected_record,
    harmonic_oscillator,
    list_gallery,
    spectrum_merge_check,
    validate_expected,
)
from .checks import CHECKS, CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "EllipticityError",
    "EllipticityWarning",
    "GridMismatchError",
    "QuadratureError",
    "DiffusionField",
    "GridSpec",
    "PotentialField",
    "VectorState",
    "axis_differences",
    "build_grid",
    "mixed_norm",
    "sample_fields",
    "smooth_bump_profile",
    "smooth_bump_slope",
    "FormAssembly",
    "assemble_form",
    "edge_jump_norms",
    "eval_form",
    "form_norm",
    "form_norms",
    "form_terms",
    "SandwichReport",
    "SpectrumReport",
    "SymmetricOperator",
    "assemble_operator",
    "eigen_lowest",
    "pointwise_extremal_eigs",
    "sandwich_check",
    "ProbeReport",
    "PropagatorConfig",
    "contraction_probe",
    "default_config",
    "positivity_probe",
    "propagate",
    "strong_continuity_probe",
    "violation_witness",
    "GALLERY",
    "GalleryProblem",
    "MergeReport",
    "antisymmetric_continuity",
    "antisymmetric_continuity_demo",
    "build_problem",
    "complete_graph_laplacian",
    "coupled_confining",
    "coupling_eigenbasis",
    "degenerate_counterexample",
    "expected_record",
    "harmonic_oscillator",
    "list_gallery",
    "spectrum_merge_check",
    "validate_expected",
    "CHECKS",
    "CheckResult",
    "run_checks",
]
