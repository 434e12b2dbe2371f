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

The public names below are imported from their submodules on first use
(PEP 562), so ``import matschrod`` itself loads no submodule.
"""
import importlib

__version__ = "0.1.0"

#: each public name and the submodule that defines it
_SUBMODULE = {
    **dict.fromkeys(
        [
            "ConfigError", "ConvergenceError", "EllipticityError", "GridMismatchError",
            "QuadratureError",
        ],
        "errors",
    ),
    **dict.fromkeys(
        [
            "DiffusionField", "GridSpec", "PotentialField", "VectorState", "axis_differences",
            "build_grid", "mixed_norm", "sample_fields", "smooth_bump_profile", "smooth_bump_slope",
        ],
        "grid",
    ),
    **dict.fromkeys(
        [
            "FormAssembly", "assemble_form", "edge_jump_norms", "eval_form", "form_norm",
            "form_norms", "form_terms",
        ],
        "form",
    ),
    **dict.fromkeys(
        [
            "SandwichReport", "SpectrumReport", "SymmetricOperator", "assemble_operator",
            "eigen_lowest", "pointwise_extremal_eigs", "sandwich_check",
        ],
        "operators",
    ),
    **dict.fromkeys(
        [
            "ProbeReport", "PropagatorConfig", "contraction_probe", "default_config",
            "positivity_probe", "propagate", "strong_continuity_probe", "violation_witness",
        ],
        "semigroup",
    ),
    **dict.fromkeys(
        [
            "GALLERY", "GalleryProblem", "MergeReport", "antisymmetric_continuity",
            "antisymmetric_continuity_demo", "build_problem", "complete_graph_laplacian",
            "coupled_confining", "coupling_eigenbasis", "degenerate_counterexample",
            "expected_record", "harmonic_oscillator", "list_gallery", "spectrum_merge_check",
            "validate_expected",
        ],
        "gallery",
    ),
    **dict.fromkeys(["CHECKS", "CheckResult", "run_checks"], "checks"),
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    """Import the submodule that defines a public ``name``, and return it from there."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
