"""Quantitative ping-pong on the modular torus.

The model space is the upper half-plane with half the standard hyperbolic
metric; mapping classes are projective integer matrices of determinant one.
The package computes axes, nearest-point projections, divergence profiles,
the projection contraction and quasi-geodesic stability constants, the
half-space ping-pong tables with both a literal factorial-sized power bound
and a certified practical one, and independently cross-checks free
generation by exact enumeration of reduced words.

The exports below and the submodules load on first use, so importing the
package loads none of them.  The package needs nothing beyond the
standard library.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CertificateInvalidError ClassificationError ConstantDerivationError "
               "DegenerateInputError DichotomyViolationError FViolationError "
               "HorizonExceededError InvalidInputError NotIndependentError "
               "OracleRefusedError TeichpongError"),
    "hyp2": "BoundaryPoint Geodesic Mobius Point dist dist_to_geodesic",
    "mcg": ("AxisData Classification MappingClass axis classify fixed_slope_test "
            "independent min_translation translation_distance"),
    "oracle": "WordReport count_reduced_words cross_validate free_check",
    "pingpong": ("PaperConstants PingPongCertificate build_certificate paper_constants "
                 "paper_radius_bound power_bound verify_pingpong"),
    "projection": ("ModelConstants PairGeometry Thresholds common_perpendicular_distance "
                   "derive_contraction_b derive_morse divergence_profile "
                   "fast_divergence_thresholds model_constants pair_geometry profile_csv"),
    "torus_model": ("Slope ThickParams curve_length default_thick_params "
                    "derive_thick_params kerckhoff_dist marking short_curve_bound "
                    "short_curves systole teich_dist wolpert_check"),
}
#: the module that defines each export
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = ("cache", "cli", "errors", "hyp2", "mcg", "oracle", "pingpong",
               "projection", "serialize", "torus_model")

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
