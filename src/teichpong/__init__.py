"""Quantitative ping-pong on the modular torus.

The model space is the upper half-plane with half the standard hyperbolic
metric; mapping classes are projective integer matrices of determinant one.
The package computes axes, nearest-point projections, divergence profiles,
the projection contraction and quasi-geodesic stability constants, the
half-space ping-pong tables with both a literal factorial-sized power bound
and a certified practical one, and independently cross-checks free
generation by exact enumeration of reduced words.
"""

from .errors import (CertificateInvalidError, ClassificationError,
                     ConstantDerivationError, DegenerateInputError,
                     DichotomyViolationError, FViolationError,
                     HorizonExceededError, InvalidInputError,
                     NotIndependentError, OracleRefusedError, TeichpongError)
from .hyp2 import (BoundaryPoint, Geodesic, Mobius, Point, dist,
                   dist_to_geodesic, geodesic_through, project, transport)
from .mcg import (AxisData, Classification, MappingClass, axis, classify,
                  fixed_slope_test, independent, min_translation,
                  translation_distance)
from .oracle import WordReport, count_reduced_words, cross_validate, free_check
from .pingpong import (PaperConstants, PingPongCertificate, PiSet,
                       build_certificate, certified_radius, paper_constants,
                       paper_radius_bound, pi_membership, power_bound,
                       sample_box_points, verify_pingpong)
from .projection import (ModelConstants, PairGeometry, Thresholds,
                         common_perpendicular_distance, derive_contraction_b,
                         derive_morse, divergence_profile,
                         fast_divergence_thresholds, model_constants,
                         pair_geometry, profile_csv, projection_interval,
                         touching_ball_projection_diameter)
from .torus_model import (Slope, ThickParams, curve_length,
                          default_thick_params, derive_thick_params,
                          extremal_length, intersection_number, kerckhoff_dist,
                          marking, short_curve_bound, short_curves, systole,
                          is_thick, teich_dist, transform_slope, wolpert_check)

__version__ = "0.1.0"
