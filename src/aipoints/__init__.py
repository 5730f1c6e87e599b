"""Affine invariant points of planar convex bodies.

Numerically constructs the family of points obtained by averaging phi(v) over
the volume-preserving affine group against powers of the overlap weight
F_K(L)(phi) = area(phi^{-1}(L) ∩ K), alongside classical reference rules
(centroid, John-ellipse center), symmetry detection, and a CLI.
"""

__version__ = "0.1.0"

from .classical import john_center, john_ellipse
from .errors import (AipointsError, AnchorOutsideFixedSet, BodyFormatError,
                     ConfigError, ConvergenceFailure, DegenerateBody,
                     DegenerateWeights, InvalidRadius, QuadratureFailure,
                     SingularMap, TruncationTooSmall)
from .estimator import (SWEEP_CSV_HEADER, EstimatorConfig, PointEstimate,
                        SweepRow, convergence_sweep, estimate_record,
                        estimate_tk, estimate_tk_unit, power_ratio_limit)
from .geometry import (ConvexPolygon, apply_affine, batch_intersection_area,
                       canonicalize, hausdorff_distance, intersection_area,
                       load_polygon, normalize_to_unit_area,
                       polygon_from_dict, polygon_to_dict)
from .haar import (InvarianceResult, haar_density_cartan, invariance_check,
                   sample_sl2pm, sample_translation, smoothed_ball_indicator,
                   truncated_cdf, truncated_mass)
from .symmetry import (FixedSet, SymmetryReport, automorphism_group,
                       fixed_points, report_to_dict)
from .unimodular import (SingularPair, UnimodularMap,
                         VolumePreservingAffineMap, batch_operator_norm,
                         compose, fractional_polar_factor, in_ball,
                         polar_decompose, singular_values)
from .weightfn import (WeightContext, evaluate_weight, evaluate_weights_batch,
                       slab_envelope, translation_support_radius,
                       weight_context)
