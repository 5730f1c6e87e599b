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
                     DegenerateWeights, InvalidRadius, SingularMap)
from .estimator import (SWEEP_CSV_HEADER, EstimatorConfig, PointEstimate,
                        SweepRow, convergence_sweep, estimate_record,
                        estimate_tk, estimate_tk_unit)
from .geometry import (ConvexPolygon, apply_affine, batch_intersection_area,
                       canonicalize, load_polygon, normalize_to_unit_area,
                       polygon_from_dict)
from .haar import sample_sl2pm, truncated_mass
from .symmetry import (FixedSet, SymmetryReport, automorphism_group,
                       fixed_points, report_to_dict)
from .unimodular import (SingularPair, VolumePreservingAffineMap,
                         singular_values)
from .weightfn import (WeightContext, evaluate_weights_batch, slab_envelope,
                       translation_support_radius, weight_context)
