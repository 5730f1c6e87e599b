"""Exception types shared across the package."""


class AipointsError(Exception):
    """Base class for all package-specific errors."""


class BodyFormatError(AipointsError):
    """Polygon file or payload does not match the wire format."""


class DegenerateBody(AipointsError):
    """Input points do not span a convex body with positive area."""


class SingularMap(AipointsError):
    """Affine map with (numerically) vanishing determinant."""


class InvalidRadius(AipointsError):
    """Ball radius below 1; the unit ball of the operator norm is the minimum."""


class DegenerateWeights(AipointsError):
    """Too few Monte Carlo samples hit the weight support to form an estimate."""


class ConfigError(AipointsError):
    """Estimator configuration outside its legal range."""


class ConvergenceFailure(AipointsError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class AnchorOutsideFixedSet(AipointsError):
    """Anchor point is not fixed by the body's affine automorphism group."""
