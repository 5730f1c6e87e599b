"""Haar sampling on SL(2)+- truncated to operator-norm balls.

Cartan (K A K) coordinates: M = R(theta1) diag(e^t, e^-t) R(theta2), t >= 0,
optionally right-multiplied by diag(1, -1) to reach the det = -1 component.
The radial Haar density is sinh(2t); both angles are uniform and the
reflection is a fair coin.  Truncation to S_R restricts t to [0, log R] and
the total mass of S_R is fixed to the sinh integral, so the proposal equals
the truncated target and the base importance weight is that constant mass.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidRadius

__all__ = [
    "truncated_mass",
    "sample_sl2pm",
]


def truncated_mass(radius: float) -> float:
    """integral of sinh(2t) over [0, log R]: the mass assigned to S_R."""
    if radius < 1.0:
        raise InvalidRadius(f"truncation radius must be >= 1, got {radius}")
    return float(0.5 * (np.cosh(2.0 * np.log(radius)) - 1.0))


def _sample_cartan(radius: float, rng: np.random.Generator, n: int):
    """Vectorized Cartan draws: (theta1, t, theta2, reflect) arrays.

    Inverse-CDF in t; the rng call order (theta1, t, theta2, reflect) is part
    of the determinism contract.
    """
    if radius <= 1.0:
        raise InvalidRadius(f"sampling needs truncation radius > 1, got {radius}")
    span = np.cosh(2.0 * np.log(radius)) - 1.0
    theta1 = rng.random(n) * (2.0 * np.pi)
    t = 0.5 * np.arccosh(1.0 + rng.random(n) * span)
    theta2 = rng.random(n) * (2.0 * np.pi)
    reflect = rng.random(n) < 0.5
    return theta1, t, theta2, reflect


def _decode_cartan(theta1, t, theta2, reflect):
    """Matrices for a batch of Cartan coordinates: |det M| = 1 to about
    0.5 R^2 eps, and det M < 0 on the reflected draws up to
    estimator.MAX_RADIUS."""
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    et, em = np.exp(t), np.exp(-t)
    m = np.empty(t.shape + (2, 2))
    m[..., 0, 0] = c1 * c2 * et - s1 * s2 * em
    m[..., 0, 1] = -c1 * s2 * et - s1 * c2 * em
    m[..., 1, 0] = s1 * c2 * et + c1 * s2 * em
    m[..., 1, 1] = -s1 * s2 * et + c1 * c2 * em
    m[..., :, 1] = np.where(reflect[..., None], -m[..., :, 1], m[..., :, 1])
    return m


def sample_sl2pm(radius: float, rng: np.random.Generator) -> np.ndarray:
    """One Haar draw from S_R in SL(2)+-.

    The proposal equals the truncated target, so every draw carries the
    same base weight, truncated_mass(radius).
    """
    return _decode_cartan(*_sample_cartan(radius, rng, 1))[0]


def _sample_disk(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform draws from the unit disk; call order (radius, angle) is fixed."""
    r = np.sqrt(rng.random(n))
    ang = rng.random(n) * (2.0 * np.pi)
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
