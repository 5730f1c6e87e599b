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
    # R(theta1) diag(e^t, e^-t) = [[c1 e^t, -s1 e^-t], [s1 e^t, c1 e^-t]]
    c1et, s1et, s1em, c1em = c1 * et, s1 * et, s1 * em, c1 * em
    flip = np.where(reflect, -1.0, 1.0)     # diag(1, -1) on the right
    m = np.empty(t.shape + (2, 2))
    m[..., 0, 0] = c1et * c2 - s1em * s2
    m[..., 0, 1] = flip * (-c1et * s2 - s1em * c2)
    m[..., 1, 0] = s1et * c2 + c1em * s2
    m[..., 1, 1] = flip * (c1em * c2 - s1et * s2)
    return m


def sample_sl2pm(radius: float, rng: np.random.Generator) -> np.ndarray:
    """One Haar draw from S_R in SL(2)+-.

    The proposal equals the truncated target, so every draw carries the
    same base weight, truncated_mass(radius).
    """
    return _decode_cartan(*_sample_cartan(radius, rng, 1))[0]


def _sample_disk(rng: np.random.Generator,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draws from the unit disk in polar form: (r, angle) arrays,
    the point being (r cos(angle), r sin(angle)).  Call order (radius,
    angle) is fixed.  Polar draws let the estimator test a draw against the
    weight's support with at most one cos/sin pair and form x only for the
    draws that pass."""
    r = np.sqrt(rng.random(n))
    ang = rng.random(n) * (2.0 * np.pi)
    return r, ang
