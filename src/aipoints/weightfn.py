"""The kernel weight F_K(L)(phi) = area(phi^{-1}(L) ∩ K) and its envelopes.

For unit-area bodies the weight lives in [0, 1], equals 1 at the identity
when L = K, vanishes once the translation outruns the support radius, and is
crushed by the slab envelope ~ lambda2(M) as the linear part stretches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConvexPolygon, batch_intersection_area
from .unimodular import singular_values

__all__ = [
    "WeightContext",
    "weight_context",
    "evaluate_weights_batch",
    "translation_support_radius",
    "slab_envelope",
]

_UNIT_AREA_TOL = 1e-9


@dataclass(frozen=True)
class WeightContext:
    """Precomputed data for evaluating F_K(L): the bodies plus their
    circumscribed radii about the origin."""

    K: ConvexPolygon
    L: ConvexPolygon
    R_K: float
    R_L: float


def weight_context(K: ConvexPolygon, L: ConvexPolygon) -> WeightContext:
    """Build a WeightContext; both bodies must have unit area (1e-9)."""
    for name, body in (("K", K), ("L", L)):
        if abs(body.area - 1.0) > _UNIT_AREA_TOL:
            raise ValueError(f"{name} must have unit area, got {body.area!r}")
    return WeightContext(
        K=K, L=L,
        R_K=float(np.linalg.norm(K.vertices, axis=1).max()),
        R_L=float(np.linalg.norm(L.vertices, axis=1).max()),
    )


def evaluate_weights_batch(ctx: WeightContext, mats: np.ndarray,
                           xs: np.ndarray) -> np.ndarray:
    """Weights for a batch of maps phi_i = (M_i, x_i) with |det M_i| = 1:
    phi^{-1}(L) = M^{-1}(L - x), with M^{-1} = sign(det M) adj(M)."""
    a, b = mats[:, 0, 0, None], mats[:, 0, 1, None]
    c, d = mats[:, 1, 0, None], mats[:, 1, 1, None]
    s = np.where(a * d - b * c < 0.0, -1.0, 1.0)
    rx = ctx.L.vertices[:, 0] - xs[:, 0, None]
    ry = ctx.L.vertices[:, 1] - xs[:, 1, None]
    subjects = np.stack([s * (d * rx - b * ry), s * (a * ry - c * rx)], axis=-1)
    return np.minimum(batch_intersection_area(subjects, ctx.K), 1.0)


def translation_support_radius(ctx: WeightContext, m) -> float:
    """A radius rho(M) with F_K(L)((M, x)) = 0 whenever |x| > rho(M).

    Any overlap needs x = l - M y with l in L, y in K, so |x| is at most
    R_L + lambda1(M) R_K; the returned lambda1(M) (R_K + R_L) is the safe
    common envelope (lambda1 >= 1).  The estimator builds ctx from K and L
    moved to centroid 0 and draws x uniformly on exactly this disk.
    """
    lam1 = singular_values(m).lam1
    return float(lam1 * (ctx.R_K + ctx.R_L))


def slab_envelope(ctx: WeightContext, m) -> float:
    """Upper bound c * lambda2(M) on sup_x F_K(L)((M, x)), clamped at 1.

    Both bodies sit in r B^2 with r = max(R_K, R_L); the intersection of a
    disk with any unimodular image of a disk has area at most
    2 * lambda2 * |B^1|, which scales to c = 2 * (2 r) * r.
    """
    lam2 = singular_values(m).lam2
    r = max(ctx.R_K, ctx.R_L)
    return float(min(1.0, 4.0 * r * r * lam2))
