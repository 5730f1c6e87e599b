"""Classical affine invariant point rules used as ground truth: the centroid
and the center of the maximum-area inscribed (John) ellipse.

The John ellipse {c + A u : |u| <= 1} maximizes log det A over SPD A subject
to every edge half-plane n.x <= b satisfying |A n| <= s = b - n.c.  The solver
is an interior ascent in theta = (a, b, d, c_x, c_y), A = [[a, b], [b, d]]:
damped Newton on log det A + mu * sum(log phi_i) with phi_i = s_i^2 - |A n_i|^2,
whose log is the barrier of the second-order cone |A n_i| <= s_i (Boyd &
Vandenberghe, Convex Optimization, 11.6), warm-started down a mu ladder,
with backtracking that stays in the domain and a global iteration cap of 10^4.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure
from .geometry import ConvexPolygon

__all__ = ["john_center", "john_ellipse"]

_MAX_ITER = 10_000
_MU_LADDER = tuple(10.0 ** (-e) for e in range(10))  # 1 ... 1e-9
_LORENTZ = np.array([1.0, -1.0, -1.0])               # phi = z.J z, J = diag(1, -1, -1)


def _cones(poly: ConvexPolygon) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge affine maps z_i = (s_i, A n_i) = z0_i + D_i theta, with unit
    outward normals n_i and offsets b_i (n_i.x <= b_i on the body): the (E, 3)
    constants z0 and the (E, 3, 5) matrices D."""
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    nx, ny = np.stack([e[:, 1], -e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])
    zero = np.zeros_like(nx)
    offsets = nx * v[:, 0] + ny * v[:, 1]
    z0 = np.stack([offsets, zero, zero], axis=1)
    maps = np.stack([[zero, zero, zero, -nx, -ny],
                     [nx, ny, zero, zero, zero],
                     [zero, nx, ny, zero, zero]]).transpose(2, 0, 1)
    return z0, maps


def _objective(theta: np.ndarray, z0, maps, mu: float) -> float:
    """log det A + mu * sum(log phi_i); -inf outside the domain (a <= 0,
    det A <= 0, or some s_i <= 0 or phi_i <= 0)."""
    a, b, d = theta[:3]
    det = a * d - b * b
    z = z0 + maps @ theta
    phi = (z * z) @ _LORENTZ
    if a <= 0.0 or det <= 0.0 or np.any(z[:, 0] <= 0.0) or np.any(phi <= 0.0):
        return -np.inf
    return float(np.log(det) + mu * np.sum(np.log(phi)))


def _grad_hess(theta: np.ndarray, z0, maps, mu: float):
    a, b, d = theta[:3]
    det = a * d - b * b
    z = z0 + maps @ theta
    phi = (z * z) @ _LORENTZ

    grad = np.zeros(5)
    hess = np.zeros((5, 5))
    grad[:3] = np.array([d, -2.0 * b, a]) / det
    hess[:3, :3] = np.array([
        [-d * d, 2.0 * b * d, -b * b],
        [2.0 * b * d, -2.0 * det - 4.0 * b * b, 2.0 * a * b],
        [-b * b, 2.0 * a * b, -a * a],
    ]) / (det * det)

    # phi_i has gradient 2 D_i^T J z_i and constant Hessian 2 D_i^T J D_i
    dlog = 2.0 * np.einsum("eki,ek->ei", maps, z * _LORENTZ / phi[:, None])
    curv = 2.0 * np.einsum("eki,k,ekj->ij", maps / phi[:, None, None],
                           _LORENTZ, maps)
    grad += mu * dlog.sum(axis=0)
    hess += mu * (curv - dlog.T @ dlog)
    return grad, hess


def john_ellipse(poly: ConvexPolygon, max_iter: int = _MAX_ITER
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Center and SPD shape matrix of the maximum-area inscribed ellipse.

    Raises
    ------
    ConvergenceFailure
        If the iteration cap is exhausted before the barrier ladder finishes.
    """
    z0, maps = _cones(poly)
    c0 = np.array(poly.centroid)
    r0 = 0.5 * float(np.min(z0[:, 0] + maps[:, 0, 3:] @ c0))  # half the least slack at c0
    theta = np.array([r0, 0.0, r0, c0[0], c0[1]])
    iters = 0
    for mu in _MU_LADDER:
        for _ in range(200):
            if iters >= max_iter:
                raise ConvergenceFailure(
                    f"inscribed-ellipse solver hit the {max_iter}-iteration cap")
            iters += 1
            grad, hess = _grad_hess(theta, z0, maps, mu)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = grad
            decrement = float(grad @ step)   # ascent requires a positive decrement
            if not np.isfinite(decrement) or decrement <= 0.0:
                step = grad / max(np.linalg.norm(grad), 1.0)
                decrement = float(grad @ step)
            if decrement < 1e-18:
                break
            base = _objective(theta, z0, maps, mu)
            alpha = 1.0
            for _ in range(60):
                cand = theta + alpha * step
                if _objective(cand, z0, maps, mu) >= base + 0.25 * alpha * decrement:
                    theta = cand
                    break
                alpha *= 0.5
            else:
                break
            if alpha * float(np.linalg.norm(step)) < 1e-15:
                break
    a, b, d, cx, cy = theta
    return np.array([cx, cy]), np.array([[a, b], [b, d]])


def john_center(poly: ConvexPolygon) -> np.ndarray:
    """Center of the maximum-area inscribed ellipse (tolerance ~1e-6)."""
    center, _ = john_ellipse(poly)
    return center
