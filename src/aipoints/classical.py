"""Classical affine invariant point rules used as ground truth: the centroid
and the center of the maximum-area inscribed (John) ellipse.

The John ellipse {c + A u : |u| <= 1} maximizes log det A over SPD A subject
to every edge half-plane n.x <= b satisfying n.c + |A n| <= b.  The solver is
an interior ascent in the primal variables (c, A): damped Newton with
analytic gradient and Hessian on log det A + mu * sum(log slack), warm-started
down a mu ladder, with feasibility-preserving backtracking and a global
iteration cap of 10^4.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure
from .geometry import ConvexPolygon

__all__ = ["john_center", "john_ellipse"]

_MAX_ITER = 10_000
_MU_LADDER = tuple(10.0 ** (-e) for e in range(10))  # 1 ... 1e-9


def _halfplanes(poly: ConvexPolygon) -> tuple[np.ndarray, np.ndarray]:
    """Unit outward normals and offsets with n.x <= b on the body."""
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    normals = np.stack([e[:, 1], -e[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.einsum("ei,ei->e", normals, v)
    return normals, offsets


def _slacks(theta: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    a, b, d, cx, cy = theta
    g = normals @ np.array([[a, b], [b, d]])
    rho = np.linalg.norm(g, axis=1)
    return offsets - normals @ np.array([cx, cy]) - rho


def _feasible(theta: np.ndarray, normals, offsets) -> bool:
    a, b, d = theta[:3]
    if a <= 0.0 or a * d - b * b <= 0.0:
        return False
    return bool(np.all(_slacks(theta, normals, offsets) > 0.0))


def _objective(theta: np.ndarray, normals, offsets, mu: float) -> float:
    a, b, d = theta[:3]
    det = a * d - b * b
    s = _slacks(theta, normals, offsets)
    return float(np.log(det) + mu * np.sum(np.log(s)))


def _grad_hess(theta: np.ndarray, normals, offsets, mu: float):
    a, b, d, cx, cy = theta
    det = a * d - b * b
    amat = np.array([[a, b], [b, d]])
    g = normals @ amat                       # (E, 2)
    rho = np.linalg.norm(g, axis=1)          # (E,)
    s = offsets - normals @ np.array([cx, cy]) - rho

    grad = np.zeros(5)
    hess = np.zeros((5, 5))

    grad[:3] = np.array([d, -2.0 * b, a]) / det
    hess[:3, :3] = np.array([
        [-d * d, 2.0 * b * d, -b * b],
        [2.0 * b * d, -2.0 * det - 4.0 * b * b, 2.0 * a * b],
        [-b * b, 2.0 * a * b, -a * a],
    ]) / (det * det)

    # per-edge barrier pieces; bmat maps (a, b, d) -> A n
    for i in range(normals.shape[0]):
        nx, ny = normals[i]
        bmat = np.array([[nx, ny, 0.0], [0.0, nx, ny]])
        btg = bmat.T @ g[i]                  # (3,)
        grad_rho = btg / rho[i]
        hess_rho = (bmat.T @ bmat - np.outer(grad_rho, grad_rho)) / rho[i]
        ds = np.concatenate([-grad_rho, -normals[i]])   # gradient of slack
        grad += mu * ds / s[i]
        hess[:3, :3] += mu * (-hess_rho) / s[i]
        hess += mu * (-np.outer(ds, ds)) / (s[i] * s[i])
    return grad, hess


def john_ellipse(poly: ConvexPolygon, max_iter: int = _MAX_ITER
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Center and SPD shape matrix of the maximum-area inscribed ellipse.

    Raises
    ------
    ConvergenceFailure
        If the iteration cap is exhausted before the barrier ladder finishes.
    """
    normals, offsets = _halfplanes(poly)
    c0 = np.array(poly.centroid)
    r0 = 0.5 * float(np.min(offsets - normals @ c0))
    theta = np.array([r0, 0.0, r0, c0[0], c0[1]])
    iters = 0
    for mu in _MU_LADDER:
        for _ in range(200):
            if iters >= max_iter:
                raise ConvergenceFailure(
                    f"inscribed-ellipse solver hit the {max_iter}-iteration cap")
            iters += 1
            grad, hess = _grad_hess(theta, normals, offsets, mu)
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
            base = _objective(theta, normals, offsets, mu)
            alpha = 1.0
            for _ in range(60):
                cand = theta + alpha * step
                if _feasible(cand, normals, offsets) and \
                        _objective(cand, normals, offsets, mu) >= base + 0.25 * alpha * float(grad @ step):
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
