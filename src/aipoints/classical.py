"""Classical affine invariant point rules used as ground truth: the centroid
and the center of the maximum-area inscribed (John) ellipse.

The John ellipse {c + A u : |u| <= 1} maximizes log det A over SPD A subject
to every edge half-plane n.x <= b satisfying |A n| <= s = b - n.c.  The solver
is an interior ascent in theta = (a, b, d, c_x, c_y), A = [[a, b], [b, d]]:
damped Newton on log det A + mu * B with B = sum(log phi_i) and
phi_i = s_i^2 - |A n_i|^2, whose log is the barrier of the second-order cone
|A n_i| <= s_i (Boyd & Vandenberghe, Convex Optimization, 11.3-11.6), with
backtracking that stays in the domain.  Each phi_i is quadratic in theta, so
its Hessian is built once per body.

The solver follows the central path down a mu ladder 1 ... 1e-9.  It centres
the intermediate levels loosely, to a Newton decrement below 1e-8, and from
each centre takes a predictor step to the next mu along the path,
theta += (mu' - mu) dtheta/dmu with H dtheta/dmu = -grad B at the last
Hessian H, halved until it stays in the domain.  The final level is centred
to a decrement below 1e-18 or to a round-off-sized step.  If it ends any
other way (200 steps, or a line search that finds no ascent), the solver
raises ConvergenceFailure.

The problem is affine invariant, so the solver runs on the body in its
isotropic position (centroid at the origin, second moment the identity,
see geometry.isotropic_position): there the ellipse is round to within a
bounded factor and the Newton systems stay well conditioned for bodies of
any aspect.  The ellipse is mapped back at the end.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure
from .geometry import ConvexPolygon, isotropic_position

__all__ = ["john_center", "john_ellipse"]

_LEVEL_ITER = 200                                    # Newton steps per mu level
_MU_LADDER = tuple(10.0 ** (-e) for e in range(10))  # 1 ... 1e-9
_LOOSE_TOL = 1e-8                                    # decrement ending a level...
_FINAL_TOL = 1e-18                                   # ... and the last one
_LORENTZ = np.array([1.0, -1.0, -1.0])               # phi = z.J z, J = diag(1, -1, -1)


class _Cones(NamedTuple):
    """Per-edge affine maps z_i = (s_i, A n_i) = z0_i + D_i theta: the (E, 3)
    constants z0, the (E, 3, 5) matrices D, and the constant Hessians
    2 D_i^T J D_i of the phi_i, flattened to (E, 25)."""
    z0: np.ndarray
    maps: np.ndarray
    curv: np.ndarray


def _cones(v: np.ndarray) -> _Cones:
    """The cones of the edges of the CCW convex polygon with vertices v, with
    unit outward normals n_i and offsets b_i (n_i.x <= b_i on the body)."""
    e = np.roll(v, -1, axis=0) - v
    nx, ny = np.stack([e[:, 1], -e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])
    zero = np.zeros_like(nx)
    offsets = nx * v[:, 0] + ny * v[:, 1]
    z0 = np.stack([offsets, zero, zero], axis=1)
    maps = np.stack([[zero, zero, zero, -nx, -ny],
                     [nx, ny, zero, zero, zero],
                     [zero, nx, ny, zero, zero]]).transpose(2, 0, 1)
    curv = 2.0 * np.einsum("eki,k,ekj->eij", maps, _LORENTZ, maps)
    return _Cones(z0, maps, curv.reshape(len(v), 25))


def _objective(theta: np.ndarray, cones: _Cones, mu: float) -> float:
    """log det A + mu * sum(log phi_i); -inf outside the domain (a <= 0,
    det A <= 0, or some s_i <= 0 or phi_i <= 0)."""
    a, b, d = theta[:3]
    det = a * d - b * b
    z = cones.z0 + cones.maps @ theta
    phi = (z * z) @ _LORENTZ
    if a <= 0.0 or det <= 0.0 or z[:, 0].min() <= 0.0 or phi.min() <= 0.0:
        return -np.inf
    return float(np.log(det) + mu * np.log(phi).sum())


def _grad_hess(theta: np.ndarray, cones: _Cones, mu: float):
    """Gradient and Hessian of the objective at theta, and the gradient of
    the barrier B = sum(log phi_i) alone."""
    a, b, d = theta[:3]
    det = a * d - b * b
    z = cones.z0 + cones.maps @ theta
    inv_phi = 1.0 / ((z * z) @ _LORENTZ)
    # row i of dlog is grad phi_i / phi_i, with grad phi_i = 2 D_i^T J z_i
    dlog = ((z * (2.0 * _LORENTZ) * inv_phi[:, None])[:, None, :] @ cones.maps)[:, 0]
    dbar = dlog.sum(axis=0)
    grad = mu * dbar
    grad[:3] += np.array([d, -2.0 * b, a]) / det
    hess = mu * ((inv_phi @ cones.curv).reshape(5, 5) - dlog.T @ dlog)
    hess[:3, :3] += np.array([
        [-d * d, 2.0 * b * d, -b * b],
        [2.0 * b * d, -2.0 * det - 4.0 * b * b, 2.0 * a * b],
        [-b * b, 2.0 * a * b, -a * a],
    ]) / (det * det)
    return grad, hess, dbar


def _predict(theta, cones: _Cones, hess, dbar, mu: float, mu_next: float):
    """The step from the centre at mu along the central path to mu_next,
    halved until it stays in the domain (theta itself if none does)."""
    try:
        shift = (mu_next - mu) * np.linalg.solve(hess, -dbar)
    except np.linalg.LinAlgError:
        return theta
    for _ in range(60):
        cand = theta + shift
        if _objective(cand, cones, mu_next) > -np.inf:
            return cand
        shift = 0.5 * shift
    return theta


def _follow_path(cones: _Cones, theta: np.ndarray) -> np.ndarray:
    """The end of the central path from theta: see the module docstring."""
    for mu, mu_next in zip(_MU_LADDER, _MU_LADDER[1:] + (None,)):
        tol = _FINAL_TOL if mu_next is None else _LOOSE_TOL
        settled = False
        base = _objective(theta, cones, mu)
        for _ in range(_LEVEL_ITER):
            grad, hess, dbar = _grad_hess(theta, cones, mu)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = grad
            decrement = float(grad @ step)   # ascent requires a positive decrement
            if not np.isfinite(decrement) or decrement <= 0.0:
                step = grad / max(np.linalg.norm(grad), 1.0)
                decrement = float(grad @ step)
            if decrement < tol:
                settled = True
                break
            alpha = 1.0
            for _ in range(60):
                cand = theta + alpha * step
                value = _objective(cand, cones, mu)
                if value >= base + 0.25 * alpha * decrement:
                    theta, base = cand, value
                    break
                alpha *= 0.5
            else:
                break
            if alpha * float(np.linalg.norm(step)) < 1e-15:
                settled = True
                break
        if mu_next is None:
            if not settled:
                raise ConvergenceFailure(
                    f"inscribed-ellipse solver did not centre its final level "
                    f"(mu = {mu:g}): no ascent, or {_LEVEL_ITER} steps")
            return theta
        theta = _predict(theta, cones, hess, dbar, mu, mu_next)


def john_ellipse(poly: ConvexPolygon) -> tuple[np.ndarray, np.ndarray]:
    """Center and SPD shape matrix of the maximum-area inscribed ellipse.

    The solver runs on the body in isotropic position (see
    geometry.isotropic_position).  The ellipse is mapped back, and scaled
    back by 2^e exactly.

    Raises
    ------
    ConvergenceFailure
        If the ladder's final level ends short of its tolerance.
    DegenerateBody
        If the body is a sliver whose second moment is not positive
        definite in floating point.
    """
    x, centroid, _, unwhite, e = isotropic_position(poly)
    cones = _cones(x)
    r0 = 0.5 * float(cones.z0[:, 0].min())   # half the least slack at the centroid
    a, b, d, cx, cy = _follow_path(cones, np.array([r0, 0.0, r0, 0.0, 0.0]))
    # the ellipse is centroid + W^-1 (c + A u); its SPD shape is the square
    # root of S = W^-1 A^2 W^-1, (S + sqrt(det S) I) / sqrt(tr S + 2 sqrt(det S))
    half = unwhite @ np.array([[a, b], [b, d]])
    square = half @ half.T
    root = np.linalg.det(unwhite) * (a * d - b * b)
    shape = (square + root * np.eye(2)) / np.sqrt(np.trace(square) + 2.0 * root)
    return np.ldexp(centroid + unwhite @ [cx, cy], e), np.ldexp(shape, e)


def john_center(poly: ConvexPolygon) -> np.ndarray:
    """Center of the maximum-area inscribed ellipse (tolerance ~1e-6)."""
    center, _ = john_ellipse(poly)
    return center
