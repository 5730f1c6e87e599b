"""Reference computations that only the tests compare against.

Two kinds live here.  The independent oracles are deliberately written with
a different algorithm than the library (gift wrapping instead of monotone
chain, rejection sampling instead of clipping, pattern search instead of
Newton, dense boundary sampling instead of vertex distances) so agreement is
meaningful.  The reference helpers check properties of the library's objects
that no command computes: adaptive-quadrature limits of peaked ratios
(``power_ratio_limit``), left invariance of the Haar sampler
(``invariance_check`` with ``smoothed_ball_indicator``), the radial CDF
(``truncated_cdf``), polar factors and their fractional powers, the
Hausdorff distance between convex polygons, set equality of canonical
forms within a per-coordinate tolerance (``isclose``), the area of one pair
through the library's batched kernel (``intersection_area``), Sutherland–Hodgman
clipping (``sutherland_hodgman_areas``, the library's kernel before Green's
theorem), which the clip kernel is checked against, the weight through an
``einsum`` with adj(M) (``adjugate_einsum_weights``, the library's subject
transform before it took the maps themselves), and one estimator run that
sums a phi(v) for its anchor and evaluates every substream as its own batch
(``per_stream_run``, the library's run before it grouped substreams,
summed moments of (M, x) instead and skipped the draws whose translation
cannot reach L; it evaluates every draw), and the plain rectangle test of
the draws that may reach L (``rectangle_mask``, the library's
``_reaches_l`` before it ruled draws out in a wedge first, with one
``cos``/``sin`` pair per draw), and the inscribed-ellipse solver that
centres every level of its mu ladder to a Newton decrement of 1e-18, with
no predictor step, on the body as it is (``ladder_john_ellipse``, the
library's ``john_ellipse`` before it followed the central path in the
body's isotropic position).  Linear group elements are plain
2x2 arrays, as in the library; ``rotation``, ``stretch`` and ``inverse``
build and invert them.
"""
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.spatial import cKDTree

from aipoints import (AipointsError, ConvexPolygon, DegenerateWeights,
                      evaluate_weights_batch, singular_values)
from aipoints.estimator import _BATCH, _MIN_SUPPORT_HITS, STREAM_COUNT
from aipoints.classical import _MU_LADDER, _cones, _objective
from aipoints.geometry import (AREA_CLAMP, EDGE_EPS, SEP_GAP, batch_intersection_area,
                               binary_exponent)
from aipoints.haar import _decode_cartan, _sample_cartan, truncated_mass


class QuadratureFailure(AipointsError):
    """Adaptive quadrature did not converge on the requested ratio."""


class TruncationTooSmall(AipointsError):
    """Sampler truncation radius cannot cover the support of the test function."""


def gift_wrap_hull(points):
    """Convex hull, CCW, by Jarvis march. O(n*h), fine for test sizes."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) < 3:
        raise ValueError("need at least 3 distinct points")
    start = min(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1]))
    hull = [start]
    while True:
        cur = hull[-1]
        cand = (cur + 1) % len(pts)
        for j in range(len(pts)):
            if j == cur:
                continue
            a = pts[cand] - pts[cur]
            b = pts[j] - pts[cur]
            d = a[0] * b[1] - a[1] * b[0]
            if d < 0 or (d == 0 and
                         np.linalg.norm(pts[j] - pts[cur]) >
                         np.linalg.norm(pts[cand] - pts[cur])):
                cand = j
        if cand == start:
            break
        hull.append(cand)
    return pts[hull]


def contains(vertices, points):
    """Membership for a CCW convex polygon, vectorized over points and
    looped over edges, so no (points, edges) temporaries are built."""
    v = np.asarray(vertices, dtype=float)
    p = np.atleast_2d(points)
    px, py = p[:, 0], p[:, 1]
    inside = np.ones(len(p), dtype=bool)
    for (vx, vy), (ex, ey) in zip(v, np.roll(v, -1, axis=0) - v):
        inside &= ex * (py - vy) - ey * (px - vx) >= -1e-12
    return inside


def mc_area(vertices, rng, n=200_000):
    v = np.asarray(vertices, dtype=float)
    lo, hi = v.min(axis=0), v.max(axis=0)
    pts = rng.random((n, 2)) * (hi - lo) + lo
    frac = contains(v, pts).mean()
    return frac * np.prod(hi - lo)


def mc_centroid(vertices, rng, n=200_000):
    v = np.asarray(vertices, dtype=float)
    lo, hi = v.min(axis=0), v.max(axis=0)
    pts = rng.random((n, 2)) * (hi - lo) + lo
    inside = contains(v, pts)
    return pts[inside].mean(axis=0)


def mc_intersection_area(verts_a, verts_b, rng, n=400_000):
    """Rejection estimate of |A for B|, sampling the bounding box of A."""
    a = np.asarray(verts_a, dtype=float)
    lo, hi = a.min(axis=0), a.max(axis=0)
    pts = rng.random((n, 2)) * (hi - lo) + lo
    both = contains(a, pts) & contains(verts_b, pts)
    return both.mean() * np.prod(hi - lo)


def boundary_points(vertices, per_edge=400):
    v = np.asarray(vertices, dtype=float)
    nxt = np.roll(v, -1, axis=0)
    ts = np.linspace(0.0, 1.0, per_edge, endpoint=False)
    return (v[:, None, :] + ts[None, :, None] * (nxt - v)[:, None, :]).reshape(-1, 2)


def dense_hausdorff(verts_a, verts_b, per_edge=2000):
    """Hausdorff distance via dense boundary sampling.

    For convex bodies the sup is attained on the boundaries, and interior
    points of one body inside the other contribute zero.
    """
    pa = boundary_points(verts_a, per_edge)
    pb = boundary_points(verts_b, per_edge)

    def sup_dist(pts, other_pts, other_verts):
        d, _ = cKDTree(other_pts).query(pts)
        d[contains(other_verts, pts)] = 0.0
        return d.max()

    return max(sup_dist(pa, pb, verts_b), sup_dist(pb, pa, verts_a))


def ellipse_in_polygon(center, mat, vertices, tol=0.0):
    """Is {center + mat u : |u|<=1} inside the polygon (slack >= tol per edge)?"""
    v = np.asarray(vertices, dtype=float)
    nxt = np.roll(v, -1, axis=0)
    edge = nxt - v
    nrm = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    off = (nrm * v).sum(axis=1)
    # support of the ellipse in direction n is n.c + |mat^T n|
    reach = nrm @ center + np.linalg.norm(nrm @ mat, axis=1)
    return bool((off - reach >= tol - 1e-12).all())


def pattern_search_max_ellipse(vertices, iters=220, seed=0):
    """Max-area inscribed ellipse by random-direction search over (c, A).

    A is symmetric positive definite, parametrized by (a11, a12, a22).
    Coordinate moves alone stall on this problem (growing the ellipse needs
    correlated center/shape steps), so each round probes random directions
    in R^5 and the step shrinks only when none of them improve.
    """
    v = np.asarray(vertices, dtype=float)
    rng = np.random.default_rng(seed)
    c = v.mean(axis=0)
    nxt = np.roll(v, -1, axis=0)
    nrm = np.stack([(nxt - v)[:, 1], -(nxt - v)[:, 0]], axis=1)
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    r0 = 0.8 * ((nrm * v).sum(axis=1) - nrm @ c).min()
    x = np.array([c[0], c[1], r0, 0.0, r0])

    def ok(p):
        mat = np.array([[p[2], p[3]], [p[3], p[4]]])
        w = np.linalg.eigvalsh(mat)
        if w[0] <= 0:
            return False
        return ellipse_in_polygon(p[:2], mat, v)

    def vol(p):
        return p[2] * p[4] - p[3] * p[3]

    if not ok(x):
        raise RuntimeError("pattern search seed infeasible")
    step = r0
    for _ in range(iters):
        dirs = rng.normal(size=(48, 5))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        improved = False
        for d in dirs:
            y = x + step * d
            if ok(y) and vol(y) > vol(x):
                x, improved = y, True
        if not improved:
            step *= 0.5
            if step < 1e-9:
                break
    return x[:2], np.array([[x[2], x[3]], [x[3], x[4]]])


def quad_power_ratio(f, g, lo, hi, k, n=2_000_001):
    """Trapezoid evaluation of int f^k g / int f^k on a dense grid."""
    xs = np.linspace(lo, hi, n)
    fs = np.asarray(f(xs), dtype=float)
    gs = np.asarray(g(xs), dtype=float)
    # factor out the max so f^k stays representable for large k
    logf = np.full_like(fs, -np.inf)
    np.log(fs, out=logf, where=fs > 0)
    w = np.exp(k * (logf - logf.max()))
    num = np.trapezoid(w * gs, xs)
    den = np.trapezoid(w, xs)
    return num / den


def sqp_max_ellipse(vertices):
    """Max-area inscribed ellipse via SLSQP on log det with edge slacks.

    Independent route from the shipped barrier-Newton solver: same program,
    different algorithm and implementation (scipy's SQP).
    """
    from scipy.optimize import minimize

    v = np.asarray(vertices, dtype=float)
    nxt = np.roll(v, -1, axis=0)
    nrm = np.stack([(nxt - v)[:, 1], -(nxt - v)[:, 0]], axis=1)
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    off = (nrm * v).sum(axis=1)
    c0 = v.mean(axis=0)
    r0 = 0.5 * (off - nrm @ c0).min()
    x0 = np.array([c0[0], c0[1], r0, 0.0, r0])

    def neg_logdet(p):
        det = p[2] * p[4] - p[3] * p[3]
        return np.inf if det <= 0 else -np.log(det)

    def slacks(p):
        mat = np.array([[p[2], p[3]], [p[3], p[4]]])
        return off - nrm @ p[:2] - np.linalg.norm(nrm @ mat, axis=1)

    out = minimize(neg_logdet, x0, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": slacks}],
                   options={"maxiter": 400, "ftol": 1e-14})
    p = out.x
    return p[:2], np.array([[p[2], p[3]], [p[3], p[4]]])


def power_ratio_limit(f, g, domain: tuple[float, float], k: float) -> float:
    """integral(f^k g) / integral(f^k) on a 1-D interval, by adaptive
    quadrature split at the maximizer of f.

    As k grows this localizes at the maximizer x0 of f and converges to
    g(x0) under the usual peak-separation conditions.

    Raises
    ------
    QuadratureFailure
        If either integral fails to converge or the denominator vanishes.
    """
    a, b = float(domain[0]), float(domain[1])
    if not b > a:
        raise ValueError("domain must be a nondegenerate interval")
    grid = np.linspace(a, b, 4097)
    fvals = np.array([float(f(x)) for x in grid])
    x0 = float(grid[int(np.argmax(fvals))])
    points = [x0] if a < x0 < b else None

    def integrate(func) -> float:
        out = quad(func, a, b, points=points, limit=200, full_output=1)
        if len(out) > 3:
            raise QuadratureFailure(str(out[3]))
        val, abserr = out[0], out[1]
        if abserr > 1e-10 + 1e-7 * abs(val):
            raise QuadratureFailure(
                f"quadrature error {abserr:.3e} too large for value {val:.6e}")
        return float(val)

    den = integrate(lambda x: f(x) ** k)
    if den <= 0.0:
        raise QuadratureFailure("denominator integral is not positive")
    num = integrate(lambda x: f(x) ** k * g(x))
    return num / den


def truncated_cdf(t, radius: float):
    """CDF of the Haar radial coordinate t on [0, log R]."""
    tmax = np.log(radius)
    tt = np.clip(np.asarray(t, float), 0.0, tmax)
    return (np.cosh(2.0 * tt) - 1.0) / (np.cosh(2.0 * tmax) - 1.0)


def batch_operator_norm(mats: np.ndarray) -> np.ndarray:
    """lam1 for a (..., 2, 2) stack of |det| = 1 matrices."""
    t = np.sum(np.square(mats), axis=(-2, -1))
    return 0.5 * (np.sqrt(t + 2.0) + np.sqrt(np.maximum(t - 2.0, 0.0)))


def smoothed_ball_indicator(radius: float, width: float = 0.1):
    """A compactly supported test function on SL(2)+-.

    1 inside S_{R(1-width)}, 0 outside S_R, linear in the operator norm in
    between.  Accepts (..., 2, 2) stacks.
    """
    lo = radius * (1.0 - width)

    def h(mats: np.ndarray) -> np.ndarray:
        lam1 = batch_operator_norm(np.asarray(mats, float))
        return np.clip((radius - lam1) / (radius - lo), 0.0, 1.0)

    return h


@dataclass(frozen=True)
class InvarianceResult:
    discrepancy: float
    std_error: float


def invariance_check(g, h, support_radius: float, samples: int,
                     rng: np.random.Generator,
                     truncation_radius: float | None = None) -> InvarianceResult:
    """Estimate |E[h(g M)] - E[h(M)]| over Haar measure on S_truncation.

    ``h`` must vanish outside S_{support_radius} and accept (..., 2, 2)
    stacks.  Left invariance needs the truncation to cover g^{-1} S_{support};
    for |det g| = 1 that means truncation >= ||g|| * support_radius.  Two
    independent sample sets feed the two sides, drawn with the library's
    Cartan sampler.

    Raises
    ------
    TruncationTooSmall
        If ``truncation_radius`` is given but below ||g|| * support_radius.
    """
    gmat = np.asarray(g, float)
    gnorm = singular_values(gmat).lam1
    needed = gnorm * support_radius
    if truncation_radius is None:
        truncation_radius = needed
    if truncation_radius < needed * (1.0 - 1e-12):
        raise TruncationTooSmall(
            f"need truncation radius >= {needed:.6g}, got {truncation_radius:.6g}")
    mass = truncated_mass(truncation_radius)

    def side(transform) -> tuple[float, float]:
        m = _decode_cartan(*_sample_cartan(truncation_radius, rng, samples)[:4])
        vals = np.asarray(h(transform(m)), float)
        return mass * float(vals.mean()), mass * float(vals.std(ddof=1) / np.sqrt(samples))

    plain, se_plain = side(lambda m: m)
    shifted, se_shifted = side(lambda m: np.einsum("ij,njk->nik", gmat, m))
    return InvarianceResult(
        discrepancy=abs(shifted - plain),
        std_error=float(np.hypot(se_plain, se_shifted)),
    )


def _sqrt_spd_det1(s: np.ndarray) -> np.ndarray:
    # sqrt of a symmetric positive-definite matrix with det = 1:
    # sqrt(S) = (S + I) / sqrt(tr(S) + 2)
    return (s + np.eye(2)) / np.sqrt(s[0, 0] + s[1, 1] + 2.0)


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def stretch(s: float) -> np.ndarray:
    """diag(s, 1/s)."""
    return np.diag([s, 1.0 / s])


def inverse(m) -> np.ndarray:
    """Inverse of a 2x2 array: its adjugate over its determinant."""
    a, b, c, d = np.asarray(m, float).ravel()
    return np.array([[d, -b], [-c, a]]) / (a * d - b * c)


def adjugate_einsum_weights(ctx, mats: np.ndarray, reflect: np.ndarray,
                            xs: np.ndarray) -> np.ndarray:
    """F for a batch of maps (M_i, x_i) with M_i^{-1} built as adj(M_i)
    times the reflection coin's sign (+1, or -1 on the reflected coset) and
    applied to L - x with ``einsum``."""
    adj = np.empty_like(mats)
    adj[:, 0, 0] = mats[:, 1, 1]
    adj[:, 0, 1] = -mats[:, 0, 1]
    adj[:, 1, 0] = -mats[:, 1, 0]
    adj[:, 1, 1] = mats[:, 0, 0]
    minvs = adj * np.where(reflect, -1.0, 1.0)[:, None, None]
    rel = ctx.L.vertices[None, :, :] - xs[:, None, :]
    subjects = np.einsum("nab,nvb->nva", minvs, rel)
    return np.minimum(batch_intersection_area(subjects, ctx.K), 1.0)


def polar_decompose(m) -> tuple[np.ndarray, np.ndarray]:
    """M = U P with U orthogonal (det = det M) and P symmetric positive
    definite (det = 1), both closed-form: P = sqrt(M^T M), U = M P^{-1}."""
    mat = np.asarray(m, float)
    p = _sqrt_spd_det1(mat.T @ mat)
    pinv = np.array([[p[1, 1], -p[0, 1]], [-p[1, 0], p[0, 0]]])  # det p = 1
    return mat @ pinv, p


def fractional_polar_factor(m, s: float) -> np.ndarray:
    """U P^s for M = U P, via the closed-form eigendecomposition of P.

    Used to witness S_{R1} S_{R2} = S_{R1 R2}: with s = log R1 / log(R1 R2),
    M in S_{R1 R2} splits as (U P^s)(P^{1-s}) with factors in S_{R1}, S_{R2}.
    """
    u, p = polar_decompose(m)
    alpha, beta, gamma = p[0, 0], p[0, 1], p[1, 1]
    half = 0.5 * (alpha + gamma)
    rad = np.sqrt(max(0.25 * (alpha - gamma) ** 2 + beta * beta, 0.0))
    mu1, mu2 = half + rad, max(half - rad, 1e-300)
    psi = 0.5 * np.arctan2(2.0 * beta, alpha - gamma)
    c, snt = np.cos(psi), np.sin(psi)
    v = np.array([[c, -snt], [snt, c]])
    ps = v @ np.diag([mu1 ** s, mu2 ** s]) @ v.T
    return u @ ps


def _dist_to_polygon(points: np.ndarray, poly: ConvexPolygon) -> np.ndarray:
    """Euclidean distance from each point to the polygon as a convex set."""
    pts = np.atleast_2d(points)
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    e = w - v  # (E,2)
    rel = pts[:, None, :] - v[None, :, :]  # (N,E,2)
    cross = e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0]
    inside = np.all(cross >= 0.0, axis=1)
    t = np.einsum("nei,ei->ne", rel, e) / np.einsum("ei,ei->e", e, e)
    t = np.clip(t, 0.0, 1.0)
    foot = v[None, :, :] + t[:, :, None] * e[None, :, :]
    d = np.min(np.linalg.norm(pts[:, None, :] - foot, axis=2), axis=1)
    return np.where(inside, 0.0, d)


def hausdorff_distance(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Hausdorff distance between two convex polygons.

    For convex sets the supremum of the distance function over either body is
    attained at a vertex, so vertex-to-body distances suffice.
    """
    return float(max(_dist_to_polygon(p.vertices, q).max(),
                     _dist_to_polygon(q.vertices, p).max()))


COORD_TOL = 1e-9        # canonical-form equality, per coordinate


def isclose(p: ConvexPolygon, q: ConvexPolygon, tol: float = COORD_TOL) -> bool:
    """Set equality of two polygons through their canonical forms, within
    ``tol`` per coordinate."""
    if len(p) != len(q):
        return False
    return bool(np.all(np.abs(p.vertices - q.vertices) <= tol))


def intersection_area(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Area of ``p ∩ q`` through the library's batched kernel, one row
    (0.0 when it is empty or degenerate)."""
    return float(batch_intersection_area(p.vertices[None, :, :], q)[0])


def sutherland_hodgman_areas(subjects: np.ndarray, clip: ConvexPolygon) -> np.ndarray:
    """Sutherland–Hodgman areas of ``subjects[i] ∩ clip``, no prefilter.

    Half-plane clipping of a convex subject against each clip edge; each pass
    adds at most one vertex, so padded buffers of width m + E + 4 suffice.
    A vertex within ``EDGE_EPS`` of a clip edge's line lies on it and is
    kept, as the library's tie rule has it, so a subject touching a clip
    edge from outside inside that band clips to area 0.
    """
    subjects = np.asarray(subjects, dtype=float)
    n, m, _ = subjects.shape
    q = clip.vertices
    edges = np.roll(q, -1, axis=0) - q
    cap = m + q.shape[0] + 4

    xs = np.zeros((n, cap))
    ys = np.zeros((n, cap))
    xs[:, :m] = subjects[:, :, 0]
    ys[:, :m] = subjects[:, :, 1]
    counts = np.full(n, m, dtype=np.int64)
    jj = np.arange(cap)[None, :]

    for (qx, qy), (dx, dy) in zip(q, edges):
        safe = np.maximum(counts, 1)[:, None]
        valid = jj < counts[:, None]
        # signed: positive on the inside (left of the CCW clip edge)
        d = dx * (ys - qy) - dy * (xs - qx)
        d[np.abs(d) <= EDGE_EPS] = 0.0
        inside = d >= 0.0
        prev_j = (jj - 1) % safe
        px = np.take_along_axis(xs, prev_j, axis=1)
        py = np.take_along_axis(ys, prev_j, axis=1)
        dprev = np.take_along_axis(d, prev_j, axis=1)
        inside_prev = dprev >= 0.0

        emit_cross = valid & (inside != inside_prev)
        emit_cur = valid & inside
        denom = dprev - d
        tt = np.where(np.abs(denom) > 0.0, dprev / np.where(denom == 0.0, 1.0, denom), 0.0)
        cx = px + tt * (xs - px)
        cy = py + tt * (ys - py)

        ecount = emit_cross.astype(np.int64) + emit_cur.astype(np.int64)
        ends = np.cumsum(ecount, axis=1)
        new_counts = ends[:, -1]
        if np.any(new_counts > cap):  # cannot happen for convex subjects
            raise RuntimeError("clip buffer overflow; subject not convex?")
        starts = ends - ecount
        pos_cur = starts + emit_cross

        nxs = np.zeros_like(xs)
        nys = np.zeros_like(ys)
        r, c = np.nonzero(emit_cross)
        nxs[r, starts[r, c]] = cx[r, c]
        nys[r, starts[r, c]] = cy[r, c]
        r, c = np.nonzero(emit_cur)
        nxs[r, pos_cur[r, c]] = xs[r, c]
        nys[r, pos_cur[r, c]] = ys[r, c]
        xs, ys, counts = nxs, nys, new_counts

    counts = np.where(counts < 3, 0, counts)
    safe = np.maximum(counts, 1)[:, None]
    valid = jj < counts[:, None]
    nxt = (jj + 1) % safe
    xn = np.take_along_axis(xs, nxt, axis=1)
    yn = np.take_along_axis(ys, nxt, axis=1)
    contrib = np.where(valid, xs * yn - xn * ys, 0.0)
    areas = 0.5 * np.abs(contrib.sum(axis=1))
    areas[areas < AREA_CLAMP] = 0.0
    return areas


def _one_stream_partial(ctx, anchor: np.ndarray, k: int, radius: float,
                        seed_seq: np.random.SeedSequence, count: int) -> tuple:
    """Accumulate one substream's sums for the ratio estimator, evaluating
    every draw."""
    rng = np.random.default_rng(seed_seq)
    mass = truncated_mass(radius)
    reach = ctx.R_K + ctx.R_L
    s_a = 0.0
    s_av = np.zeros(2)
    s_a2 = 0.0
    s_a2v = np.zeros(2)
    s_a2vv = np.zeros(2)
    n_pos = 0
    done = 0
    # an overflowing anchor gives inf/NaN sums, which _finite refuses; this
    # runs on pool threads, so the guard must be set here
    with np.errstate(over="ignore", invalid="ignore"):
        while done < count:
            m = min(_BATCH, count - done)
            th1, t, th2, refl, r, ang = _sample_cartan(radius, rng, m)
            mats = _decode_cartan(th1, t, th2, refl)
            rho = np.exp(t) * reach     # translation_support_radius(ctx, M)
            xs = rho[:, None] * np.stack([r * np.cos(ang), r * np.sin(ang)],
                                         axis=-1)
            w = mass * np.pi * rho * rho
            f = evaluate_weights_batch(ctx, mats, xs)
            a = w * f ** k
            phiv = mats @ anchor + xs
            a2 = a * a
            s_a += float(a.sum())
            s_av += a @ phiv
            s_a2 += float(a2.sum())
            s_a2v += a2 @ phiv
            s_a2vv += a2 @ (phiv * phiv)
            n_pos += int(np.count_nonzero(f))
            done += m
    return s_a, s_av, s_a2, s_a2v, s_a2vv, n_pos


def per_stream_run(ctx, anchor: np.ndarray, k: int, samples: int,
                   radius: float, seed_seq: np.random.SeedSequence,
                   threads: int) -> tuple[np.ndarray, np.ndarray, float, int]:
    """``estimator._run_once`` with every substream evaluated as its own
    batch, and the sums combined in stream order."""
    streams = seed_seq.spawn(STREAM_COUNT)
    base, extra = divmod(samples, STREAM_COUNT)
    counts = [base + (1 if i < extra else 0) for i in range(STREAM_COUNT)]

    def job(i: int):
        return _one_stream_partial(ctx, anchor, k, radius, streams[i], counts[i])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(job, range(STREAM_COUNT)))
    else:
        partials = [job(i) for i in range(STREAM_COUNT)]

    # combine in stream order with pairwise summation
    s_a = float(np.sum(np.array([p[0] for p in partials])))
    s_av = np.sum(np.array([p[1] for p in partials]), axis=0)
    s_a2 = float(np.sum(np.array([p[2] for p in partials])))
    s_a2v = np.sum(np.array([p[3] for p in partials]), axis=0)
    s_a2vv = np.sum(np.array([p[4] for p in partials]), axis=0)
    n_pos = int(sum(p[5] for p in partials))

    if n_pos < _MIN_SUPPORT_HITS or s_a <= 0.0:
        raise DegenerateWeights(
            f"only {n_pos} of {samples} samples hit the weight support "
            f"(k={k}, R={radius}); raise samples or lower k/R")
    value = s_av / s_a
    with np.errstate(over="ignore", invalid="ignore"):
        var = (s_a2vv - 2.0 * value * s_a2v + value * value * s_a2) / (s_a * s_a)
    std_error = np.sqrt(np.maximum(var, 0.0))
    ess = s_a * s_a / s_a2
    return value, std_error, ess, n_pos


def rectangle_mask(ctx, theta1: np.ndarray, et: np.ndarray,
                   radial: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """``estimator._reaches_l`` with one cos/sin pair of ang - theta1 per
    draw: |<x, u1>| <= (R_L + et R_K) slack and |<x, u2>| <= (R_L + R_K /
    et) slack, slack = 1 + SEP_GAP et^2, about the columns u1, u2 of
    R(theta1)."""
    d = ang - theta1
    slack = 1.0 + SEP_GAP * et * et
    return ((np.abs(radial * np.cos(d)) <= (ctx.R_L + et * ctx.R_K) * slack)
            & (np.abs(radial * np.sin(d)) <= (ctx.R_L + ctx.R_K / et) * slack))


_LORENTZ = np.array([1.0, -1.0, -1.0])


def _ladder_grad_hess(theta, cones, mu):
    a, b, d = theta[:3]
    det = a * d - b * b
    z = cones.z0 + cones.maps @ theta
    phi = (z * z) @ _LORENTZ
    grad = np.zeros(5)
    hess = np.zeros((5, 5))
    grad[:3] = np.array([d, -2.0 * b, a]) / det
    hess[:3, :3] = np.array([
        [-d * d, 2.0 * b * d, -b * b],
        [2.0 * b * d, -2.0 * det - 4.0 * b * b, 2.0 * a * b],
        [-b * b, 2.0 * a * b, -a * a],
    ]) / (det * det)
    # phi_i has gradient 2 D_i^T J z_i and Hessian 2 D_i^T J D_i, formed
    # at every step
    dlog = 2.0 * np.einsum("eki,ek->ei", cones.maps, z * _LORENTZ / phi[:, None])
    curv = 2.0 * np.einsum("eki,k,ekj->ij", cones.maps / phi[:, None, None],
                           _LORENTZ, cones.maps)
    grad += mu * dlog.sum(axis=0)
    hess += mu * (curv - dlog.T @ dlog)
    return grad, hess


def ladder_john_ellipse(poly: ConvexPolygon):
    """Center and shape of the maximum-area inscribed ellipse by damped
    Newton, warm-started down the library's mu ladder and centring every
    level to a decrement of 1e-18 (or a stalled line search), on the body
    scaled by 2^-e but not moved to isotropic position."""
    e = binary_exponent(poly.vertices)
    poly = ConvexPolygon(np.ldexp(poly.vertices, -e))
    cones = _cones(poly.vertices)
    c0 = np.array(poly.centroid)
    r0 = 0.5 * float(np.min(cones.z0[:, 0] + cones.maps[:, 0, 3:] @ c0))
    theta = np.array([r0, 0.0, r0, c0[0], c0[1]])
    for mu in _MU_LADDER:
        for _ in range(200):
            grad, hess = _ladder_grad_hess(theta, cones, mu)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = grad
            decrement = float(grad @ step)
            if not np.isfinite(decrement) or decrement <= 0.0:
                step = grad / max(np.linalg.norm(grad), 1.0)
                decrement = float(grad @ step)
            if decrement < 1e-18:
                break
            base = _objective(theta, cones, mu)
            alpha = 1.0
            for _ in range(60):
                cand = theta + alpha * step
                if _objective(cand, cones, mu) >= base + 0.25 * alpha * decrement:
                    theta = cand
                    break
                alpha *= 0.5
            else:
                break
            if alpha * float(np.linalg.norm(step)) < 1e-15:
                break
    a, b, d, cx, cy = theta
    return np.ldexp([cx, cy], e), np.ldexp([[a, b], [b, d]], e)
