"""Planar convex polygons: canonical form, measure, clipping.

Vertices are kept in counterclockwise order with strictly convex turns and the
lexicographically smallest vertex first, so two polygons agree as sets iff
their vertex arrays agree within tolerance.  All clipping classifications use
an absolute epsilon of 1e-12; bodies are expected to live at unit scale.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import BodyFormatError, DegenerateBody, SingularMap

__all__ = [
    "ConvexPolygon",
    "canonicalize",
    "apply_affine",
    "intersection_area",
    "batch_intersection_area",
    "normalize_to_unit_area",
    "polygon_from_dict",
    "load_polygon",
]

EDGE_EPS = 1e-12        # on-edge classification for clipping
AREA_CLAMP = 1e-14      # intersection areas below this count as empty
SEP_GAP = 1e-9          # miss-prefilter gap: 1000x EDGE_EPS, so a flagged row clips to 0
COORD_TOL = 1e-9        # canonical-form equality, per coordinate
_DIM = 2


class ConvexPolygon:
    """A convex polygon in canonical form.

    Construct through :func:`canonicalize` unless the vertices are already
    canonical (counterclockwise, strictly convex, lexicographic start).
    """

    __slots__ = ("vertices", "area", "centroid")

    def __init__(self, vertices: np.ndarray):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != _DIM or verts.shape[0] < 3:
            raise DegenerateBody("need at least 3 planar vertices")
        if not np.all(np.isfinite(verts)):
            raise DegenerateBody("non-finite vertex coordinates")
        nxt = np.roll(verts, -1, axis=0)
        nxt2 = np.roll(verts, -2, axis=0)
        cross = _cross(nxt - verts, nxt2 - nxt)
        if np.any(cross <= 0.0):
            raise DegenerateBody("vertices are not strictly convex counterclockwise")
        area2 = np.sum(verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1])
        if area2 <= 0.0:
            raise DegenerateBody("polygon area is not positive")
        self.area = 0.5 * area2
        cx = np.sum((verts[:, 0] + nxt[:, 0]) * (verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1]))
        cy = np.sum((verts[:, 1] + nxt[:, 1]) * (verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1]))
        self.centroid = np.array([cx, cy]) / (6.0 * self.area)
        self.centroid.setflags(write=False)
        verts = verts.copy()
        verts.setflags(write=False)
        self.vertices = verts

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def __repr__(self) -> str:
        return f"ConvexPolygon({self.vertices.tolist()})"

    def isclose(self, other: "ConvexPolygon", tol: float = COORD_TOL) -> bool:
        """Set equality through the canonical form, per-coordinate tolerance."""
        if len(self) != len(other):
            return False
        return bool(np.all(np.abs(self.vertices - other.vertices) <= tol))


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _hull_ccw(points: np.ndarray) -> np.ndarray:
    # Monotone chain; collinear points are dropped (strict turns only).
    pts = np.unique(points, axis=0)  # sorts lexicographically
    if pts.shape[0] < 3:
        raise DegenerateBody("fewer than 3 distinct points")

    def half(p):
        chain: list[np.ndarray] = []
        for q in p:
            while len(chain) >= 2 and _cross(chain[-1] - chain[-2], q - chain[-1]) <= 0.0:
                chain.pop()
            chain.append(q)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if hull.shape[0] < 3:
        raise DegenerateBody("points are collinear")
    return hull


def canonicalize(points) -> ConvexPolygon:
    """Build the canonical convex polygon spanned by ``points``.

    Takes the convex hull, drops collinear vertices, orients counterclockwise
    and rotates the list so the lexicographically smallest vertex comes first.

    Raises
    ------
    DegenerateBody
        If the hull has fewer than 3 vertices or vanishing area.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != _DIM:
        raise DegenerateBody("expected an (n, 2) array of points")
    if not np.all(np.isfinite(pts)):
        raise DegenerateBody("non-finite input points")
    hull = _hull_ccw(pts)
    start = np.lexsort((hull[:, 1], hull[:, 0]))[0]
    return ConvexPolygon(np.roll(hull, -start, axis=0))


def _affine_parts(phi) -> tuple[np.ndarray, np.ndarray]:
    """Accept a VolumePreservingAffineMap or an (A, b) pair."""
    if hasattr(phi, "linear") and hasattr(phi, "translation"):
        return np.asarray(phi.linear, float), np.asarray(phi.translation, float)
    if isinstance(phi, tuple) and len(phi) == 2:
        return np.asarray(phi[0], float), np.asarray(phi[1], float)
    raise TypeError("expected an affine map or an (A, b) pair")


def apply_affine(phi, poly: ConvexPolygon) -> ConvexPolygon:
    """Image of the polygon under an affine map, re-canonicalized.

    Raises
    ------
    SingularMap
        If the linear part is numerically singular.
    """
    mat, shift = _affine_parts(phi)
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if abs(det) < 1e-12:
        raise SingularMap(f"linear part has |det| = {abs(det):.3e}")
    return canonicalize(poly.vertices @ mat.T + shift)


def batch_intersection_area(subjects: np.ndarray, clip: ConvexPolygon) -> np.ndarray:
    """Areas of ``subjects[i] ∩ clip`` for a stack of convex polygons.

    Parameters
    ----------
    subjects : (n, m, 2) array
        Vertex lists of n convex polygons (either orientation; affine images
        of a canonical polygon are fine).
    clip : ConvexPolygon
        Fixed convex clipping region.

    Returns
    -------
    (n,) array of intersection areas, clamped to 0 below ``AREA_CLAMP``.

    Rows that a separating axis keeps more than ``SEP_GAP`` away from the
    clip get 0.0 without clipping; the rest go through :func:`_clip_areas`,
    which would return exactly 0.0 for the flagged rows too.
    """
    subjects = np.asarray(subjects, dtype=float)
    keep = ~_separated(subjects, clip)
    areas = np.zeros(subjects.shape[0])
    areas[keep] = _clip_areas(subjects[keep], clip)
    return areas


def _separated(subjects: np.ndarray, clip: ConvexPolygon) -> np.ndarray:
    """Flag the rows that an edge normal of either polygon separates from
    ``clip`` with a gap above ``SEP_GAP`` (separating-axis theorem).

    The gap grows as 1 / (shortest clip edge) below unit edge length, so it
    stays at least 1000x the distance band that ``EDGE_EPS`` gives the
    kernel on every clip edge.  Both parts loop over edges on (m, n) arrays;
    the subject axes are only tried on rows the clip axes left open.
    """
    q = clip.vertices
    edges = np.roll(q, -1, axis=0) - q
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    gap = SEP_GAP / min(1.0, float(lengths.min()))
    sx = subjects[:, :, 0].T.copy()
    sy = subjects[:, :, 1].T.copy()

    # clip axes: every subject vertex strictly right of one CCW clip edge
    sep = np.zeros(subjects.shape[0], dtype=bool)
    for (qx, qy), (dx, dy), length in zip(q, edges, lengths):
        reach = (dx * sy - dy * sx).max(axis=0)
        sep |= reach < dx * qy - dy * qx - gap * length

    # subject axes: every clip vertex strictly outside one subject edge,
    # with each subject oriented by the sign of its shoelace area
    rows = np.flatnonzero(~sep)
    sx, sy = sx[:, rows], sy[:, rows]
    ex = np.roll(sx, -1, axis=0) - sx
    ey = np.roll(sy, -1, axis=0) - sy
    offset = ex * sy - ey * sx
    orient = -np.sign(offset.sum(axis=0))  # offset sums to -2 * shoelace area
    ex *= orient
    ey *= orient
    offset *= orient
    reach = np.full_like(offset, -np.inf)
    for qx, qy in q:
        np.maximum(reach, ex * qy - ey * qx, out=reach)
    sep[rows] = (reach - offset < -gap * np.hypot(ex, ey)).any(axis=0)
    return sep


def _clip_areas(subjects: np.ndarray, clip: ConvexPolygon) -> np.ndarray:
    """Sutherland–Hodgman areas of ``subjects[i] ∩ clip``, no prefilter.

    Half-plane clipping of a convex subject against each clip edge; each pass
    adds at most one vertex, so padded buffers of width m + E + 4 suffice.
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
        inside = d >= -EDGE_EPS
        prev_j = (jj - 1) % safe
        px = np.take_along_axis(xs, prev_j, axis=1)
        py = np.take_along_axis(ys, prev_j, axis=1)
        dprev = np.take_along_axis(d, prev_j, axis=1)
        inside_prev = dprev >= -EDGE_EPS

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


def intersection_area(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Area of the intersection ``p ∩ q`` (0.0 when it is empty or degenerate)."""
    return float(batch_intersection_area(p.vertices[None, :, :], q)[0])


def normalize_to_unit_area(poly: ConvexPolygon) -> tuple[ConvexPolygon, float]:
    """Scale about the origin to unit area; returns (scaled polygon, scale).

    The scale is area**(1/n) with n = 2, so ``poly = scale * result``.
    """
    scale = poly.area ** (1.0 / _DIM)
    return ConvexPolygon(poly.vertices / scale), float(scale)


def polygon_from_dict(payload: dict) -> ConvexPolygon:
    """Read the ``{"vertices": [[x, y], ...]}`` wire format (canonicalizing)."""
    try:
        verts = payload["vertices"]
    except (TypeError, KeyError) as exc:
        raise BodyFormatError("polygon JSON must be an object with a 'vertices' key") from exc
    try:
        arr = np.asarray(verts, dtype=float)
    except (ValueError, TypeError) as exc:
        raise BodyFormatError("polygon 'vertices' must be an (n, 2) numeric array") from exc
    if arr.ndim != 2 or arr.shape[1] != _DIM:
        raise BodyFormatError(
            f"polygon 'vertices' must be an (n, 2) array, got shape {arr.shape}")
    if arr.shape[0] < 3:
        raise BodyFormatError("polygon needs at least 3 vertices")
    if not np.isfinite(arr).all():
        raise BodyFormatError("polygon vertices must be finite")
    return canonicalize(arr)


def load_polygon(path) -> ConvexPolygon:
    with open(path, "r", encoding="utf-8") as fh:
        return polygon_from_dict(json.load(fh))
