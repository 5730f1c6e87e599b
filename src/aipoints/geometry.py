"""Planar convex polygons: canonical form, measure, clipping.

Vertices are kept in counterclockwise order with strictly convex turns and the
lexicographically smallest vertex first, so two polygons agree as sets iff
their vertex arrays agree within tolerance.  Clipping puts a subject edge
whose ends lie within an absolute 1e-12 of a clip edge's line on that line:
it counts as inside the clip (closed) unless the two run anti-parallel, and
the clip edge counts as outside the subject (strict).  Bodies are expected
to live at unit scale; the area and centroid of a smaller body are summed on
it scaled up by a power of two, which is exact.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import BodyFormatError, DegenerateBody, SingularMap

__all__ = [
    "ConvexPolygon",
    "canonicalize",
    "apply_affine",
    "batch_intersection_area",
    "normalize_to_unit_area",
    "polygon_from_dict",
    "load_polygon",
]

EDGE_EPS = 1e-12        # on-edge classification for clipping
AREA_CLAMP = 1e-14      # intersection areas below this count as empty
SEP_GAP = 1e-9          # miss-prefilter gap: 1000x EDGE_EPS, so a flagged row clips to 0
_MIN_NORMAL = np.finfo(float).tiny
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
        # a body below unit scale is summed scaled up by 2^-e, which is
        # exact, so its products do not underflow; a larger body is summed
        # as it is, and an overflow leaves a non-finite area or centroid,
        # refused below
        e = min(binary_exponent(verts), 0)
        unit = np.ldexp(verts, -e) if e else verts
        nxt = np.roll(unit, -1, axis=0)
        nxt2 = np.roll(unit, -2, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            cross = _cross(nxt - unit, nxt2 - nxt)
            if np.any(cross <= 0.0):
                raise DegenerateBody("vertices are not strictly convex counterclockwise")
            # shoelace sums about the first vertex, so a body far from the
            # origin relative to its size keeps its area and centroid
            u = unit - unit[0]
            unxt = np.roll(u, -1, axis=0)
            fan = u[:, 0] * unxt[:, 1] - unxt[:, 0] * u[:, 1]
            area2 = np.sum(fan)
            if area2 <= 0.0:
                raise DegenerateBody("polygon area is not positive")
            cx = np.sum((u[:, 0] + unxt[:, 0]) * fan)
            cy = np.sum((u[:, 1] + unxt[:, 1]) * fan)
            self.area = 0.5 * area2
            self.centroid = unit[0] + np.array([cx, cy]) / (6.0 * self.area)
        if e:
            self.area, self.centroid = np.ldexp(self.area, 2 * e), np.ldexp(self.centroid, e)
        if not np.isfinite([self.area, *self.centroid]).all():
            raise DegenerateBody("polygon area or centroid overflows")
        if self.area < _MIN_NORMAL:     # subnormal: too few bits to normalize
            raise DegenerateBody("polygon area underflows")
        self.centroid.setflags(write=False)
        verts = verts.copy()
        verts.setflags(write=False)
        self.vertices = verts

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def __repr__(self) -> str:
        return f"ConvexPolygon({self.vertices.tolist()})"


def binary_exponent(vertices: np.ndarray) -> int:
    """The power of two e that brings the largest vertex coordinate to
    [0.5, 1) in magnitude: scaling a body by 2^-e and its results back by
    2^e is exact, so code that expects unit scale can serve any body."""
    return math.frexp(float(np.abs(vertices).max()))[1]


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
    # huge coordinates overflow the turn tests; ConvexPolygon refuses the result
    with np.errstate(over="ignore", invalid="ignore"):
        hull = _hull_ccw(pts)
    start = np.lexsort((hull[:, 1], hull[:, 0]))[0]
    return ConvexPolygon(np.roll(hull, -start, axis=0))


def apply_affine(phi, poly: ConvexPolygon) -> ConvexPolygon:
    """Image of the polygon under the affine map x -> A x + b, given as the
    pair ``phi = (A, b)``, re-canonicalized.

    Raises
    ------
    SingularMap
        If the linear part is numerically singular.
    """
    mat, shift = (np.asarray(part, dtype=float) for part in phi)
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
        of a canonical polygon are fine).  Any memory layout gives the same
        bytes; the fast one is the view ``planes.transpose(2, 1, 0)`` of x
        and y coordinate planes ``planes`` of shape (2, m, n), whose planes
        the prefilter reads without a copy.
    clip : ConvexPolygon
        Fixed convex clipping region.

    Returns
    -------
    (n,) array of intersection areas, clamped to 0 below ``AREA_CLAMP``.

    Rows that an edge normal of the clip keeps more than ``SEP_GAP`` away
    from it get 0.0 without clipping; the rest go through :func:`_clip_areas`,
    which would return exactly 0.0 for the flagged rows too.
    """
    subjects = np.asarray(subjects, dtype=float)
    keep = ~_separated(subjects, clip)
    areas = np.zeros(subjects.shape[0])
    areas[keep] = _clip_areas(subjects[keep], clip)
    return areas


def _separated(subjects: np.ndarray, clip: ConvexPolygon) -> np.ndarray:
    """Flag the rows whose every vertex lies strictly right of one CCW clip
    edge, with a gap above ``SEP_GAP`` (a separating clip edge normal).

    The gap grows as 1 / (shortest clip edge) below unit edge length, so it
    stays at least 1000x the distance band that ``EDGE_EPS`` gives the
    kernel on every clip edge.  The loop runs over clip edges on the (m, n)
    coordinate planes, read as views, and reads no subject orientation.
    """
    q = clip.vertices
    edges = np.roll(q, -1, axis=0) - q
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    gap = SEP_GAP / min(1.0, float(lengths.min()))
    sx, sy = subjects.transpose(2, 1, 0)
    sep = np.zeros(subjects.shape[0], dtype=bool)
    for (qx, qy), (dx, dy), length in zip(q, edges, lengths):
        reach = (dx * sy - dy * sx).max(axis=0)
        sep |= reach < dx * qy - dy * qx - gap * length
    return sep


def _clip_areas(subjects: np.ndarray, clip: ConvexPolygon) -> np.ndarray:
    """Green's-theorem areas of ``subjects[i] ∩ clip``, no prefilter.

    The boundary of S ∩ Q is the part of each subject edge inside Q and the
    part of each clip edge inside S.  An edge a -> b keeps one piece
    [t0, t1] of itself, cut where it crosses the other polygon's edge lines
    (Cyrus–Beck), and adds (t1 - t0) * cross(a, b) / 2 to the area.  A clip
    edge is cut at the point computed for the subject edge it crosses, so
    the pieces join up even where the two edges are nearly parallel.

    Tie rule: a subject edge with both ends within EDGE_EPS of a clip edge's
    line lies on it and is not cut there.  It counts as inside (closed)
    unless the two run anti-parallel, and that clip edge counts as outside
    S (strict), so a shared edge is counted once and edges that touch from
    outside count 0.  Clockwise subjects are reversed first.
    """
    sx, sy = np.asarray(subjects, dtype=float).transpose(2, 1, 0)
    cw = (sx * np.roll(sy, -1, axis=0) - np.roll(sx, -1, axis=0) * sy).sum(axis=0) < 0
    ring = np.r_[:len(sx), 0]           # edge i runs from row i to row i + 1
    sx, sy = (np.where(cw, c[ring[::-1]], c[ring]) for c in (sx, sy))
    ex, ey = np.diff(sx, axis=0), np.diff(sy, axis=0)
    t0, t1 = np.zeros_like(ex), np.ones_like(ex)
    twice = np.zeros(sx.shape[1])
    q = clip.vertices
    with np.errstate(divide="ignore", invalid="ignore"):
        for (px, py), (qx, qy) in zip(q, np.roll(q, -1, axis=0)):
            dx, dy = qx - px, qy - py
            rx, ry = sx - px, sy - py
            d = dx * ry - dy * rx           # > 0 left of the clip edge
            den = d[:-1] - d[1:]            # cross(subject edge, clip edge)
            tc = d[:-1] / den               # fmax/fmin skip a NaN: no cut
            dot = dx * ex + dy * ey
            near = np.abs(d) <= EDGE_EPS
            tied = near.any()
            if tied:                        # subject edges on the line: no cut
                on = near[:-1] & near[1:]
                tc[on] = np.nan
                t1[on & (dot < 0)] = -1.0
            enter = den < 0                 # the subject edge enters Q here
            np.fmax(t0, tc, out=t0, where=enter)
            np.fmin(t1, tc, out=t1, where=~enter)
            # ... and the clip edge leaves S at the same point
            uc = (dx * rx[:-1] + dy * ry[:-1] + tc * dot) / (dx * dx + dy * dy)
            u0 = np.fmax.reduce(np.where(enter, 0.0, uc), axis=0)
            u1 = np.fmin.reduce(np.where(enter, uc, 1.0), axis=0)
            if tied:
                u1[on.any(axis=0)] = 0.0
            twice += np.maximum(u1 - u0, 0.0) * (px * qy - py * qx)
    twice += (np.maximum(t1 - t0, 0.0) * (sx[:-1] * sy[1:] - sy[:-1] * sx[1:])).sum(axis=0)
    areas = 0.5 * twice
    areas[areas < AREA_CLAMP] = 0.0
    return areas


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
        try:
            payload = json.load(fh)
        except RecursionError as exc:
            raise BodyFormatError(f"{path}: JSON nested too deeply") from exc
    return polygon_from_dict(payload)
