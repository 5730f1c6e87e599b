"""Affine automorphism groups of convex polygons and their fixed sets.

Isotropic position (geometry.isotropic_position: centroid 0, second moment I)
conjugates every affine automorphism to an orthogonal map of the whitened
polygon, and an orthogonal symmetry must shift vertex indices cyclically
(rotations) or reverse them (reflections), leaving at most 2V candidates to
verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConvexPolygon, isotropic_position
from .unimodular import VolumePreservingAffineMap

__all__ = ["FixedSet", "SymmetryReport", "automorphism_group", "fixed_points",
           "report_to_dict"]

_VERIFY_TOL = 1e-8


@dataclass(frozen=True)
class FixedSet:
    """Common fixed points of the group: the whole plane, a line, or a point."""
    kind: str                      # "whole-plane" | "line" | "single-point"
    point: np.ndarray | None = None
    direction: np.ndarray | None = None


@dataclass(frozen=True)
class SymmetryReport:
    order: int
    kind: str                      # "trivial" | "cyclic(m)" | "dihedral(m)"
    fixed_set: FixedSet
    maps: tuple[VolumePreservingAffineMap, ...]


def automorphism_group(poly: ConvexPolygon) -> SymmetryReport:
    """Detect the affine automorphism group and its fixed set.

    Candidate orthogonal maps of the whitened polygon are verified vertexwise
    within 1e-8; the group is reported as trivial, cyclic(m) or dihedral(m)
    with the conjugated affine maps included.  The search runs on the body
    in isotropic position (see geometry.isotropic_position), and the fixed
    set and the maps' translations are scaled back by 2^e, both exactly.
    """
    x, c, w, winv, e = isotropic_position(poly)
    nv = x.shape[0]
    radii = np.linalg.norm(x, axis=1)
    angles = np.arctan2(x[:, 1], x[:, 0])

    rotations: list[np.ndarray] = []
    reflections: list[np.ndarray] = []
    idx = np.arange(nv)
    for j in range(nv):
        if abs(radii[j] - radii[0]) > _VERIFY_TOL:
            continue
        # rotation candidate: vertex i -> vertex i + j
        dtheta = angles[j] - angles[0]
        cs, sn = np.cos(dtheta), np.sin(dtheta)
        rot = np.array([[cs, -sn], [sn, cs]])
        if np.max(np.abs(x @ rot.T - x[(idx + j) % nv])) <= _VERIFY_TOL:
            rotations.append(rot)
        # reflection candidate: vertex i -> vertex j - i, axis bisects 0 and j
        psi = 0.5 * (angles[0] + angles[j])
        cs2, sn2 = np.cos(2.0 * psi), np.sin(2.0 * psi)
        ref = np.array([[cs2, sn2], [sn2, -cs2]])
        if np.max(np.abs(x @ ref.T - x[(j - idx) % nv])) <= _VERIFY_TOL:
            reflections.append(ref)

    m = len(rotations)
    r = len(reflections)
    order = m + r
    if order == 1:
        kind = "trivial"
    elif r == 0:
        kind = f"cyclic({m})"
    else:
        kind = f"dihedral({m})"

    if order == 1:
        fixed = FixedSet(kind="whole-plane")
    elif m >= 2:
        fixed = FixedSet(kind="single-point", point=np.ldexp(c, e))
    else:
        # exactly one reflection and no nontrivial rotation: a fixed line
        axis_whitened = _reflection_axis(reflections[0])
        direction = winv @ axis_whitened
        direction = direction / np.linalg.norm(direction)
        fixed = FixedSet(kind="line", point=np.ldexp(c, e), direction=direction)

    maps = []
    for g in rotations + reflections:
        lin = winv @ g @ w
        maps.append(VolumePreservingAffineMap(lin, np.ldexp(c - lin @ c, e)))
    return SymmetryReport(order=order, kind=kind, fixed_set=fixed,
                          maps=tuple(maps))


def _reflection_axis(ref: np.ndarray) -> np.ndarray:
    psi = 0.5 * np.arctan2(ref[0, 1], ref[0, 0])
    return np.array([np.cos(psi), np.sin(psi)])


def fixed_points(report: SymmetryReport, probe) -> bool:
    """Whether the probe point lies in the group's fixed set (1e-8)."""
    p = np.asarray(probe, dtype=float).reshape(2)
    fs = report.fixed_set
    if fs.kind == "whole-plane":
        return True
    if fs.kind == "single-point":
        return bool(np.linalg.norm(p - fs.point) <= _VERIFY_TOL)
    rel = p - fs.point
    off = rel - (rel @ fs.direction) * fs.direction
    return bool(np.linalg.norm(off) <= _VERIFY_TOL)


def report_to_dict(report: SymmetryReport) -> dict:
    """JSON-ready report: order, kind, and the fixed set."""
    fs: dict = {"type": report.fixed_set.kind}
    if report.fixed_set.point is not None:
        fs["point"] = [float(v) for v in report.fixed_set.point]
    if report.fixed_set.direction is not None:
        fs["direction"] = [float(v) for v in report.fixed_set.direction]
    return {"order": report.order, "kind": report.kind, "fixed_set": fs}
