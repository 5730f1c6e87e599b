import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aipoints.weightfn
import oracles
from aipoints import (
    BodyFormatError,
    ConvexPolygon,
    DegenerateBody,
    SingularMap,
    apply_affine,
    batch_intersection_area,
    canonicalize,
    intersection_area,
    normalize_to_unit_area,
    polygon_from_dict,
)
from aipoints.estimator import EstimatorConfig, estimate_tk_unit
from aipoints.geometry import _clip_areas, _separated
from oracles import hausdorff_distance, rotation, stretch

EXACT = 1e-12


def random_body(rng, n_points=12, spread=1.0):
    pts = rng.normal(size=(n_points, 2)) * spread
    return canonicalize(pts)


# ---------------------------------------------------------------- hull/ctor


def test_square_canonical_form(unit_square):
    assert unit_square.vertices.shape == (4, 2)
    assert np.allclose(unit_square.vertices[0], [0, 0], atol=EXACT)
    assert abs(unit_square.area - 1.0) < EXACT
    assert np.allclose(unit_square.centroid, [0.5, 0.5], atol=EXACT)


def test_collinear_point_dropped():
    tri = canonicalize([[0, 0], [1, 0], [0.5, 0], [0, 1]])
    assert tri.vertices.shape == (3, 2)
    assert np.allclose(tri.vertices, [[0, 0], [1, 0], [0, 1]], atol=EXACT)


def test_hull_matches_gift_wrapping():
    # 100 random points in a disk, hull checked against the O(n^2) oracle
    rng = np.random.default_rng(42)
    for _ in range(20):
        r = np.sqrt(rng.random(100))
        ang = rng.random(100) * 2 * np.pi
        pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
        ours = canonicalize(pts).vertices
        ref = oracles.gift_wrap_hull(pts)
        assert len(ours) == len(ref)
        # same cyclic order; align on the oracle's copy of our first vertex
        shift = int(np.argmin(np.linalg.norm(ref - ours[0], axis=1)))
        assert np.allclose(np.roll(ref, -shift, axis=0), ours, atol=1e-9)


def test_degenerate_inputs_rejected():
    with pytest.raises(DegenerateBody):
        canonicalize([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(DegenerateBody):
        canonicalize([[0, 0], [0, 0], [1e-16, 0]])
    with pytest.raises(DegenerateBody):
        ConvexPolygon([[0, 0], [1, 1], [1, 0]])  # clockwise
    with pytest.raises(DegenerateBody):
        ConvexPolygon([[0, 0], [1, 0], [2, 0], [0, 1]])  # collinear triple


# ---------------------------------------------------------------- area/centroid


def test_triangle_area_centroid(triangle):
    assert abs(triangle.area - 0.5) < EXACT
    assert np.allclose(triangle.centroid, [1 / 3, 1 / 3], atol=EXACT)


def test_quad_area_centroid_exact(quad_raw):
    # shoelace closed forms for the fixture quadrilateral
    assert abs(quad_raw.area - 1.035) < EXACT
    assert np.allclose(quad_raw.centroid, [3.745 / 6.21, 3.053 / 6.21], atol=1e-12)


def test_area_centroid_far_from_origin(quad_raw, unit_square):
    # the shoelace sums run about the first vertex, so a shift that is large
    # against the body's size costs only the rounding of the coordinates
    for shift in (1e4, 1e6):
        moved = canonicalize(quad_raw.vertices + shift)
        assert np.allclose(moved.centroid, quad_raw.centroid + shift,
                           rtol=0.0, atol=1e-14 * shift)
        assert moved.area == pytest.approx(quad_raw.area, rel=1e-9)
    tiny = canonicalize(1000.0 + 1e-3 * unit_square.vertices)
    assert np.allclose(tiny.centroid, 1000.0005, rtol=0.0, atol=EXACT)
    assert tiny.area == pytest.approx(1e-6, rel=1e-9)
    assert oracles.contains(tiny.vertices, tiny.centroid[None])[0]


def test_area_centroid_vs_rejection_oracle(quad_raw, rng):
    a = oracles.mc_area(quad_raw.vertices, rng, n=1_000_000)
    se_a = 1.43 * np.sqrt(0.724 * 0.276 / 1_000_000)
    assert abs(a - quad_raw.area) < 3 * se_a
    c = oracles.mc_centroid(quad_raw.vertices, rng, n=1_000_000)
    # spread of uniform samples in the body is ~0.25 per axis
    assert np.all(np.abs(c - quad_raw.centroid) < 3 * 0.3 / np.sqrt(700_000))


# ---------------------------------------------------------------- affine images


def test_apply_affine_reflection(unit_square):
    img = apply_affine((np.diag([-1.0, 1.0]), np.zeros(2)), unit_square)
    assert np.allclose(img.vertices.min(axis=0), [-1, 0], atol=EXACT)
    assert np.allclose(img.vertices.max(axis=0), [0, 1], atol=EXACT)
    assert abs(img.area - 1.0) < EXACT


def test_apply_affine_area_scaling(rng):
    for _ in range(25):
        body = random_body(rng)
        mat = rng.normal(size=(2, 2))
        if abs(np.linalg.det(mat)) < 0.1:
            continue
        img = apply_affine((mat, rng.normal(size=2)), body)
        assert abs(img.area - abs(np.linalg.det(mat)) * body.area) < 1e-9 * body.area


def test_apply_affine_centroid_equivariance(rng):
    for _ in range(25):
        body, _ = normalize_to_unit_area(random_body(rng))
        mat = rng.normal(size=(2, 2))
        if abs(np.linalg.det(mat)) < 0.1:
            continue
        shift = rng.normal(size=2)
        img = apply_affine((mat, shift), body)
        assert np.allclose(img.centroid, mat @ body.centroid + shift, atol=1e-10)


def test_apply_affine_singular_rejected(unit_square):
    with pytest.raises(SingularMap):
        apply_affine((np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2)), unit_square)


# ---------------------------------------------------------------- intersection


def test_intersection_trivial_exact(unit_square, quad_raw):
    shifted = apply_affine((np.eye(2), np.array([0.5, 0.0])), unit_square)
    assert abs(intersection_area(unit_square, shifted) - 0.5) < EXACT
    assert abs(intersection_area(quad_raw, quad_raw) - quad_raw.area) < EXACT
    far = apply_affine((np.eye(2), np.array([10.0, 0.0])), unit_square)
    assert intersection_area(unit_square, far) == 0.0
    # coincident bodies, in canonical, rolled and reversed vertex order
    v = quad_raw.vertices
    same = batch_intersection_area(np.stack([v, np.roll(v, 1, axis=0), v[::-1]]), quad_raw)
    assert np.all(np.abs(same - quad_raw.area) < EXACT)
    # nested and containing bodies
    inner = canonicalize([[0.2, 0.2], [0.8, 0.2], [0.5, 0.9]])
    outer = canonicalize([[-1, -1], [3, -1], [3, 3], [-1, 3]])
    for p, q in ((inner, unit_square), (unit_square, inner)):
        assert abs(intersection_area(p, q) - inner.area) < EXACT
    for p, q in ((outer, unit_square), (unit_square, outer)):
        assert abs(intersection_area(p, q) - 1.0) < EXACT
    # edge and corner touching from outside, on lines off the origin
    for verts in ([[1, 0], [2, 0], [2, 1], [1, 1]], [[1, 0.5], [2, 0.5], [2, 1.5], [1, 1.5]],
                  [[1, 1], [2, 1], [2, 2], [1, 2]], [[1, 1], [2, 1], [1, 2]]):
        touch = canonicalize(verts)
        assert intersection_area(touch, unit_square) == 0.0
        assert intersection_area(unit_square, touch) == 0.0
    for j in range(len(v)):  # point reflection through an edge midpoint
        mid = v[j] + v[(j + 1) % len(v)]
        assert intersection_area(canonicalize(mid - v), quad_raw) == 0.0
    # slivers of width 1e-10 along a clip edge, inside and outside
    w = 1e-10
    inside = [[1 - w, 0.2], [1, 0.2], [1, 0.7], [1 - w, 0.7]]
    outside = [[1, 0.2], [1 + w, 0.2], [1 + w, 0.7], [1, 0.7]]
    assert abs(batch_intersection_area(np.array([inside]), unit_square)[0] - 0.5 * w) < 1e-15
    assert batch_intersection_area(np.array([outside]), unit_square)[0] == 0.0
    a, b = v[1], v[2]  # a slanted edge of quad_raw
    normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))  # outward
    for side, expect in ((-1.0, w * np.hypot(*(b - a)) * 0.5), (1.0, 0.0)):
        sliver = [a + 0.25 * (b - a), a + 0.75 * (b - a)]
        sliver += [p + side * w * normal for p in sliver[::-1]]
        area = batch_intersection_area(np.array([sliver]), quad_raw)[0]
        assert abs(area - expect) < 1e-15, side


def test_intersection_octagon_case(unit_square):
    # square against itself rotated 45 degrees about its center
    c = np.array([0.5, 0.5])
    rot = rotation(np.pi / 4)
    img = apply_affine((rot, c - rot @ c), unit_square)
    assert abs(intersection_area(unit_square, img) - 2 * (np.sqrt(2) - 1)) < 1e-12


def test_intersection_vs_rejection_oracle(rng):
    for _ in range(12):
        p = random_body(rng)
        q = apply_affine((np.eye(2), rng.normal(size=2) * 0.5), random_body(rng))
        ours = intersection_area(p, q)
        box = np.prod(p.vertices.max(0) - p.vertices.min(0))
        est = oracles.mc_intersection_area(p.vertices, q.vertices, rng, n=400_000)
        frac = max(ours / box, 1e-6)
        se = box * np.sqrt(frac * (1 - min(frac, 0.999)) / 400_000)
        assert abs(ours - est) < 4 * se + 1e-6


def test_intersection_symmetry_and_bounds(rng):
    for _ in range(40):
        p = random_body(rng)
        q = apply_affine((np.eye(2), rng.normal(size=2) * 0.4), random_body(rng))
        ab = intersection_area(p, q)
        ba = intersection_area(q, p)
        assert abs(ab - ba) < 1e-12
        assert -1e-15 <= ab <= min(p.area, q.area) + 1e-12


def test_intersection_affine_invariance(rng):
    for _ in range(20):
        p = random_body(rng)
        q = apply_affine((np.eye(2), rng.normal(size=2) * 0.4), random_body(rng))
        base = intersection_area(p, q)
        m = rotation(rng.random() * 7) @ stretch(np.exp(rng.normal() * 0.4))
        shift = rng.normal(size=2)
        moved = intersection_area(apply_affine((m, shift), p),
                                  apply_affine((m, shift), q))
        assert abs(moved - base) <= 1e-9 * max(base, 1.0)


def test_batch_matches_scalar(rng):
    clip = random_body(rng, n_points=8)
    subjects = []
    expect = []
    for _ in range(50):
        body = random_body(rng, n_points=6)
        if body.vertices.shape[0] != 4:
            continue
        subjects.append(body.vertices)
        expect.append(intersection_area(body, clip))
    areas = batch_intersection_area(np.array(subjects), clip)
    assert np.allclose(areas, expect, atol=1e-12)


def test_disk_support_and_slab_bounds():
    """Kernel-level support/thin-slab bounds on 256-gon approximations of disks."""
    ang = 2 * np.pi * np.arange(256) / 256
    disk = canonicalize(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    rng = np.random.default_rng(7)
    for _ in range(60):
        t = rng.random() * np.log(6.0)
        th1, th2 = rng.random(2) * 2 * np.pi
        m = rotation(th1) @ stretch(np.exp(t)) @ rotation(th2)
        lam1, lam2 = np.exp(t), np.exp(-t)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        beyond = apply_affine((m, (lam1 + 1) * 1.0001 * u), disk)
        assert intersection_area(disk, beyond) == 0.0
        inside = apply_affine((m, rng.normal(size=2) * 0.5), disk)
        assert intersection_area(disk, inside) <= 4 * lam2 + 1e-3


# ---------------------------------------------------------------- miss prefilter

Q0_UNIT = normalize_to_unit_area(canonicalize([[0, 0], [1, 0], [1.3, 0.8], [0.2, 1.1]]))[0]
_ANG64 = 2 * np.pi * np.arange(64) / 64
GON64 = normalize_to_unit_area(
    canonicalize(np.stack([np.cos(_ANG64), np.sin(_ANG64)], 1)))[0]


def _outward_normals(verts):
    """Unit outward edge normals of a polygon given in either orientation."""
    nxt = np.roll(verts, -1, axis=0)
    e = nxt - verts
    sign = np.sign(np.sum(verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1]))
    return sign * np.stack([e[:, 1], -e[:, 0]], 1) / np.hypot(e[:, 0], e[:, 1])[:, None]


# One subject per row: a polygon with m vertices on a circle, mapped by
# R(th1) diag(lam1, 1/lam1) R(th2), reflected (clockwise) or not, then moved
# so that it touches the clip along an edge normal of one of the two bodies.
# ``gap`` is the offset along that normal when > 0 (separated).  When < 0
# the touching vertex moves by |gap| toward the centre of the other body,
# so it lies inside it (overlapping): along the normal it could end up
# outside at an acute corner (u = 0 or 1).
_ROW = st.fixed_dictionaries({
    "jitter": st.lists(st.floats(0.0, 0.8), min_size=8, max_size=8),
    "log_lam1": st.floats(0.0, float(np.log(32.0))),
    "th1": st.floats(0.0, 2 * np.pi),
    "th2": st.floats(0.0, 2 * np.pi),
    "reflect": st.booleans(),
    "clip_side": st.booleans(),
    "edge": st.integers(0, 63),
    "u": st.floats(0.0, 1.0),
    "gap": st.one_of(st.just(0.0),
                     st.builds(lambda sgn, e: sgn * 10.0 ** e,
                               st.sampled_from((-1.0, 1.0)), st.floats(-16.0, -4.0))),
})


def _toward(verts, point):
    """Unit vector from the vertex mean of a convex polygon to a point."""
    d = point - verts.mean(axis=0)
    return d / np.linalg.norm(d)


def _contact_subject(row, m, clip):
    ang = 2 * np.pi * (np.arange(m) + np.array(row["jitter"][:m])) / m
    base = np.stack([np.cos(ang), np.sin(ang)], 1)
    c1, s1, c2, s2 = (np.cos(row["th1"]), np.sin(row["th1"]),
                      np.cos(row["th2"]), np.sin(row["th2"]))
    lam1 = np.exp(row["log_lam1"])
    mat = (np.array([[c1, -s1], [s1, c1]]) @ np.diag([lam1, 1 / lam1])
           @ np.array([[c2, -s2], [s2, c2]]))
    if row["reflect"]:
        mat = mat @ np.diag([1.0, -1.0])
    subj = base @ mat.T
    q = clip.vertices
    gap = row["gap"]
    if row["clip_side"]:
        # a subject vertex on a clip edge, pushed out along its normal
        j = row["edge"] % len(q)
        normal = _outward_normals(q)[j]
        point = q[j] + row["u"] * (q[(j + 1) % len(q)] - q[j])
        i = int(np.argmin(subj @ normal))
        if gap < 0:
            normal = _toward(q, point)
        return subj + (point + gap * normal - subj[i])
    # a clip vertex on a subject edge, the subject pushed away from it
    i = row["edge"] % m
    normal = _outward_normals(subj)[i]
    point = subj[i] + row["u"] * (subj[(i + 1) % m] - subj[i])
    j = int(np.argmin(q @ normal))
    if gap < 0:
        normal = _toward(subj, point)
    return subj + (q[j] - gap * normal - point)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(3, 8), clip=st.sampled_from((Q0_UNIT, GON64)),
       rows=st.lists(_ROW, min_size=1, max_size=24))
def test_prefilter_matches_kernel_on_contacts(m, clip, rows):
    subjects = np.array([_contact_subject(row, m, clip) for row in rows])
    gaps = np.array([row["gap"] for row in rows])
    clip_side = np.array([row["clip_side"] for row in rows])
    areas = _clip_areas(subjects, clip)
    assert np.array_equal(batch_intersection_area(subjects, clip), areas)
    assert np.abs(areas - oracles.sutherland_hodgman_areas(subjects, clip)).max() <= 1e-12
    flagged = _separated(subjects, clip)
    # only clip edge normals are tried, so only rows pushed out along one
    # must be flagged
    assert flagged[clip_side & (gaps >= 1e-6)].all()
    assert not flagged[gaps <= 0.0].any()


def test_kernel_ties_parallel_edge_just_outside():
    # a regular hexagon whose top edge runs parallel to unit Q0's bottom
    # edge, inside the EDGE_EPS band below it: the tied, anti-parallel edges
    # count 0, so the area is exactly 0.0 with and without the prefilter
    ang = np.pi / 3 * np.arange(6)
    hexagon = 0.3 * np.stack([np.cos(ang), np.sin(ang)], 1)
    top = hexagon[:, 1].max()
    mid = 0.5 * (Q0_UNIT.vertices[0] + Q0_UNIT.vertices[1])
    assert Q0_UNIT.vertices[0, 1] == Q0_UNIT.vertices[1, 1] == 0.0
    subjects = np.array([hexagon + [mid[0], -gap - top]
                         for gap in (1e-13, 5.7e-13, 9e-13)])
    subjects = np.concatenate([subjects, subjects[:, ::-1]])  # and clockwise
    assert np.all(subjects[:, :, 1].max(axis=1) < 0.0)
    assert np.array_equal(batch_intersection_area(subjects, Q0_UNIT), np.zeros(6))
    assert np.array_equal(_clip_areas(subjects, Q0_UNIT), np.zeros(6))


def test_prefilter_leaves_estimate_bitwise_unchanged(monkeypatch):
    cfg = EstimatorConfig(k=4, R=16.0, samples=20_000, seed=0)
    anchor = Q0_UNIT.centroid + np.array([0.1, -0.05])
    filtered = estimate_tk_unit(Q0_UNIT, anchor, Q0_UNIT, cfg)
    monkeypatch.setattr(aipoints.weightfn, "batch_intersection_area", _clip_areas)
    unfiltered = estimate_tk_unit(Q0_UNIT, anchor, Q0_UNIT, cfg)
    for field in fields(filtered):
        a, b = getattr(filtered, field.name), getattr(unfiltered, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


# ---------------------------------------------------------------- hausdorff


def test_hausdorff_basic(unit_square, quad_raw):
    assert hausdorff_distance(unit_square, unit_square) == 0.0
    for t in (0.1, 0.5, 2.0):
        moved = apply_affine((np.eye(2), np.array([t, 0.0])), unit_square)
        d = hausdorff_distance(unit_square, moved)
        assert abs(d - t) < EXACT
        assert abs(hausdorff_distance(moved, unit_square) - d) < EXACT
    assert hausdorff_distance(unit_square, quad_raw) > 0


def test_hausdorff_vs_dense_boundary_oracle(rng):
    for _ in range(8):
        p = random_body(rng, n_points=7)
        q = random_body(rng, n_points=7)
        ours = hausdorff_distance(p, q)
        per_edge = 10_000 // len(p.vertices) + 1
        ref = oracles.dense_hausdorff(p.vertices, q.vertices, per_edge=per_edge)
        assert abs(ours - ref) < 1e-6


def test_hausdorff_triangle_inequality(rng):
    for _ in range(15):
        a, b, c = (random_body(rng, n_points=6) for _ in range(3))
        assert hausdorff_distance(a, c) <= (
            hausdorff_distance(a, b) + hausdorff_distance(b, c) + 1e-12)


# ---------------------------------------------------------------- scaling / io


def test_normalize_to_unit_area(unit_square, quad_raw):
    same, s = normalize_to_unit_area(unit_square)
    assert s == 1.0 and same.isclose(unit_square)
    big = canonicalize([[0, 0], [2, 0], [2, 2], [0, 2]])
    unit, s2 = normalize_to_unit_area(big)
    assert s2 == 2.0 and abs(unit.area - 1.0) < EXACT
    q, s3 = normalize_to_unit_area(quad_raw)
    assert abs(q.area - 1.0) < EXACT
    assert abs(s3 * s3 - quad_raw.area) < EXACT
    assert np.allclose(q.vertices * s3, quad_raw.vertices, atol=EXACT)


def test_normalized_area_random(rng):
    for _ in range(30):
        body = random_body(rng, spread=rng.random() * 5 + 0.1)
        unit, _ = normalize_to_unit_area(body)
        assert abs(unit.area - 1.0) < 1e-12


def test_json_roundtrip(quad_raw):
    blob = json.dumps({"vertices": quad_raw.vertices.tolist()})
    back = polygon_from_dict(json.loads(blob))
    assert back.isclose(quad_raw)


def test_bad_body_payloads():
    for payload in ({}, {"vertices": []}, {"vertices": [[0, 0], [1, 0]]},
                    {"vertices": [[0, 0], [1, "x"], [0, 1]]},
                    {"vertices": [[0, 0], [1, float("nan")], [0, 1]]},
                    {"points": [[0, 0], [1, 0], [0, 1]]},
                    # (n, 2) only: no reshaping of other shapes
                    {"vertices": [[0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 0]]},
                    {"vertices": [0, 0, 1, 0, 1, 1, 0, 1]}):
        with pytest.raises(BodyFormatError):
            polygon_from_dict(payload)
