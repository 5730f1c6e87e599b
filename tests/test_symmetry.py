"""Affine automorphism groups: classifications, fixed sets, covariance.

Everything here is about the *affine* group, which is bigger than the
isometry group: every triangle is dihedral(3), every rectangle dihedral(4).
"""

import json

import numpy as np
import pytest

from aipoints import (
    apply_affine,
    automorphism_group,
    canonicalize,
    fixed_points,
    report_to_dict,
)
from aipoints.symmetry import _second_moment, _sym_inv_sqrt

from oracles import hausdorff_distance


def _trapezoid():
    return canonicalize(np.array([[-1, 0], [1, 0], [0.5, 1], [-0.5, 1]], float))


def _pinwheel_hexagon():
    half = np.array([[1, 0.1], [0.2, 1.3], [-0.9, 0.8]], float)
    return canonicalize(np.concatenate([half, -half]))


def _random_affine(rng):
    while True:
        mat = rng.normal(size=(2, 2))
        if abs(np.linalg.det(mat)) > 0.3:
            return mat, rng.uniform(-2, 2, 2)


def test_square_group(unit_square):
    rep = automorphism_group(unit_square)
    assert rep.order == 8
    assert rep.kind == "dihedral(4)"
    assert rep.fixed_set.kind == "single-point"
    assert np.allclose(rep.fixed_set.point, [0.5, 0.5], atol=1e-9)
    assert len(rep.maps) == 8



def test_triangle_group_at_extreme_scales():
    # the search runs on the body scaled by a power of two: legs of 1e100
    # used to end in an IndexError, legs of 1e-120 in "covariance not
    # positive definite"
    for s in (1e100, 1e-100, 1e-120):
        body = canonicalize([[0, 0], [s, 0], [0, s]])
        report = automorphism_group(body)
        assert (report.kind, report.order) == ("dihedral(3)", 6), s
        assert np.allclose(report.fixed_set.point, body.centroid, rtol=1e-15, atol=0)
        for g in report.maps:
            assert hausdorff_distance(canonicalize(g.apply(body.vertices)),
                                      body) <= 1e-9 * s


def test_triangle_group(triangle):
    # any triangle is an affine image of the equilateral one, so the affine
    # group is the full vertex-permutation group
    rep = automorphism_group(triangle)
    assert rep.order == 6
    assert rep.kind == "dihedral(3)"
    assert np.allclose(rep.fixed_set.point, [1 / 3, 1 / 3], atol=1e-9)
    verts = triangle.vertices
    seen = set()
    for tau in rep.maps:
        image = tau.apply(verts)
        dists = np.linalg.norm(image[:, None, :] - verts[None, :, :], axis=2)
        match = dists.argmin(axis=1)
        assert dists[np.arange(3), match].max() <= 1e-8
        assert sorted(match) == [0, 1, 2]
        seen.add(tuple(match))
    assert len(seen) == 6  # all six permutations realized


def test_rectangle_is_affinely_square():
    rect = canonicalize(np.array([[0, 0], [2, 0], [2, 0.5], [0, 0.5]], float))
    rep = automorphism_group(rect)
    assert rep.order == 8 and rep.kind == "dihedral(4)"
    assert np.allclose(rep.fixed_set.point, [1.0, 0.25], atol=1e-9)


def test_generic_quadrilateral_trivial(quad_unit):
    rep = automorphism_group(quad_unit)
    assert rep.order == 1
    assert rep.kind == "trivial"
    assert rep.fixed_set.kind == "whole-plane"
    assert len(rep.maps) == 1  # the identity


def test_trapezoid_single_reflection():
    rep = automorphism_group(_trapezoid())
    assert rep.order == 2
    assert rep.kind == "dihedral(1)"
    fs = rep.fixed_set
    assert fs.kind == "line"
    assert abs(abs(fs.direction[1]) - 1.0) <= 1e-9  # vertical mirror axis
    assert abs(fs.point[0]) <= 1e-9


def test_pinwheel_cyclic_two():
    rep = automorphism_group(_pinwheel_hexagon())
    assert rep.order == 2
    assert rep.kind == "cyclic(2)"
    assert rep.fixed_set.kind == "single-point"
    assert np.allclose(rep.fixed_set.point, [0.0, 0.0], atol=1e-9)


def test_reported_maps_are_symmetries(unit_square, triangle, quad_unit):
    for poly in (unit_square, triangle, quad_unit, _trapezoid(),
                 _pinwheel_hexagon()):
        rep = automorphism_group(poly)
        verts = poly.vertices
        diam = max(np.linalg.norm(a - b) for a in verts for b in verts)
        for tau in rep.maps:
            assert abs(abs(np.linalg.det(tau.linear)) - 1.0) <= 1e-9
            moved = apply_affine((tau.linear, tau.translation), poly)
            assert hausdorff_distance(moved, poly) <= 1e-7 * diam


def test_affine_invariance_of_classification(unit_square, triangle, quad_unit,
                                             rng):
    for poly in (unit_square, triangle, quad_unit, _trapezoid(),
                 _pinwheel_hexagon()):
        base = automorphism_group(poly)
        for _ in range(5):
            mat, shift = _random_affine(rng)
            moved = apply_affine((mat, shift), poly)
            rep = automorphism_group(moved)
            assert rep.order == base.order
            assert rep.kind == base.kind
            assert rep.fixed_set.kind == base.fixed_set.kind
            scale = 1.0 + np.linalg.norm(mat, 2)
            if base.fixed_set.kind == "single-point":
                want = mat @ base.fixed_set.point + shift
                assert np.linalg.norm(rep.fixed_set.point - want) <= 1e-7 * scale
            elif base.fixed_set.kind == "line":
                want_dir = mat @ base.fixed_set.direction
                want_dir /= np.linalg.norm(want_dir)
                got_dir = rep.fixed_set.direction
                assert min(np.linalg.norm(got_dir - want_dir),
                           np.linalg.norm(got_dir + want_dir)) <= 1e-7 * scale
                want_pt = mat @ base.fixed_set.point + shift
                rel = want_pt - rep.fixed_set.point
                off = rel - (rel @ got_dir) * got_dir
                assert np.linalg.norm(off) <= 1e-7 * scale


def test_whitening_normalizes(unit_square, quad_unit, rng):
    for poly in (unit_square, quad_unit, _trapezoid()):
        w = _sym_inv_sqrt(_second_moment(poly))
        white = canonicalize((poly.vertices - poly.centroid) @ w.T)
        assert np.linalg.norm(white.centroid) <= 1e-9
        assert np.max(np.abs(_second_moment(white) - np.eye(2))) <= 1e-9


def test_near_symmetry_sharp_cutoff():
    # a generic 1e-6 nudge of one vertex kills every symmetry at the 1e-8
    # verification tolerance
    verts = np.array([[0, 0], [1, 0], [1 + 1e-6, 1 + 2e-6], [0, 1]], float)
    rep = automorphism_group(canonicalize(verts))
    assert rep.order == 1 and rep.kind == "trivial"
    # but a nudge that keeps the top and bottom sides parallel leaves a
    # trapezoid, and every trapezoid carries an affine reflection: the
    # affine group sees parallelism, not angles
    verts = np.array([[0, 0], [1, 0], [1 + 1e-3, 1], [0, 1]], float)
    rep = automorphism_group(canonicalize(verts))
    assert rep.order == 2 and rep.kind == "dihedral(1)"


def test_fixed_points_membership(unit_square, quad_unit):
    sq = automorphism_group(unit_square)
    assert fixed_points(sq, (0.5, 0.5))
    assert not fixed_points(sq, (0.0, 0.0))
    q0 = automorphism_group(quad_unit)
    assert fixed_points(q0, (0.5, 0.5))
    assert fixed_points(q0, (137.0, -9.0))
    trap = automorphism_group(_trapezoid())
    assert fixed_points(trap, (0.0, 0.9))
    assert fixed_points(trap, np.asarray(trap.fixed_set.point)
                        + 0.37 * np.asarray(trap.fixed_set.direction))
    assert not fixed_points(trap, (0.01, 0.9))


def test_report_serialization(unit_square, quad_unit):
    for poly, fs_type in ((unit_square, "single-point"),
                          (quad_unit, "whole-plane"),
                          (_trapezoid(), "line")):
        payload = report_to_dict(automorphism_group(poly))
        assert set(payload) == {"order", "kind", "fixed_set"}
        assert payload["fixed_set"]["type"] == fs_type
        round_trip = json.loads(json.dumps(payload))
        assert round_trip == payload
    line = report_to_dict(automorphism_group(_trapezoid()))["fixed_set"]
    assert np.hypot(*line["direction"]) == pytest.approx(1.0, abs=1e-12)
    assert "point" in line
