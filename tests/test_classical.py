"""Centroid and inscribed-ellipse point rules: known values, feasibility,
optimality, equivariance."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import aipoints.classical
from aipoints import (
    ConvergenceFailure,
    apply_affine,
    canonicalize,
    john_center,
    john_ellipse,
)

import oracles
from aipoints.classical import _cones, _grad_hess, _objective

BENCH = Path(__file__).resolve().parents[1] / "bench"

# max-area inscribed ellipse of the right triangle: area(T) / (3 sqrt(3))
TRIANGLE_DET = 0.5 / (3.0 * np.sqrt(3.0))
# regular pentagon, unit circumradius: the incircle, radius cos(pi/5)
PENTAGON_DET = np.cos(np.pi / 5.0) ** 2


def _pentagon(shift=(0.0, 0.0)):
    ang = 2.0 * np.pi * np.arange(5) / 5.0 + np.pi / 2.0
    return canonicalize(np.stack([np.cos(ang), np.sin(ang)], axis=1)
                        + np.asarray(shift))


def _random_poly(rng):
    while True:
        pts = (rng.normal(size=(int(rng.integers(4, 9)), 2))
               * rng.uniform(0.5, 2.0, 2) + rng.normal(size=2))
        hull = oracles.gift_wrap_hull(pts)
        if len(hull) >= 4:
            return canonicalize(hull)


def _random_affine(rng, stretch=0.7):
    th1, th2 = rng.uniform(0, 2 * np.pi, 2)
    r1 = np.array([[np.cos(th1), -np.sin(th1)], [np.sin(th1), np.cos(th1)]])
    r2 = np.array([[np.cos(th2), -np.sin(th2)], [np.sin(th2), np.cos(th2)]])
    s = np.exp(rng.normal() * stretch)
    return r1 @ np.diag([s, 1.0 / s]) @ r2, rng.uniform(-2, 2, 2)


def test_centroid_rule_basics(unit_square, triangle):
    assert np.allclose(unit_square.centroid, [0.5, 0.5], atol=1e-12)
    assert np.allclose(triangle.centroid, triangle.vertices.mean(axis=0),
                       atol=1e-12)


def test_centroid_rule_equivariance(rng):
    for _ in range(25):
        poly = _random_poly(rng)
        mat, shift = _random_affine(rng)
        mat = mat * rng.uniform(0.5, 2.0)  # general invertible, not just det 1
        moved = apply_affine((mat, shift), poly)
        want = mat @ np.array(poly.centroid) + shift
        assert np.allclose(moved.centroid, want, atol=1e-10)


def test_john_square(unit_square):
    c, a = john_ellipse(unit_square)
    assert np.allclose(c, [0.5, 0.5], atol=1e-6)
    assert np.linalg.det(a) == pytest.approx(0.25, abs=1e-7)


def test_john_triangle(triangle):
    c, a = john_ellipse(triangle)
    assert np.allclose(c, [1.0 / 3.0, 1.0 / 3.0], atol=1e-6)
    assert np.linalg.det(a) == pytest.approx(TRIANGLE_DET, abs=1e-7)


def test_john_pentagon():
    c, a = john_ellipse(_pentagon())
    assert np.linalg.norm(c) <= 1e-6
    assert np.linalg.det(a) == pytest.approx(PENTAGON_DET, abs=1e-7)
    shift = np.array([1.7, -0.3])
    c2, a2 = john_ellipse(_pentagon(shift))
    assert np.allclose(c2, shift, atol=1e-6)
    assert np.linalg.det(a2) == pytest.approx(PENTAGON_DET, abs=1e-7)


def test_john_feasible_and_matches_sqp(rng):
    for _ in range(10):
        poly = _random_poly(rng)
        c, a = john_ellipse(poly)
        assert oracles.ellipse_in_polygon(c, a, poly.vertices, tol=-1e-8)
        co, ao = oracles.sqp_max_ellipse(poly.vertices)
        assert np.linalg.norm(c - co) <= 1e-6
        assert np.linalg.det(a) == pytest.approx(np.linalg.det(ao), abs=1e-6)


def test_john_dominates_pattern_search(rng):
    for seed in (0, 1, 2):
        poly = _random_poly(rng)
        c, a = john_ellipse(poly)
        cp, ap = oracles.pattern_search_max_ellipse(poly.vertices, seed=seed)
        assert oracles.ellipse_in_polygon(cp, ap, poly.vertices)
        assert np.linalg.det(a) >= np.linalg.det(ap) - 1e-9


def test_john_local_max_certificate(rng):
    # no feasible nudge of the optimum grows the area beyond second-order dust
    poly = _random_poly(rng)
    c, a = john_ellipse(poly)
    det = np.linalg.det(a)
    theta = np.array([c[0], c[1], a[0, 0], a[0, 1], a[1, 1]])
    scale = max(1.0, float(np.abs(theta).max()))
    tried = kept = 0
    for _ in range(400):
        cand = theta + 1e-4 * scale * rng.normal(size=5)
        cc = cand[:2]
        ca = np.array([[cand[2], cand[3]], [cand[3], cand[4]]])
        if np.linalg.eigvalsh(ca)[0] <= 0:
            continue
        tried += 1
        if oracles.ellipse_in_polygon(cc, ca, poly.vertices):
            kept += 1
            assert np.linalg.det(ca) <= det + 1e-7 * max(det, 1.0)
    assert tried > 100 and kept > 0


def test_john_equivariance(rng):
    for _ in range(10):
        poly = _random_poly(rng)
        base = john_center(poly)
        mat, shift = _random_affine(rng, stretch=0.4)
        if rng.random() < 0.5:
            mat = mat * 1.6  # general affine; the ellipse problem transports
        moved = apply_affine((mat, shift), poly)
        want = mat @ base + shift
        tol = 1e-5 * max(1.0, float(np.linalg.norm(mat, 2)))
        assert np.linalg.norm(john_center(moved) - want) <= tol


def test_john_centrally_symmetric(rng):
    ang = np.pi * np.arange(3) / 3.0
    hexa = np.concatenate([np.stack([np.cos(ang), np.sin(ang)], axis=1),
                           -np.stack([np.cos(ang), np.sin(ang)], axis=1)])
    for _ in range(5):
        mat, shift = _random_affine(rng, stretch=0.5)
        body = canonicalize(hexa @ mat.T + shift)
        assert np.linalg.norm(john_center(body) - shift) <= 1e-6


def test_rules_land_inside(rng):
    for _ in range(10):
        poly = _random_poly(rng)
        for p in (john_center(poly), np.array(poly.centroid)):
            assert oracles.contains(poly.vertices, p[None])[0]


def test_john_far_from_origin(quad_raw, unit_square):
    # the solver starts at the centroid, which must survive a large shift
    base = john_center(quad_raw)
    for shift in (1e4, 1e6):
        moved = canonicalize(quad_raw.vertices + shift)
        assert np.linalg.norm(john_center(moved) - base - shift) <= 1e-8
    tiny = canonicalize(1000.0 + 1e-3 * unit_square.vertices)
    c = john_center(tiny)
    assert np.allclose(c, 1000.0005, rtol=0.0, atol=1e-9)   # 1e-6 of the side
    assert oracles.contains(tiny.vertices, c[None])[0]



def test_john_center_at_extreme_scales():
    # the solver runs on the body scaled by a power of two; at legs of 1e100
    # its Hessian overflowed, at 1e-120 it divided by zero and returned
    # [0, 0].  The John centre of a triangle is its centroid
    for s in (1e100, 1e-100, 1e-120):
        body = canonicalize([[0, 0], [s, 0], [0, s]])
        with np.errstate(all="raise"):
            center = john_center(body)
        assert np.allclose(center, body.centroid, rtol=1e-9, atol=0), s


def test_john_thin_triangles():
    # a triangle's John centre is its centroid.  The solver runs in the
    # body's isotropic position; on the body as it is, the Newton systems of
    # a triangle of aspect 1e5 reached condition numbers near 1e17 and the
    # centre came out 1.7e-4 of the triangle's height off
    turn = oracles.rotation(0.6435)
    for height in (1e-3, 1e-5):
        body = canonicalize([[0.0, 0.0], [1.0, 0.0], [0.9, height]] @ turn.T
                            + [3.0, -2.0])
        center = john_center(body)
        assert np.linalg.norm(center - body.centroid) <= 1e-6 * height, height


def test_grad_hess_matches_central_differences(rng):
    # Units of r, half the least edge slack at the centroid: A = r R diag(1.3,
    # 0.7) R^T and |c - centroid| <= 0.3 r keep every s_i >= 1.7 and every
    # phi_i >= 1.2, so each derivative order of f costs a factor <= ~6.  With
    # h = 1e-4 the truncation error is ~(6h)^2 = 4e-7 of the largest entry
    # and the round-off eps |f| / h^2 is ~1e-6 of it: rtol 1e-5.
    h = 1e-4
    for _ in range(6):
        poly = _random_poly(rng)
        cones = _cones(poly.vertices)
        centroid = np.array(poly.centroid)
        r = 0.5 * float(np.min(cones.z0[:, 0] + cones.maps[:, 0, 3:] @ centroid))
        rot = oracles.rotation(rng.uniform(0.0, np.pi))
        amat = r * rot @ np.diag([1.3, 0.7]) @ rot.T
        c = centroid + 0.3 * r * rng.uniform(-0.7, 0.7, 2)
        theta = np.array([amat[0, 0], amat[0, 1], amat[1, 1], *c])
        for mu in (1.0, 1e-3):
            def f(t):
                return _objective(theta + r * np.asarray(t), cones, mu)
            grad, hess, _ = _grad_hess(theta, cones, mu)
            grad, hess = r * grad, r * r * hess     # derivatives in units of r
            eye = h * np.eye(5)
            fd_grad = np.array([(f(e) - f(-e)) / (2 * h) for e in eye])
            fd_hess = np.array([[(f(ei + ej) - f(ei - ej) - f(ej - ei) + f(-ei - ej))
                                 / (4 * h * h) for ej in eye] for ei in eye])
            for want, got in ((fd_grad, grad), (fd_hess, hess)):
                assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_john_final_level_must_converge(monkeypatch):
    # a final level that runs out of steps used to return its last iterate
    # silently; one step per level leaves the final decrement far above 1e-18
    monkeypatch.setattr(aipoints.classical, "_LEVEL_ITER", 1)
    with pytest.raises(ConvergenceFailure, match="final level"):
        john_ellipse(_pentagon())


def test_john_matches_ladder_reference(rng):
    # the path-following solver and the ladder that centres every level to
    # a decrement of 1e-18 reach the same optimum
    for _ in range(200):
        poly = _random_poly(rng)
        c, a = john_ellipse(poly)
        c_ref, a_ref = oracles.ladder_john_ellipse(poly)
        scale = np.linalg.norm(a_ref, 2)
        assert np.abs(c - c_ref).max() <= 1e-8 * scale
        assert np.abs(a - a_ref).max() <= 1e-8 * scale


def test_john_newton_steps_on_bench_bodies(monkeypatch):
    # a count, not a timing: the ladder reference takes about 72 Newton steps
    # per solve on the benchmark's audit bodies
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    calls = []
    real = aipoints.classical._grad_hess

    def spy(theta, cones, mu):
        calls.append(mu)
        return real(theta, cones, mu)

    monkeypatch.setattr(aipoints.classical, "_grad_hess", spy)
    bodies = workloads.audit_bodies(1)
    for vertices in bodies.values():
        john_ellipse(canonicalize(vertices))
    assert len(bodies) == 5 and len(calls) <= 40 * len(bodies)
