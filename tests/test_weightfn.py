"""Weight F_K(L)(phi) = area(phi^{-1}(L) ∩ K): values, envelopes, identities."""

import numpy as np
import pytest

from aipoints import (
    ConvexPolygon,
    canonicalize,
    VolumePreservingAffineMap,
    evaluate_weights_batch,
    normalize_to_unit_area,
    slab_envelope,
    translation_support_radius,
    weight_context,
)
from aipoints.haar import _decode_cartan, _sample_cartan, _sample_disk

import oracles
from oracles import inverse


def _affine(mat, shift=(0.0, 0.0)) -> VolumePreservingAffineMap:
    return VolumePreservingAffineMap(mat, np.asarray(shift, float))


def _weight(ctx, phi: VolumePreservingAffineMap) -> float:
    """F for one map, through the batch path the estimator runs."""
    return float(evaluate_weights_batch(ctx, phi.linear[None],
                                        phi.translation[None])[0])


def _rand_unimodular(rng, spread=0.9):
    th1, th2 = rng.uniform(0.0, 2 * np.pi, size=2)
    t = rng.normal() * spread
    r1 = np.array([[np.cos(th1), -np.sin(th1)], [np.sin(th1), np.cos(th1)]])
    r2 = np.array([[np.cos(th2), -np.sin(th2)], [np.sin(th2), np.cos(th2)]])
    m = r1 @ np.diag([np.exp(t), np.exp(-t)]) @ r2
    if rng.random() < 0.5:
        m = m @ np.diag([1.0, -1.0])
    return m


@pytest.fixture
def ctx_square(origin_square):
    return weight_context(origin_square, origin_square)


@pytest.fixture
def ctx_mixed(origin_square, quad_unit):
    return weight_context(origin_square, quad_unit)


def test_context_radii(ctx_square, origin_square):
    assert ctx_square.R_K == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert ctx_square.R_L == ctx_square.R_K
    tri = ConvexPolygon(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        weight_context(origin_square, tri)


def test_identity_weight_is_one(ctx_square, ctx_mixed):
    ident = _affine(np.eye(2))
    assert _weight(ctx_square, ident) == pytest.approx(1.0, abs=1e-12)
    # L != K at the identity: just the plain overlap, strictly below 1
    w = _weight(ctx_mixed, ident)
    assert 0.0 < w < 1.0


def test_far_translation_vanishes(ctx_mixed):
    d = 10.0 * (ctx_mixed.R_K + ctx_mixed.R_L)
    phi = _affine(np.eye(2), (d, 0.0))
    assert _weight(ctx_mixed, phi) == 0.0


def test_weight_in_unit_interval(ctx_mixed, rng):
    for _ in range(200):
        m = _rand_unimodular(rng)
        x = rng.uniform(-2.5, 2.5, size=2)
        w = _weight(ctx_mixed, VolumePreservingAffineMap(m, x))
        assert 0.0 <= w <= 1.0


def test_weight_matches_rejection_oracle(ctx_mixed, rng):
    # F(phi) = area(phi^{-1}(L) ∩ K): pit the clipper against plain
    # rejection sampling on a handful of overlapping placements.
    n = 400_000
    hits = 0
    for _ in range(40):
        m = _rand_unimodular(rng, spread=0.5)
        x = rng.uniform(-0.8, 0.8, size=2)
        phi = VolumePreservingAffineMap(m, x)
        got = _weight(ctx_mixed, phi)
        # hull re-walk restores CCW order after reflecting maps
        pre = oracles.gift_wrap_hull(
            (ctx_mixed.L.vertices - phi.translation) @ inverse(phi.linear).T)
        est = oracles.mc_intersection_area(pre, ctx_mixed.K.vertices, rng, n=n)
        box = np.prod(pre.max(axis=0) - pre.min(axis=0))
        p = est / box
        se = box * np.sqrt(max(p * (1.0 - p), 0.0) / n)
        assert abs(got - est) <= max(3.0 * se, 1e-4)
        hits += got > 0.0
    assert hits >= 20  # the placement box keeps most pairs overlapping


def test_support_radius_identity_grid_scan(ctx_square):
    # K = L = unit square at the origin: rho(I) = R_K + R_L = sqrt(2).
    rho = translation_support_radius(ctx_square, np.eye(2))
    assert rho == pytest.approx(np.sqrt(2.0), abs=1e-12)
    for r in np.linspace(1.01 * rho, 3.0 * rho, 25):
        for ang in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
            x = r * np.array([np.cos(ang), np.sin(ang)])
            assert _weight(ctx_square, _affine(np.eye(2), x)) == 0.0
    # and the bound is not absurdly loose: contact along the diagonal
    # happens at |x| = sqrt(2) exactly, so 0.9 rho overlaps there
    diag = 0.9 * rho * np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert _weight(ctx_square, _affine(np.eye(2), diag)) > 0.0


def test_support_radius_random_maps(ctx_mixed, rng):
    for _ in range(30):
        m = _rand_unimodular(rng)
        rho = translation_support_radius(ctx_mixed, m)
        assert rho >= ctx_mixed.R_K + ctx_mixed.R_L - 1e-12
        for _ in range(100):
            ang = rng.uniform(0.0, 2 * np.pi)
            x = 1.01 * rho * np.array([np.cos(ang), np.sin(ang)])
            assert _weight(ctx_mixed, VolumePreservingAffineMap(m, x)) == 0.0


def test_support_radius_mass_probe(ctx_mixed, rng):
    # no weight survives past the radius on a big batch of random probes
    n = 100_000
    ms = np.empty((n, 2, 2))
    for i in range(n):
        ms[i] = _rand_unimodular(rng)
    lam1 = np.array([translation_support_radius(ctx_mixed, m) for m in ms])
    ang = rng.uniform(0.0, 2 * np.pi, size=n)
    rad = lam1 * rng.uniform(1.0001, 3.0, size=n)
    xs = rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    ws = np.empty(n)
    for lo in range(0, n, 8192):
        hi = min(lo + 8192, n)
        ws[lo:hi] = evaluate_weights_batch(ctx_mixed, ms[lo:hi], xs[lo:hi])
    assert np.count_nonzero(ws) == 0


def test_batch_matches_adjugate_einsum_bitwise(quad_unit):
    # the explicit s adj(M) products give the bytes of the einsum over
    # adj(M) times the reflection sign, on Haar draws spread over the
    # estimator's disk, reflected ones included
    q0 = ConvexPolygon(quad_unit.vertices - quad_unit.centroid)
    tri, _ = normalize_to_unit_area(canonicalize([[0, 0], [1, 0], [0, 1]]))
    tri = ConvexPolygon(tri.vertices - tri.centroid)
    rng = np.random.default_rng(41)
    for ctx in (weight_context(q0, q0), weight_context(q0, tri)):
        for radius in (2.0, 16.0, 32.0):
            th1, t, th2, refl = _sample_cartan(radius, rng, 20_000)
            mats = _decode_cartan(th1, t, th2, refl)
            rho = np.exp(t) * (ctx.R_K + ctx.R_L)
            r, ang = _sample_disk(rng, len(t))
            xs = rho[:, None] * np.stack([r * np.cos(ang), r * np.sin(ang)],
                                         axis=-1)
            got = evaluate_weights_batch(ctx, mats, xs)
            ref = oracles.adjugate_einsum_weights(ctx, mats, refl, xs)
            assert refl.any() and (~refl).any()
            assert np.count_nonzero(got[refl]) > 0
            assert np.count_nonzero(got[~refl]) > 0
            assert np.array_equal(got, ref)


def test_slab_envelope_identity_vacuous(ctx_square, ctx_mixed):
    assert slab_envelope(ctx_square, np.eye(2)) == 1.0
    assert slab_envelope(ctx_mixed, np.eye(2)) == 1.0


def test_slab_envelope_crushes_stretch(ctx_mixed, rng):
    m = np.diag([100.0, 0.01])
    env = slab_envelope(ctx_mixed, m)
    r = max(ctx_mixed.R_K, ctx_mixed.R_L)
    assert env <= 4.0 * r * r * 0.01 + 1e-15
    worst = 0.0
    for lo in range(0, 10_000, 2000):
        xs = rng.uniform(-2.0, 2.0, size=(2000, 2))
        mats = np.broadcast_to(m, (2000, 2, 2))
        worst = max(worst, evaluate_weights_batch(ctx_mixed, mats, xs).max())
    assert worst <= env + 1e-12


def test_slab_envelope_monotone_in_stretch(ctx_mixed):
    svals = [1.0, 1.5, 2.0, 4.0, 10.0, 40.0]
    envs = [slab_envelope(ctx_mixed, oracles.stretch(s))
            for s in svals]
    assert all(a >= b - 1e-15 for a, b in zip(envs, envs[1:]))


def test_slab_envelope_dominates_weight(ctx_mixed, rng):
    for _ in range(300):
        m = _rand_unimodular(rng, spread=1.2)
        env = slab_envelope(ctx_mixed, m)
        x = rng.uniform(-1.5, 1.5, size=2)
        w = _weight(ctx_mixed, VolumePreservingAffineMap(m, x))
        assert w <= env + 1e-12


def test_left_translation_identity(ctx_mixed, rng):
    # weight with body tau(L) at phi == weight with body L at tau^{-1} phi
    K = ctx_mixed.K
    for _ in range(40):
        tau = VolumePreservingAffineMap(
            _rand_unimodular(rng, spread=0.6), rng.uniform(-1.0, 1.0, size=2))
        moved = canonicalize(tau.apply(ctx_mixed.L.vertices))
        ctx_moved = weight_context(K, moved)
        phi = VolumePreservingAffineMap(
            _rand_unimodular(rng, spread=0.6), rng.uniform(-1.0, 1.0, size=2))
        lhs = _weight(ctx_moved, phi)
        tinv = inverse(tau.linear)
        rhs = _weight(ctx_mixed, VolumePreservingAffineMap(
            tinv @ phi.linear, tinv @ (phi.translation - tau.translation)))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_weight_for_rescaled_bodies(quad_raw):
    # the unit-area rescale feeding the context is the only entry point;
    # feeding a raw body of the wrong area must be refused
    unit, scale = normalize_to_unit_area(quad_raw)
    assert scale == pytest.approx(np.sqrt(quad_raw.area), abs=1e-12)
    ctx = weight_context(unit, unit)
    assert _weight(ctx, _affine(np.eye(2))) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        weight_context(quad_raw, unit)
