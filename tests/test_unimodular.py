import numpy as np
import pytest

from aipoints import VolumePreservingAffineMap, singular_values

from oracles import (batch_operator_norm, fractional_polar_factor, inverse,
                     polar_decompose, rotation, stretch)

GOLDEN = (1 + np.sqrt(5)) / 2


def random_map(rng, spread=1.0):
    m = (rotation(rng.random() * 2 * np.pi)
         @ stretch(np.exp(rng.normal() * spread * 0.5 + 0.1))
         @ rotation(rng.random() * 2 * np.pi))
    if rng.random() < 0.5:
        m = m @ np.diag([1.0, -1.0])
    return m


def test_construction_renormalizes_drift():
    # near-unimodular linear parts are snapped back to |det| = 1
    m = VolumePreservingAffineMap([[1.0 + 4e-7, 0.0], [0.0, 1.0]], [0.5, -2.0])
    assert abs(np.linalg.det(m.linear) - 1.0) < 1e-12
    assert m.translation.tolist() == [0.5, -2.0]
    r = VolumePreservingAffineMap([[0.0, 1.0], [1.0 + 4e-7, 0.0]], np.zeros(2))
    assert abs(np.linalg.det(r.linear) + 1.0) < 1e-12


def test_construction_rejects_far_from_unimodular():
    for bad in ([[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]],
                [[2.0, 0.0], [0.0, 2.0]], [[0.0, 3.0], [3.0, 0.0]]):
        with pytest.raises(ValueError):
            VolumePreservingAffineMap(bad, np.zeros(2))


def test_compose_matches_sequential_action(rng):
    # the group law (r1, x1)(r2, x2) = (r1 r2, r1 x2 + x1), on arrays
    for _ in range(60):
        phi = VolumePreservingAffineMap(random_map(rng), rng.normal(size=2))
        psi = VolumePreservingAffineMap(random_map(rng), rng.normal(size=2))
        both = VolumePreservingAffineMap(
            phi.linear @ psi.linear,
            phi.linear @ psi.translation + phi.translation)
        a = rng.normal(size=2)
        assert np.allclose(both.apply(a), phi.apply(psi.apply(a)), atol=1e-12)


def test_singular_values_known_cases():
    ident = singular_values(np.eye(2))
    assert ident.lam1 == 1.0 and ident.lam2 == 1.0
    d = singular_values([[2.0, 0.0], [0.0, 0.5]])
    assert abs(d.lam1 - 2.0) < 1e-12 and abs(d.lam2 - 0.5) < 1e-12
    shear = singular_values([[1.0, 1.0], [0.0, 1.0]])
    assert abs(shear.lam1 - GOLDEN) < 1e-12
    assert abs(shear.lam2 - 2 / (1 + np.sqrt(5))) < 1e-12


def test_singular_values_vs_lapack(rng):
    for _ in range(500):
        m = random_map(rng, spread=2.0)
        ours = singular_values(m)
        ref = np.linalg.svd(m, compute_uv=False)
        assert abs(ours.lam1 - ref[0]) < 1e-12 * max(1, ref[0])
        assert abs(ours.lam1 * ours.lam2 - 1.0) < 1e-9
        assert ours.lam1 >= 1.0 - 1e-12
        # norm of the inverse equals the norm of the map in SL+-(2)
        inv = singular_values(inverse(m))
        assert abs(inv.lam1 - ours.lam1) < 1e-9 * ours.lam1


def test_singular_values_orthogonal_invariance(rng):
    for _ in range(50):
        m = random_map(rng)
        s0 = singular_values(m)
        u = rotation(rng.random() * 7)
        v = rotation(rng.random() * 7)
        for probe in (m.T, u @ m @ v):
            s1 = singular_values(probe)
            assert abs(s1.lam1 - s0.lam1) < 1e-12 * s0.lam1


def test_batch_operator_norm_matches_scalar(rng):
    mats = np.stack([random_map(rng, 2.0) for _ in range(300)])
    batch = batch_operator_norm(mats)
    scalar = [singular_values(m).lam1 for m in mats]
    assert np.allclose(batch, scalar, rtol=1e-13)


def test_polar_decompose_known_cases():
    rot = rotation(0.7)
    u, p = polar_decompose(rot)
    assert np.abs(u - rot).max() < 1e-12
    assert np.abs(p - np.eye(2)).max() < 1e-12
    d = stretch(2.0)
    u, p = polar_decompose(d)
    assert np.abs(u - np.eye(2)).max() < 1e-12
    assert np.abs(p - d).max() < 1e-12


def test_polar_decompose_random(rng):
    for _ in range(400):
        m = random_map(rng, spread=2.0)
        u, p = polar_decompose(m)
        assert np.abs(u @ p - m).max() < 1e-10
        assert np.abs(u.T @ u - np.eye(2)).max() < 1e-12
        assert np.abs(p - p.T).max() < 1e-12
        evals = np.linalg.eigvalsh(p)
        assert evals.min() > 0
        assert abs(evals.prod() - 1.0) < 1e-9


def test_fractional_polar_factor_endpoints(rng):
    for _ in range(100):
        m = random_map(rng)
        u, _ = polar_decompose(m)
        full = fractional_polar_factor(m, 1.0)
        none = fractional_polar_factor(m, 0.0)
        assert np.abs(full - m).max() < 1e-11
        assert np.abs(none - u).max() < 1e-11


def test_fractional_polar_norm_power(rng):
    # ||U P^s|| = lam1^s: the partial factor interpolates the norm geometrically
    for _ in range(100):
        m = random_map(rng, spread=1.5)
        lam1 = singular_values(m).lam1
        for s in (0.25, 0.5, 0.75):
            part = fractional_polar_factor(m, s)
            assert abs(singular_values(part).lam1 - lam1 ** s) < 1e-10 * lam1


def test_ball_membership_and_semigroup(rng):
    assert singular_values(np.eye(2)).lam1 <= 1.0
    assert singular_values(stretch(2.0)).lam1 > 1.5
    for _ in range(200):
        r1, r2 = np.exp(rng.random(2) * 1.5)
        m1 = random_map(rng, 2.0)
        # rescale into S_{r1} by shrinking the stretch if needed
        _, p1 = polar_decompose(m1)
        lam = singular_values(m1).lam1
        if lam > r1:
            m1 = fractional_polar_factor(m1, np.log(r1) / np.log(lam))
        m2 = random_map(rng, 2.0)
        lam2 = singular_values(m2).lam1
        if lam2 > r2:
            m2 = fractional_polar_factor(m2, np.log(r2) / np.log(lam2))
        assert singular_values(m1 @ m2).lam1 <= r1 * r2 * (1 + 1e-9)
