import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from aipoints import (
    InvalidRadius,
    batch_intersection_area,
    canonicalize,
    sample_sl2pm,
    singular_values,
    truncated_mass,
)
from aipoints.haar import _decode_cartan, _sample_cartan

from oracles import (TruncationTooSmall, invariance_check, rotation,
                     smoothed_ball_indicator, stretch, truncated_cdf)


def test_density_and_mass_basics():
    # closed-form truncated mass (cosh(2 ln R) - 1)/2
    assert truncated_mass(2.0) == pytest.approx(9 / 16, abs=1e-15)
    assert truncated_mass(4.0) == pytest.approx(3.515625, abs=1e-12)
    with pytest.raises(InvalidRadius):
        truncated_mass(0.5)


def test_ball_mass_growth_is_geometric():
    # mass(2^{l+1})/mass(2^l) decreases monotonically to 4, starting at 6.25
    ratios = [truncated_mass(2.0 ** (l + 1)) / truncated_mass(2.0 ** l)
              for l in range(1, 10)]
    assert ratios[0] == pytest.approx(6.25, abs=1e-12)
    for a, b in zip(ratios, ratios[1:]):
        assert 4.0 < b < a <= 6.25


def test_exponential_norm_tail_integral():
    # int_0^inf e^{-q t} sinh(2t) dt = 2/(q^2-4) for q > 2, divergent at q = 2
    def integrand(t, q):
        # overflow-safe form of e^{-qt} sinh(2t)
        return 0.5 * (np.exp((2.0 - q) * t) - np.exp(-(2.0 + q) * t))

    for q in (2.5, 3.0, 5.0, 8.0):
        val, err = quad(integrand, 0, np.inf, args=(q,))
        assert val == pytest.approx(2.0 / (q * q - 4.0), rel=1e-9)
    partials = [quad(integrand, 0, T, args=(2.0,))[0]
                for T in (10.0, 100.0, 1000.0)]
    # the q = 2 integrand tends to 1/2, so partial integrals grow linearly
    assert partials[1] > partials[0] + 40
    assert partials[2] > partials[1] + 400


def test_radial_marginal_ks():
    rng = np.random.default_rng(31)
    radius = 6.0
    t = _sample_cartan(radius, rng, 100_000)[1]
    stat = kstest(t, lambda x: truncated_cdf(x, radius))
    assert stat.pvalue > 0.01


def test_angles_uniform_and_reflection_fair():
    rng = np.random.default_rng(32)
    th1, _, th2, refl = _sample_cartan(3.0, rng, 100_000)[:4]
    assert kstest(th1 / (2 * np.pi), "uniform").pvalue > 0.01
    assert kstest(th2 / (2 * np.pi), "uniform").pvalue > 0.01
    assert abs(refl.mean() - 0.5) < 0.01


def test_decoded_samples_live_in_the_ball():
    rng = np.random.default_rng(33)
    radius = 5.0
    th1, t, th2, refl = _sample_cartan(radius, rng, 5_000)[:4]
    m = _decode_cartan(th1, t, th2, refl)
    dets = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    assert np.allclose(np.abs(dets), 1.0, atol=1e-12)
    assert np.allclose(np.where(refl, -1.0, 1.0), dets)
    svals = np.linalg.svd(m, compute_uv=False)
    assert np.all(svals[:, 0] <= radius * (1 + 1e-12))
    assert np.allclose(svals[:, 0], np.exp(t), rtol=1e-12)


def test_sample_sl2pm_single_draw_contract():
    rng = np.random.default_rng(34)
    for radius in (1.0001, 2.0, 16.0):
        m = sample_sl2pm(radius, rng)
        assert isinstance(m, np.ndarray) and m.shape == (2, 2)
        assert abs(np.linalg.det(m)) == pytest.approx(1.0, abs=1e-12)
        assert singular_values(m).lam1 <= radius * (1 + 1e-12)
    # R -> 1+ concentrates at orthogonal maps
    lams = [singular_values(sample_sl2pm(1.0001, rng)).lam1 for _ in range(200)]
    assert max(lams) <= 1.0001
    with pytest.raises(InvalidRadius):
        sample_sl2pm(1.0, rng)


def test_seed_reproducibility():
    a = _sample_cartan(4.0, np.random.default_rng(77), 1000)
    b = _sample_cartan(4.0, np.random.default_rng(77), 1000)
    assert np.array_equal(a, b)


def test_norm_tail_fractions():
    # tau = 0.5 keeps only ~0.7% of the mass below it, so the ratio needs
    # a few million draws before its noise sits inside the 2% tolerance
    rng = np.random.default_rng(35)
    radius = np.exp(2.5)
    t = _sample_cartan(radius, rng, 4_000_000)[1]
    total = truncated_mass(radius)
    for tau in (0.5, 1.0, 2.0):
        head = (np.cosh(2 * tau) - 1.0) / 2.0
        expect = (total - head) / head
        got = (t > tau).mean() / (t <= tau).mean()
        assert abs(got - expect) < 0.02 * expect


def test_draw_block_rng_contract():
    # a draw is one column of the six transformed rows of one
    # rng.random((6, n)) call; every seeded result rests on that layout
    n, radius = 20_000, 5.0
    block = _sample_cartan(radius, np.random.default_rng(36), n)
    u = np.random.default_rng(36).random((6, n))
    span = np.cosh(2.0 * np.log(radius)) - 1.0
    want = np.stack([u[0] * (2 * np.pi), 0.5 * np.arccosh(1.0 + u[1] * span),
                     u[2] * (2 * np.pi), np.where(u[3] < 0.5, 1.0, 0.0),
                     np.sqrt(u[4]), u[5] * (2 * np.pi)])
    assert np.array_equal(block, want)
    # x = rho r (cos a, sin a) is uniform on the disk of radius rho: a quarter
    # of the draws fall inside radius 1/2
    r = block[4]
    assert np.all(r <= 1.0)
    assert abs(np.mean(r <= 0.5) - 0.25) < 4 * np.sqrt(0.25 * 0.75 / n)
    # sample_sl2pm transforms a (4, 1) block: the first four rows of a
    # one-draw block, from exactly four uniforms, so the generator's next
    # draw is a fresh generator's fifth
    rng = np.random.default_rng(36)
    one = _sample_cartan(radius, np.random.default_rng(36), 1)
    assert np.array_equal(sample_sl2pm(radius, rng), _decode_cartan(*one[:4])[0])
    assert rng.random() == np.random.default_rng(36).random(5)[4]


def test_translation_correlation_integral_vs_quadrature():
    """Weighted MC of int area(D cap (D+x)) dx against a tensor-grid oracle."""
    ang = 2 * np.pi * np.arange(64) / 64
    disk = canonicalize(np.stack([np.cos(ang), np.sin(ang)], axis=1))

    def overlap(xs):
        out = np.empty(len(xs))
        for i in range(0, len(xs), 8192):
            blk = xs[i:i + 8192]
            out[i:i + 8192] = batch_intersection_area(
                disk.vertices[None, :, :] + blk[:, None, :], disk)
        return out

    n = 81
    grid = np.linspace(-2.0, 2.0, n)
    gx, gy = np.meshgrid(grid, grid)
    vals = overlap(np.stack([gx.ravel(), gy.ravel()], axis=1)).reshape(n, n)
    cell = (grid[1] - grid[0]) ** 2
    oracle = vals.sum() * cell  # trapezoid with zero boundary values

    rng = np.random.default_rng(37)
    rho = 2.0
    r = np.sqrt(rng.random(120_000)) * rho
    a = rng.random(120_000) * 2 * np.pi
    xs = np.stack([r * np.cos(a), r * np.sin(a)], axis=1)
    mc = np.pi * rho * rho * overlap(xs).mean()

    assert mc == pytest.approx(oracle, rel=0.01)
    # Fubini closed form: the correlation integral equals area(D)^2
    assert oracle == pytest.approx(disk.area ** 2, rel=0.005)


def test_invariance_identity_and_rotation():
    rng = np.random.default_rng(38)
    h = smoothed_ball_indicator(2.0)
    res = invariance_check(np.eye(2), h, 2.0, 100_000, rng,
                           truncation_radius=2.5)
    assert res.discrepancy < 3 * res.std_error
    rot = rotation(1.1)
    res = invariance_check(rot, h, 2.0, 100_000, rng)
    assert res.discrepancy < 3 * res.std_error


def test_invariance_stretch():
    rng = np.random.default_rng(39)
    h = smoothed_ball_indicator(2.0)
    g = stretch(2.0)
    res = invariance_check(g, h, 2.0, 200_000, rng)
    assert res.discrepancy < 3 * res.std_error


def test_invariance_truncation_guard():
    rng = np.random.default_rng(40)
    h = smoothed_ball_indicator(2.0)
    g = stretch(4.0)
    with pytest.raises(TruncationTooSmall):
        invariance_check(g, h, 2.0, 1000, rng, truncation_radius=4.0)
