"""Estimator behavior: exact identities, convergence trends, error paths.

The k = 1 case has a closed form that pins down correctness: the weight
integrates to |K||L| over translations for every linear part, and the
first moment telescopes to centroid(L) - M centroid(K), so T_1(L) is the
centroid of L for any anchor, base body, and truncation.  Everything else
is checked against that anchor point plus structural exactness (scaling,
translation, affinity in v) and frozen seeded runs.
"""

import numpy as np
import pytest

import aipoints.estimator
from aipoints.estimator import MAX_RADIUS
from aipoints.haar import _decode_cartan, _sample_cartan
from aipoints import (
    AnchorOutsideFixedSet,
    ConfigError,
    ConvexPolygon,
    DegenerateWeights,
    EstimatorConfig,
    SWEEP_CSV_HEADER,
    VolumePreservingAffineMap,
    canonicalize,
    convergence_sweep,
    estimate_record,
    estimate_tk,
    estimate_tk_unit,
    evaluate_weights_batch,
    normalize_to_unit_area,
    translation_support_radius,
)

import oracles
from oracles import QuadratureFailure, power_ratio_limit

Q0_ANCHOR = np.array([0.55, 0.45])


@pytest.fixture(scope="module")
def q0u():
    raw = canonicalize(np.array([[0, 0], [1, 0], [1.3, 0.8], [0.2, 1.1]], float))
    return normalize_to_unit_area(raw)[0]


def test_config_validation(q0u, monkeypatch):
    with pytest.raises(ConfigError):
        EstimatorConfig(k=0)
    with pytest.raises(ConfigError):
        EstimatorConfig(k=1.5)
    with pytest.raises(ConfigError):
        EstimatorConfig(samples=0)
    for bad in ({"k": True}, {"k": np.True_}, {"R": 1.0}, {"R": float("inf")},
                {"R": float("nan")}):
        with pytest.raises(ConfigError):
            EstimatorConfig(**bad)
    with pytest.raises(ConfigError):
        EstimatorConfig(r_doubling_rounds=-1)
    # integer fields take non-boolean integers only and R a real number: a
    # float, a bool or None used to pass here and fail later inside numpy
    # (or run with one sample), or fail here with a ValueError or TypeError
    for bad in ({"k": 4.0}, {"k": float("nan")}, {"k": float("inf")},
                {"k": None}, {"samples": 2000.5}, {"samples": 2000.0},
                {"samples": True}, {"samples": np.True_},
                {"r_doubling_rounds": 0.5}, {"r_doubling_rounds": True},
                {"seed": 1.5}, {"seed": -1}, {"seed": False}, {"seed": "3"},
                {"R": None}, {"R": "16"}):
        with pytest.raises(ConfigError):
            EstimatorConfig(**bad)
    EstimatorConfig(samples=np.int64(10), r_doubling_rounds=np.int32(0),
                    seed=np.uint64(2**63))
    cfg = EstimatorConfig()
    assert cfg.k == 4 and cfg.samples == 200_000 and cfg.R == 16.0
    # a non-finite anchor is refused before any sampling or gating
    small = EstimatorConfig(samples=1000, R=4.0)
    for bad in ((np.nan, 0.0), (np.inf, 0.0), (0.5, -np.inf)):
        with pytest.raises(ConfigError, match="anchor"):
            estimate_tk_unit(q0u, bad, q0u, small)
        with pytest.raises(ConfigError, match="anchor"):
            estimate_tk(q0u, bad, q0u, small)
        for check in (True, False):
            with pytest.raises(ConfigError, match="anchor"):
                convergence_sweep(q0u, bad, [2], small, check_anchor=check)
    # a sweep checks every k before its first estimate: 2.5 and True used to
    # run as k = 2 and k = 1, and a trailing 0 failed after the other rows ran
    calls = []
    monkeypatch.setattr(aipoints.estimator, "estimate_tk",
                        lambda *args, **kwargs: calls.append(args))
    for ks in ([2.5], [True], [16, 16, 16, 0]):
        with pytest.raises(ConfigError, match="k must be"):
            convergence_sweep(q0u, q0u.centroid, ks, small, check_anchor=False)
    assert calls == []
    # a run may not reach past MAX_RADIUS with its R-doublings: R = 1e160
    # used to give NaN value, std_error and ess from an overflowing cosh
    EstimatorConfig(R=MAX_RADIUS, r_doubling_rounds=0)
    EstimatorConfig(R=MAX_RADIUS / 4, r_doubling_rounds=2)
    for bad in ({"R": 1e160}, {"R": MAX_RADIUS}, {"R": 2.0, "r_doubling_rounds": 13},
                {"R": 2.0, "r_doubling_rounds": 5000},
                {"R": np.nextafter(MAX_RADIUS, np.inf), "r_doubling_rounds": 0}):
        with pytest.raises(ConfigError, match="truncation radius"):
            EstimatorConfig(**bad)
    # the weight applies M^{-1} = sign(det M) adj(M): at the largest radius a
    # run may reach, |det M| stays within 1e-7 of 1 and det M < 0 exactly on
    # the reflected draws (at R = 1e8 some 1e-5 of the signs disagree)
    th1, t, th2, refl = _sample_cartan(MAX_RADIUS, np.random.default_rng(5),
                                       200_000)
    m = _decode_cartan(th1, t, th2, refl)
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    assert np.exp(t).max() > 0.5 * MAX_RADIUS
    assert np.abs(np.abs(det) - 1.0).max() < 1e-7
    assert np.array_equal(np.sign(det), np.where(refl, -1.0, 1.0))
    # a finite anchor whose phi(v)^2 overflows gave std_error [nan, nan]
    cfg = EstimatorConfig(samples=20_000, R=4.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for estimate in (estimate_tk_unit, estimate_tk):
            with pytest.raises(ConfigError, match="not finite"):
                estimate(q0u, (1e200, 0.0), q0u, cfg)
    assert np.isfinite(estimate_tk_unit(q0u, (1e100, 0.0), q0u, cfg).std_error).all()


def test_square_center_anchor(origin_square):
    # the square's symmetries fix only the center, so the weighted mean of
    # phi(v) lands there for every k
    v = np.zeros(2)
    for k, seed in ((1, 0), (4, 1)):
        cfg = EstimatorConfig(k=k, samples=50_000, R=4.0, seed=seed,
                              r_doubling_rounds=0)
        est = estimate_tk_unit(origin_square, v, origin_square, cfg)
        assert np.linalg.norm(est.value) <= 3.0 * np.linalg.norm(est.std_error)
        assert np.all(np.isfinite(est.std_error))
        assert 0.0 < est.ess <= cfg.samples


def test_k1_value_is_centroid(origin_square, q0u):
    # closed form at k = 1: the normalizer is constant over linear parts and
    # the first moment telescopes, so the estimate is centroid(L) no matter
    # which anchor or base body is used
    for v, seed in ((np.array([0.3, 0.9]), 5), (np.array([10.0, 10.0]), 6)):
        cfg = EstimatorConfig(k=1, samples=100_000, R=2.0, seed=seed,
                              r_doubling_rounds=0)
        est = estimate_tk_unit(origin_square, v, q0u, cfg)
        err = np.linalg.norm(est.value - q0u.centroid)
        assert err <= 3.0 * np.linalg.norm(est.std_error)


def test_q0_centroid_anchor_sweep(q0u):
    # self-estimate with the centroid as anchor stays within a few times
    # the Monte Carlo noise of the anchor through k = 16, far inside the
    # 0.05 gate; per-step error monotonicity is below the noise floor at
    # this sample count, so only the gate and the ess trend are asserted
    cfg = EstimatorConfig(samples=200_000, R=2.0, seed=0)
    rows = convergence_sweep(q0u, q0u.centroid, [2, 4, 8, 16], cfg, threads=4)
    errs = [row.err_to_v for row in rows]
    assert all(e < 0.05 for e in errs)
    assert errs[-1] < 0.05
    assert max(errs) < 0.02
    esses = [row.estimate.ess for row in rows]
    assert all(a > b for a, b in zip(esses, esses[1:]))
    for row in rows:
        assert row.estimate.ess <= cfg.samples
        assert row.err_to_v == pytest.approx(
            float(np.linalg.norm(row.estimate.value - q0u.centroid)), abs=1e-15)


def test_anchor_affinity_and_dependence(q0u):
    # phi(v) is affine in v, so with shared samples the estimate is an
    # affine function of the anchor: midpoint anchors give midpoint values
    # exactly, and distinct anchors give distinct (contracted) values
    v1, v2 = Q0_ANCHOR, np.array([0.75, 0.60])
    cfg = EstimatorConfig(k=16, samples=200_000, R=2.0, seed=0,
                          r_doubling_rounds=0)
    e1 = estimate_tk_unit(q0u, v1, q0u, cfg, threads=4)
    e2 = estimate_tk_unit(q0u, v2, q0u, cfg, threads=4)
    em = estimate_tk_unit(q0u, 0.5 * (v1 + v2), q0u, cfg, threads=4)
    assert np.allclose(em.value, 0.5 * (e1.value + e2.value), atol=1e-12)
    d = np.linalg.norm(e1.value - e2.value)
    assert 1e-3 < d < np.linalg.norm(v1 - v2)


def test_scaling_homogeneity_exact(q0u):
    cfg = EstimatorConfig(k=4, samples=30_000, R=4.0, seed=2)
    base = estimate_tk(q0u, Q0_ANCHOR, q0u, cfg)
    unit = estimate_tk_unit(q0u, Q0_ANCHOR, q0u, cfg)
    assert np.array_equal(base.value, unit.value)
    for c in (0.5, 3.0):
        scaled = estimate_tk(q0u, Q0_ANCHOR, ConvexPolygon(c * q0u.vertices), cfg)
        assert np.allclose(scaled.value, c * base.value, rtol=1e-12, atol=1e-12)
        assert np.allclose(scaled.std_error, c * base.std_error, rtol=1e-12,
                           atol=1e-15)
        assert scaled.ess == base.ess
    # side-doubled body (area x4) comes back exactly doubled
    doubled = estimate_tk(q0u, Q0_ANCHOR, ConvexPolygon(2.0 * q0u.vertices), cfg)
    assert np.allclose(doubled.value, 2.0 * base.value, rtol=1e-12, atol=1e-12)
    # a base body of any area: T_{k,sK,sv}(sL) = s T_{k,K,v}(L)
    for c in (0.5, 3.0):
        body = ConvexPolygon(c * q0u.vertices)
        scaled = estimate_tk(body, c * Q0_ANCHOR, body, cfg)
        assert np.allclose(scaled.value, c * base.value, rtol=1e-12, atol=1e-12)
        assert np.allclose(scaled.std_error, c * base.std_error, rtol=1e-12,
                           atol=1e-15)
        assert np.isclose(scaled.r_stability, c * base.r_stability,
                          rtol=1e-12, atol=1e-15)
        assert scaled.ess == pytest.approx(base.ess, rel=1e-12)


def test_translation_equivariance_shared_seed(q0u):
    # the proposal recenters at centroid(L) - M centroid(K), so a shift of
    # L rides through the ratio untouched
    a = np.array([0.3, -0.2])
    cfg = EstimatorConfig(k=4, samples=50_000, R=4.0, seed=3,
                          r_doubling_rounds=0)
    base = estimate_tk_unit(q0u, Q0_ANCHOR, q0u, cfg)
    moved = estimate_tk_unit(q0u, Q0_ANCHOR, canonicalize(q0u.vertices + a), cfg)
    assert np.allclose(moved.value, base.value + a, atol=1e-12)


def test_volume_preserving_equivariance(q0u):
    # moving L by a random volume-preserving map moves the estimate the
    # same way, up to combined Monte Carlo noise and truncation drift
    rng = np.random.default_rng(42)
    cfg = EstimatorConfig(k=4, samples=60_000, R=8.0, seed=20)
    base = estimate_tk_unit(q0u, Q0_ANCHOR, q0u, cfg)
    for i in range(3):
        th1, th2 = rng.uniform(0, 2 * np.pi, 2)
        t = rng.uniform(0.0, np.log(2.0))  # operator norm <= 2
        r1 = np.array([[np.cos(th1), -np.sin(th1)], [np.sin(th1), np.cos(th1)]])
        r2 = np.array([[np.cos(th2), -np.sin(th2)], [np.sin(th2), np.cos(th2)]])
        lin = r1 @ np.diag([np.exp(t), np.exp(-t)]) @ r2
        tau = VolumePreservingAffineMap(lin, rng.uniform(-1, 1, 2))
        lam1 = np.exp(t)
        moved = estimate_tk_unit(q0u, Q0_ANCHOR,
                                 canonicalize(tau.apply(q0u.vertices)),
                                 EstimatorConfig(k=4, samples=60_000, R=8.0,
                                                 seed=21 + i))
        resid = np.linalg.norm(moved.value - tau.apply(base.value))
        sigma = np.sqrt(np.sum(moved.std_error ** 2)
                        + lam1 ** 2 * np.sum(base.std_error ** 2))
        gate = 3.0 * sigma + moved.r_stability + lam1 * base.r_stability
        assert resid <= gate, (i, resid, gate)


def test_covering_disk_holds_the_weight_support(q0u, monkeypatch):
    # estimate_tk_unit moves K and L to centroid 0 and draws x uniformly on
    # the disk about 0 of radius translation_support_radius(ctx, M) =
    # lam1(M) (max|K - c_K| + max|L - c_L|).  F must vanish outside that
    # disk, for stretched and reflected M alike; the bodies sit far from the
    # origin, so the spy must see them centred for the disk to hold
    K = canonicalize(q0u.vertices + [40.0, -25.0])
    tri = normalize_to_unit_area(canonicalize([[0, 0], [1, 0], [0, 1]]))[0]
    L = canonicalize(tri.vertices + [-30.0, 55.0])
    seen = []

    def spy(ctx, mats, xs):
        seen.append((ctx, mats.copy(), xs.copy()))
        return evaluate_weights_batch(ctx, mats, xs)

    monkeypatch.setattr(aipoints.estimator, "evaluate_weights_batch", spy)
    cfg = EstimatorConfig(k=2, samples=20_000, R=8.0, seed=4,
                          r_doubling_rounds=0)
    estimate_tk_unit(K, K.centroid, L, cfg)
    monkeypatch.undo()
    ctx = seen[0][0]
    assert all(c is ctx for c, _, _ in seen)
    assert np.allclose(ctx.K.vertices, K.vertices - K.centroid, atol=1e-12)
    assert np.allclose(ctx.L.vertices, L.vertices - L.centroid, atol=1e-12)
    mats = np.concatenate([m for _, m, _ in seen])
    xs = np.concatenate([x for _, _, x in seen])
    assert len(xs) == cfg.samples
    lam1 = np.linalg.svd(mats, compute_uv=False)[:, 0]
    assert lam1.max() > 4.0 and (np.linalg.det(mats) < 0).any()
    rho = np.array([translation_support_radius(ctx, m) for m in mats])
    assert np.allclose(rho, lam1 * (ctx.R_K + ctx.R_L), rtol=1e-12)
    # the draws fill exactly that disk: P(|x| > 0.9 rho) = 1 - 0.81
    frac = np.linalg.norm(xs, axis=1) / rho
    assert frac.max() <= 1.0 + 1e-9
    assert abs(np.mean(frac > 0.9) - 0.19) < 0.015
    # and no weight lies outside it
    rng = np.random.default_rng(8)
    ang = rng.uniform(0.0, 2 * np.pi, len(xs))
    out = rho * rng.uniform(1.0 + 1e-6, 3.0, len(xs))
    probes = out[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    assert np.count_nonzero(evaluate_weights_batch(ctx, mats, probes)) == 0
    # while inside it the weight is hit, also beyond the radius
    # R_K + R_L that the disk would have without the stretch factor lam1
    inside = evaluate_weights_batch(ctx, mats, xs)
    assert np.count_nonzero(inside) > 100
    assert np.count_nonzero(inside[frac * lam1 > 1.0]) > 0


def test_thread_count_is_bitwise_invisible(q0u):
    cfg = EstimatorConfig(k=4, samples=30_000, R=4.0, seed=9)
    runs = [estimate_tk_unit(q0u, Q0_ANCHOR, q0u, cfg, threads=n)
            for n in (1, 3, 8)]
    for other in runs[1:]:
        assert np.array_equal(runs[0].value, other.value)
        assert np.array_equal(runs[0].std_error, other.std_error)
        assert runs[0].ess == other.ess
        assert runs[0].r_stability == other.r_stability


def test_seed_reproducibility(q0u):
    cfg = EstimatorConfig(k=4, samples=20_000, R=4.0, seed=13)
    a = estimate_tk_unit(q0u, Q0_ANCHOR, q0u, cfg)
    b = estimate_tk_unit(q0u, Q0_ANCHOR, q0u, cfg)
    assert np.array_equal(a.value, b.value)
    c = estimate_tk_unit(q0u, Q0_ANCHOR, q0u,
                         EstimatorConfig(k=4, samples=20_000, R=4.0, seed=14))
    assert not np.array_equal(a.value, c.value)


def test_r_doubling_stability(origin_square):
    # independent runs at R and 2R agree within combined noise; the packed
    # r_stability field reports the same drift from the internal rerun
    v = np.zeros(2)
    at4 = estimate_tk_unit(origin_square, v, origin_square,
                           EstimatorConfig(k=4, samples=50_000, R=4.0, seed=11,
                                           r_doubling_rounds=0))
    at8 = estimate_tk_unit(origin_square, v, origin_square,
                           EstimatorConfig(k=4, samples=50_000, R=8.0, seed=12,
                                           r_doubling_rounds=0))
    drift = np.linalg.norm(at4.value - at8.value)
    sigma = np.sqrt(np.sum(at4.std_error ** 2) + np.sum(at8.std_error ** 2))
    assert drift <= 3.0 * sigma
    packed = estimate_tk_unit(origin_square, v, origin_square,
                              EstimatorConfig(k=4, samples=50_000, R=4.0,
                                              seed=11, r_doubling_rounds=1))
    assert packed.r_stability >= 0.0
    assert packed.r_stability <= 6.0 * sigma


def test_degenerate_weights_raises(q0u):
    with pytest.raises(DegenerateWeights):
        estimate_tk_unit(q0u, Q0_ANCHOR, q0u,
                         EstimatorConfig(k=4, samples=64, R=4.0,
                                         r_doubling_rounds=0))


def test_anchor_gate(origin_square, q0u):
    cfg = EstimatorConfig(k=2, samples=20_000, R=4.0, seed=0,
                          r_doubling_rounds=0)
    with pytest.raises(AnchorOutsideFixedSet):
        convergence_sweep(origin_square, np.array([0.1, 0.2]), [2], cfg)
    rows = convergence_sweep(origin_square, np.array([0.1, 0.2]), [2], cfg,
                             check_anchor=False)
    assert len(rows) == 1
    # trivial automorphism group: every anchor is admissible
    rows = convergence_sweep(q0u, Q0_ANCHOR, [2], cfg)
    assert rows[0].k == 2


def test_power_ratio_gaussian_examples():
    f = lambda x: np.exp(-x * x)
    dom = (-10.0, 10.0)
    for k in (1, 4, 16):
        assert power_ratio_limit(f, lambda x: x + 2.0, dom, k) == pytest.approx(
            2.0, abs=1e-9)
        got = power_ratio_limit(f, lambda x: x * x, dom, k)
        assert got == pytest.approx(1.0 / (2.0 * k), abs=1e-6)
        assert got == pytest.approx(
            oracles.quad_power_ratio(f, lambda x: x * x, *dom, k), abs=1e-6)
    assert power_ratio_limit(f, lambda x: x + 2.0, dom, 10_000) == pytest.approx(
        2.0, abs=1e-3)


def test_power_ratio_errors():
    with pytest.raises(QuadratureFailure):
        power_ratio_limit(lambda x: 0.0, lambda x: 1.0, (-1.0, 1.0), 2)
    with pytest.raises(ValueError):
        power_ratio_limit(lambda x: 1.0, lambda x: 1.0, (1.0, 1.0), 2)


def test_estimate_record_fields(q0u):
    cfg = EstimatorConfig(k=3, samples=20_000, R=4.0, seed=77,
                          r_doubling_rounds=0)
    rec = estimate_record(estimate_tk_unit(q0u, Q0_ANCHOR, q0u, cfg), cfg)
    assert set(rec) == {"value", "std_error", "ess", "r_stability", "k",
                        "samples", "R", "seed"}
    assert rec["k"] == 3 and rec["samples"] == 20_000 and rec["seed"] == 77
    assert len(rec["value"]) == 2 and len(rec["std_error"]) == 2
    assert SWEEP_CSV_HEADER == ("k", "value_x", "value_y", "se_x", "se_y",
                                "err_to_v")
