"""Estimator behavior: exact identities, convergence trends, error paths.

The k = 1 case has a closed form that pins down correctness: the weight
integrates to |K||L| over translations for every linear part, and the
first moment telescopes to centroid(L) - M centroid(K), so T_1(L) is the
centroid of L for any anchor, base body, and truncation.  Everything else
is checked against that anchor point plus structural exactness (scaling,
translation, affinity in v) and frozen seeded runs.
"""

from dataclasses import replace

import numpy as np
import pytest

import aipoints.cli
import aipoints.estimator
from aipoints.estimator import MAX_RADIUS
from aipoints.geometry import SEP_GAP
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
    weight_context,
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
    # ... and that no k repeats: [2, 2, 8] ran k = 2 twice and gave its row twice
    for ks in ([2, 2, 8], [8, 2, np.int64(8)]):
        for check in (True, False):
            with pytest.raises(ConfigError, match="more than once"):
                convergence_sweep(q0u, Q0_ANCHOR, ks, small, check_anchor=check)
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
                                       200_000)[:4]
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
    # origin, so the spy must see them centred for the disk to hold.  Only
    # the draws that can reach L get to evaluate_weights_batch, so the fill
    # of the disk and the probes outside it read every draw from a spy on
    # the sampler
    K = canonicalize(q0u.vertices + [40.0, -25.0])
    tri = normalize_to_unit_area(canonicalize([[0, 0], [1, 0], [0, 1]]))[0]
    L = canonicalize(tri.vertices + [-30.0, 55.0])
    seen, blocks = [], []

    def spy(ctx, mats, xs):
        seen.append((ctx, mats.copy(), xs.copy()))
        return evaluate_weights_batch(ctx, mats, xs)

    def recorder(*args):
        blocks.append(_sample_cartan(*args))
        return blocks[-1]

    monkeypatch.setattr(aipoints.estimator, "evaluate_weights_batch", spy)
    monkeypatch.setattr(aipoints.estimator, "_sample_cartan", recorder)
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
    assert 0 < len(xs) < cfg.samples
    lam1 = np.linalg.svd(mats, compute_uv=False)[:, 0]
    assert lam1.max() > 4.0 and (np.linalg.det(mats) < 0).any()
    rho = np.array([translation_support_radius(ctx, m) for m in mats])
    assert np.allclose(rho, lam1 * (ctx.R_K + ctx.R_L), rtol=1e-12)
    frac = np.linalg.norm(xs, axis=1) / rho
    assert frac.max() <= 1.0 + 1e-9
    # the draws fill exactly that disk: P(|x| > 0.9 rho) = 1 - 0.81
    draws = np.concatenate(blocks, axis=1)
    radii = draws[4]
    assert len(radii) == cfg.samples and radii.max() <= 1.0
    assert abs(np.mean(radii > 0.9) - 0.19) < 0.015
    # and no weight lies outside it, for the maps of every draw
    every = _decode_cartan(*draws[:4])
    assert len(every) == cfg.samples
    rng = np.random.default_rng(8)
    ang = rng.uniform(0.0, 2 * np.pi, len(every))
    out = (np.linalg.svd(every, compute_uv=False)[:, 0] * (ctx.R_K + ctx.R_L)
           * rng.uniform(1.0 + 1e-6, 3.0, len(every)))
    probes = out[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    assert np.count_nonzero(evaluate_weights_batch(ctx, every, probes)) == 0
    # while inside it the weight is hit, also beyond the radius
    # R_K + R_L that the disk would have without the stretch factor lam1
    inside = evaluate_weights_batch(ctx, mats, xs)
    assert np.count_nonzero(inside) > 100
    assert np.count_nonzero(inside[frac * lam1 > 1.0]) > 0


def test_thread_count_is_bitwise_invisible(q0u):
    # 270,000 samples split into 16 jobs, one per substream, once there are
    # 16 threads or more (17 > STREAM_COUNT)
    for cfg in (EstimatorConfig(k=4, samples=30_000, R=4.0, seed=9),
                EstimatorConfig(k=4, samples=270_000, seed=9,
                                r_doubling_rounds=0)):
        runs = [estimate_tk_unit(q0u, Q0_ANCHOR, q0u, cfg, threads=n)
                for n in (1, 2, 3, 8, 17)]
        for other in runs[1:]:
            assert np.array_equal(runs[0].value, other.value)
            assert np.array_equal(runs[0].std_error, other.std_error)
            assert runs[0].ess == other.ess
            assert runs[0].r_stability == other.r_stability


def test_threads_take_contiguous_runs_of_substreams(q0u, monkeypatch):
    # one job per thread up to one per _BATCH samples and one per substream,
    # each a contiguous run of substreams: a run of at most _BATCH samples is
    # one _stream_partial call at any thread count, and so is any run at
    # one thread
    calls = []
    real = aipoints.estimator._stream_partial

    def spy(ctx, ks, radius, seed_seqs, counts):
        calls.append(([seq.spawn_key[-1] for seq in seed_seqs], sum(counts)))
        return real(ctx, ks, radius, seed_seqs, counts)

    monkeypatch.setattr(aipoints.estimator, "_stream_partial", spy)
    batch = aipoints.estimator._BATCH
    for samples, threads, jobs in ((6_000, 17, 1), (batch, 2, 1),
                                   (batch, 17, 1), (batch + 1, 17, 2),
                                   (200_000, 1, 1), (200_000, 3, 3),
                                   (300_000, 17, 16)):
        calls.clear()
        estimate_tk_unit(q0u, Q0_ANCHOR, q0u,
                         EstimatorConfig(samples=samples, r_doubling_rounds=0),
                         threads=threads)
        assert len(calls) == jobs, (samples, threads)
        order = [i for streams, _ in sorted(calls) for i in streams]
        assert order == list(range(aipoints.estimator.STREAM_COUNT))
        assert sum(drawn for _, drawn in calls) == samples


def test_grouped_run_matches_per_stream_run(q0u):
    # _run_once reads value, std_error and ess out of moments of (M, x)
    # summed over hit rows, in groups of substreams; they must agree with the
    # per-anchor sums of one batch per substream up to reassociation: one
    # group, several substreams per group, uneven counts, one substream per
    # group, and substreams longer than _BATCH
    body = ConvexPolygon(q0u.vertices - q0u.centroid)
    ctx, anchor = weight_context(body, body), Q0_ANCHOR - q0u.centroid
    for samples in (6_000, 40_000, 100_003, 200_000, 16 * 65_536 + 17):
        ref = oracles.per_stream_run(ctx, anchor, 4, samples, 4.0,
                                     np.random.SeedSequence(21), 1)
        for threads in (1, 3):
            got = aipoints.estimator._run_once(ctx, anchor, 4, samples, 4.0,
                                               np.random.SeedSequence(21),
                                               threads)
            for g, r in zip(got[:3], ref[:3]):
                assert np.allclose(g, r, rtol=1e-12, atol=0), (samples, threads)
            assert got[3] == ref[3], (samples, threads)
    for run in (oracles.per_stream_run, aipoints.estimator._run_once):
        with pytest.raises(DegenerateWeights):
            run(ctx, anchor, 4, 10, 4.0, np.random.SeedSequence(21), 1)


def test_skipped_draws_drop_no_hit(q0u):
    # _run_once skips the draws whose translation cannot reach L; the
    # reference evaluates every draw, so the two agree only if no skipped
    # draw would have hit: several truncation radii, a 12-gon, and K != L
    # (so R_K != R_L) in both orders
    ang = 2 * np.pi * np.arange(12) / 12
    gon = normalize_to_unit_area(canonicalize(
        np.stack([1.3 * np.cos(ang), np.sin(ang)], axis=1)))[0]
    tri = normalize_to_unit_area(canonicalize([[0, 0], [1, 0], [0, 1]]))[0]
    q0, gon, tri = (ConvexPolygon(b.vertices - b.centroid)
                    for b in (q0u, gon, tri))
    anchor = Q0_ANCHOR - q0u.centroid
    for K, L in ((q0, q0), (gon, gon), (q0, tri), (tri, q0)):
        ctx = weight_context(K, L)
        assert (ctx.R_K == ctx.R_L) == (K is L)
        for radius in (2.0, 16.0, 32.0):
            ref = oracles.per_stream_run(ctx, anchor, 4, 40_000, radius,
                                         np.random.SeedSequence(23), 1)
            got = aipoints.estimator._run_once(ctx, anchor, 4, 40_000, radius,
                                               np.random.SeedSequence(23), 1)
            for g, r in zip(got[:3], ref[:3]):
                assert np.allclose(g, r, rtol=1e-12, atol=0), radius
            assert got[3] == ref[3], radius


def test_weight_vanishes_outside_the_rectangle(q0u):
    # with u1, u2 the columns of R(theta1), a hit needs |<x, u1>| <= R_L +
    # e^t R_K and |<x, u2>| <= R_L + e^-t R_K; x just outside either bound
    # gets exactly 0.0, and _reaches_l keeps every draw inside the rectangle
    tri = normalize_to_unit_area(canonicalize([[0, 0], [1, 0], [0, 1]]))[0]
    q0, tri = (ConvexPolygon(b.vertices - b.centroid) for b in (q0u, tri))
    rng = np.random.default_rng(17)
    n = 20_000
    for ctx in (weight_context(q0, q0), weight_context(q0, tri),
                weight_context(tri, q0)):
        th1, t, th2, refl = _sample_cartan(32.0, rng, n)[:4]
        mats = _decode_cartan(th1, t, th2, refl)
        et = np.exp(t)
        assert refl.any() and (refl == 0).any() and et.max() > 30.0
        u1 = np.stack([np.cos(th1), np.sin(th1)], axis=1)
        u2 = np.stack([-np.sin(th1), np.cos(th1)], axis=1)
        half = np.stack([ctx.R_L + et * ctx.R_K, ctx.R_L + ctx.R_K / et], axis=1)
        sign = np.where(rng.random((n, 2)) < 0.5, -1.0, 1.0)
        inner = half * rng.uniform(-1.0, 1.0, (n, 2))
        for axis in (0, 1):
            c = inner.copy()
            c[:, axis] = sign[:, axis] * half[:, axis] * (1.0 + 1e-6)
            xs = c[:, :1] * u1 + c[:, 1:] * u2
            assert np.count_nonzero(evaluate_weights_batch(ctx, mats, xs)) == 0
        xs = inner[:, :1] * u1 + inner[:, 1:] * u2
        assert np.count_nonzero(evaluate_weights_batch(ctx, mats, xs)) > 100
        radial = np.hypot(xs[:, 0], xs[:, 1])
        keep = aipoints.estimator._reaches_l(ctx, th1, et, radial,
                                             np.arctan2(xs[:, 1], xs[:, 0]))
        assert keep.all()


def test_wedge_keeps_the_rectangle_mask(q0u):
    # _reaches_l rules draws out in a wedge about the u1 axis before it
    # takes any cos/sin; its mask must be that of the plain rectangle test,
    # for sampled draws and for draws placed on a rectangle edge, scaled by
    # 1 + j.  A quarter of the edge draws sit at the middle of an edge
    # |<x, u2>| = R_L + R_K / et, where the wedge's bound is tight
    ang = 2 * np.pi * np.arange(12) / 12
    gon = normalize_to_unit_area(canonicalize(
        np.stack([1.3 * np.cos(ang), np.sin(ang)], axis=1)))[0]
    tri = normalize_to_unit_area(canonicalize([[0, 0], [1, 0], [0, 1]]))[0]
    q0, gon, tri = (ConvexPolygon(b.vertices - b.centroid)
                    for b in (q0u, gon, tri))
    rng = np.random.default_rng(29)
    n, m, drawn = 50_000, 25_000, 0
    for K, L in ((q0, q0), (tri, q0), (q0, tri), (gon, gon)):
        ctx = weight_context(K, L)
        for radius in (2.0, 16.0, 32.0, 1e3, 1e4):
            th1, t, _, _, r, ang = _sample_cartan(radius, rng, n)
            et = np.exp(t)
            radial = et * (ctx.R_K + ctx.R_L) * r
            e = et[m:]
            half = (np.stack([ctx.R_L + e * ctx.R_K, ctx.R_L + ctx.R_K / e], axis=1)
                    * (1.0 + SEP_GAP * e * e)[:, None])
            c = half * rng.uniform(-1.0, 1.0, (n - m, 2))
            axis = rng.integers(0, 2, n - m)
            c[: m // 4, 0], axis[: m // 4] = 0.0, 1
            rows = np.arange(n - m)
            j = rng.choice([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9], n - m)
            c[rows, axis] = (np.where(rng.random(n - m) < 0.5, -1.0, 1.0)
                             * half[rows, axis] * (1.0 + j))
            radial[m:] = np.hypot(c[:, 0], c[:, 1])
            ang[m:] = np.mod(th1[m:] + np.arctan2(c[:, 1], c[:, 0]), 2 * np.pi)
            got = aipoints.estimator._reaches_l(ctx, th1, et, radial, ang)
            ref = oracles.rectangle_mask(ctx, th1, et, radial, ang)
            assert np.array_equal(got, ref), radius
            assert ref[m:].any() and not ref[m:].all(), radius
            drawn += n
    assert drawn >= 1_000_000


def test_grouping_keeps_moment_rows_bitwise(q0u):
    # a substream's row of moments has the same bytes whether it is summed
    # alone or over its slice of a group's batch: uneven counts, and one
    # substream longer than _BATCH that draws a second piece alone
    body = ConvexPolygon(q0u.vertices - q0u.centroid)
    ctx = weight_context(body, body)
    streams = np.random.SeedSequence(5).spawn(5)
    counts = [2_000, 1_999, 1_999, 1_998, aipoints.estimator._BATCH + 3_000]
    grouped = aipoints.estimator._stream_partial(ctx, (4,), 4.0, streams, counts)
    assert grouped.shape == (5, 57) and (grouped[:, 56] > 0).all()
    for row, seq, count in zip(grouped, streams, counts):
        alone = aipoints.estimator._stream_partial(ctx, (4,), 4.0, [seq], [count])
        assert alone.tobytes() == row.tobytes()
    # several exponents read the same hits: the k = 4 block of a call with
    # ks (2, 4, 9) has the bytes of the call with k = 4 alone
    several = aipoints.estimator._stream_partial(ctx, (2, 4, 9), 4.0, streams,
                                                 counts)
    assert several.shape == (5, 3 * 57)
    assert several[:, 57:114].tobytes() == grouped.tobytes()
    assert (several[:, [56, 113, 170]] == grouped[:, [56]]).all()


def _estimate_bytes(est) -> bytes:
    return (est.value.tobytes() + est.std_error.tobytes()
            + np.float64(est.ess).tobytes() + np.float64(est.r_stability).tobytes())


def test_sweep_rows_match_separate_estimates_bitwise(q0u):
    # a sweep draws and clips once per run radius for all its k; each row
    # must have the bytes of estimate_tk with that k at the same seed.  At
    # 300,000 samples each substream draws two _BATCH pieces, and the ks are
    # out of order
    ks = [16, 2, 8]
    for threads, R, rounds, samples in ((1, 2.0, 0, 6_000), (3, 2.0, 2, 6_000),
                                        (3, 2.0, 0, 300_000),
                                        (1, 16.0, 2, 300_000),
                                        (3, 16.0, 0, 300_000)):
        cfg = EstimatorConfig(samples=samples, R=R, seed=4,
                              r_doubling_rounds=rounds)
        rows = convergence_sweep(q0u, Q0_ANCHOR, ks, cfg, threads=threads,
                                 check_anchor=False)
        assert [row.k for row in rows] == ks
        for row in rows:
            alone = estimate_tk(q0u, Q0_ANCHOR, q0u,
                                EstimatorConfig(k=row.k, samples=samples, R=R,
                                                seed=4, r_doubling_rounds=rounds),
                                threads=threads)
            assert _estimate_bytes(row.estimate) == _estimate_bytes(alone), (
                threads, R, rounds, samples, row.k)


def test_sweep_state_ends_with_the_call(q0u, monkeypatch):
    # the last k makes every F^k underflow in the R-doubling rerun: the sweep
    # raises what the per-k loop raises, at the same row, and leaves no memo
    cfg = EstimatorConfig(samples=20_000, R=2.0, seed=0)
    ks = [2, 3000]
    before = estimate_tk(q0u, Q0_ANCHOR, q0u, replace(cfg, k=2))
    with pytest.raises(DegenerateWeights) as loop:
        for k in ks:
            estimate_tk(q0u, Q0_ANCHOR, q0u, replace(cfg, k=k))
    called = []
    real = aipoints.estimator.estimate_tk_unit

    def spy(K, v, L, row_cfg, threads=1):
        called.append(row_cfg.k)
        return real(K, v, L, row_cfg, threads=threads)

    with monkeypatch.context() as patch:
        patch.setattr(aipoints.estimator, "estimate_tk_unit", spy)
        with pytest.raises(DegenerateWeights) as swept:
            convergence_sweep(q0u, Q0_ANCHOR, ks, cfg, check_anchor=False)
    assert type(swept.value) is type(loop.value)
    assert str(swept.value) == str(loop.value)
    assert "k=3000, R=4.0" in str(swept.value)
    assert called == ks
    assert aipoints.estimator._SWEEP.get() is None
    after = estimate_tk(q0u, Q0_ANCHOR, q0u, replace(cfg, k=2))
    assert _estimate_bytes(after) == _estimate_bytes(before)


def test_substreams_share_batches(q0u, monkeypatch):
    # a short run is one batch.  A longer run draws in rounds of at most
    # _BATCH draws and keeps only the draws that can reach L, at the default
    # R = 16 about 5% of them; the kept rows of successive rounds are pooled
    # and evaluated once the next round would take the pool past _POOL rows,
    # so 200,000 samples take a few batches, and no batch is larger than
    # _POOL or the kept rows of one round
    rows, kept = [], []
    real = aipoints.estimator._reaches_l

    def spy(ctx, mats, xs):
        rows.append(len(xs))
        return evaluate_weights_batch(ctx, mats, xs)

    def reach_spy(*args):
        mask = real(*args)
        kept.append(np.count_nonzero(mask))
        return mask

    monkeypatch.setattr(aipoints.estimator, "evaluate_weights_batch", spy)
    monkeypatch.setattr(aipoints.estimator, "_reaches_l", reach_spy)
    for samples, calls in ((6_000, 1), (200_000, 8), (300_000, None)):
        rows.clear()
        kept.clear()
        estimate_tk_unit(q0u, Q0_ANCHOR, q0u,
                         EstimatorConfig(samples=samples, r_doubling_rounds=0))
        assert calls is None or 0 < len(rows) <= calls, samples
        cap = max(aipoints.estimator._POOL, max(kept))
        assert all(0 < got <= cap for got in rows), samples
        assert sum(rows) == sum(kept) < 0.1 * samples, samples
    assert len(kept) == 32      # pieces of 16,384 and 2,366 rows


def test_seed_reproducibility(q0u):
    cfg = EstimatorConfig(k=4, samples=20_000, R=4.0, seed=13)
    a = estimate_tk_unit(q0u, Q0_ANCHOR, q0u, cfg)
    b = estimate_tk_unit(q0u, Q0_ANCHOR, q0u, cfg)
    assert np.array_equal(a.value, b.value)
    c = estimate_tk_unit(q0u, Q0_ANCHOR, q0u,
                         EstimatorConfig(k=4, samples=20_000, R=4.0, seed=14))
    assert not np.array_equal(a.value, c.value)


def test_frozen_seed_values(q0u):
    # values recorded when each draw was six rng.random(n) calls in a fixed
    # order: any reordering of the uniforms moves them far past rel 1e-12,
    # libm ulps do not.  Each estimate is (value, std_error, ess, r_stability)
    def pinned(est, want):
        got = [*est.value, *est.std_error, est.ess, est.r_stability]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    pinned(estimate_tk(q0u, Q0_ANCHOR, q0u, EstimatorConfig()),
           [0.5796117491520019, 0.48432027245844694, 0.016071773526002475,
            0.014132960743510758, 535.7876051387251, 0.010408794486644517])
    # two pieces per substream, drawn on three threads
    pinned(estimate_tk(q0u, Q0_ANCHOR, q0u,
                       EstimatorConfig(k=2, R=2.0, samples=300_000), threads=3),
           [0.5943572685837446, 0.4824788430778804, 0.001852917651128324,
            0.0017529877164721023, 24334.663293178342, 0.0035880676914867124])
    rows = convergence_sweep(q0u, Q0_ANCHOR, [2, 8, 16], EstimatorConfig(R=2.0),
                             check_anchor=False)
    sweep = {
        2: (0.05354410934563259,
            [0.5942526378373096, 0.48014424804265277, 0.002274456721776783,
             0.002136416878579283, 16213.19432552479, 0.0076457012719078265]),
        8: (0.05267519429062149,
            [0.5920564653967652, 0.481716396577881, 0.00237339269058232,
             0.0021211397028255085, 3205.8951629205935, 0.0016559915298048687]),
        16: (0.052292902173037566,
             [0.5899279015621726, 0.48376848078490264, 0.003584489004288307,
              0.0030885588453891995, 442.1044056942286, 0.014314784091630966]),
    }
    assert [row.k for row in rows] == list(sweep)
    for row in rows:
        err, want = sweep[row.k]
        assert row.err_to_v == pytest.approx(err, rel=1e-12, abs=0.0)
        pinned(row.estimate, want)
    # the audit maps: four uniforms per linear part, then the shift
    maps = aipoints.cli._audit_maps(2, 0)
    got = [[*m.linear.ravel(), *m.translation] for m in maps]
    want = [[-0.7903345907223571, -0.7440893239340592, -1.1860093230638697,
             0.14867516366013708, 0.6265404784005448, 0.8255111545554434],
            [1.2874941034339658, -0.7148761386295707, 1.2089504689042787,
             0.10543749803065644, 0.6317071082430643, -0.9945229996597038]]
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=0.0)


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
    with pytest.raises(DegenerateWeights, match="only .* hit the weight support"):
        estimate_tk_unit(q0u, Q0_ANCHOR, q0u,
                         EstimatorConfig(k=4, samples=64, R=4.0,
                                         r_doubling_rounds=0))
    # enough hits, but every F^k underflows in the R-doubling rerun at R=4
    with pytest.raises(DegenerateWeights,
                       match=r"underflowed .*k=3000, R=4\.0\); lower k"):
        estimate_tk_unit(q0u, Q0_ANCHOR, q0u,
                         EstimatorConfig(k=3000, samples=20_000, R=2.0))


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
