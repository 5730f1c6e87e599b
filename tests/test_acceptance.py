"""Desk-scale acceptance gate: eleven property checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Each test also prints its measured numbers, so a red line carries
the evidence with it.  Statistical checks run at frozen seeds and are
therefore deterministic; the frozen expectations live next to the asserts.
"""

import json

import numpy as np
import pytest
from scipy.stats import kstest

from aipoints import (
    EstimatorConfig,
    automorphism_group,
    canonicalize,
    estimate_tk,
    estimate_tk_unit,
    evaluate_weights_batch,
    fixed_points,
    intersection_area,
    john_center,
    normalize_to_unit_area,
    sample_sl2pm,
    singular_values,
    slab_envelope,
    translation_support_radius,
    weight_context,
    VolumePreservingAffineMap,
    ConvexPolygon,
)
from aipoints.cli import main as cli_main

import oracles
from oracles import (fractional_polar_factor, invariance_check, inverse,
                     power_ratio_limit, smoothed_ball_indicator, truncated_cdf)

SQUARE = canonicalize(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
TRIANGLE = canonicalize(np.array([[0, 0], [1, 0], [0, 1]], float))
Q0_RAW = canonicalize(np.array([[0, 0], [1, 0], [1.3, 0.8], [0.2, 1.1]], float))
Q0_UNIT = normalize_to_unit_area(Q0_RAW)[0]


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")


def _random_hull(rng, scale=1.0, shift=0.0):
    while True:
        pts = rng.normal(size=(int(rng.integers(4, 9)), 2)) * scale + shift
        hull = oracles.gift_wrap_hull(pts)
        if len(hull) >= 3:
            return canonicalize(hull)


def _random_unimodular(rng, spread=0.9):
    th1, th2 = rng.uniform(0, 2 * np.pi, 2)
    t = rng.normal() * spread
    r1 = np.array([[np.cos(th1), -np.sin(th1)], [np.sin(th1), np.cos(th1)]])
    r2 = np.array([[np.cos(th2), -np.sin(th2)], [np.sin(th2), np.cos(th2)]])
    m = r1 @ np.diag([np.exp(t), np.exp(-t)]) @ r2
    if rng.random() < 0.5:
        m = m @ np.diag([1.0, -1.0])
    return m


def _weight(ctx, phi):
    """F for one map, through the batch path the estimator runs."""
    return float(evaluate_weights_batch(ctx, phi.linear[None],
                                        phi.translation[None])[0])


def _oracle_z(pa, pb, exact, rng, n):
    est = oracles.mc_intersection_area(pa.vertices, pb.vertices, rng, n=n)
    box = np.prod(pa.vertices.max(axis=0) - pa.vertices.min(axis=0))
    p = est / box
    se = box * np.sqrt(max(p * (1.0 - p), 0.0) / n)
    if se == 0.0:
        return 0.0 if exact == est else np.inf
    return abs(exact - est) / se


def test_criterion_01_intersection_oracle_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    violations = flagged = 0
    for _ in range(200):
        pa = _random_hull(rng)
        pb = _random_hull(rng, scale=rng.uniform(0.5, 1.5),
                          shift=rng.uniform(-1, 1, 2))
        exact = intersection_area(pa, pb)
        z = _oracle_z(pa, pb, exact, rng, 1_000_000)
        if z > 3.0:
            # the oracle is the noisy side; a real area bug reproduces with
            # z growing like sqrt(n), a fluctuation redraws near zero
            flagged += 1
            z = _oracle_z(pa, pb, exact, rng, 4_000_000)
        worst = max(worst, z)
        violations += z > 3.0
    same = intersection_area(SQUARE, SQUARE)
    shifted = intersection_area(
        SQUARE, canonicalize(SQUARE.vertices + [0.5, 0.0]))
    far = intersection_area(SQUARE, canonicalize(SQUARE.vertices + [10.0, 0.0]))
    exact_ok = (abs(same - 1.0) <= 1e-12 and abs(shifted - 0.5) <= 1e-12
                and abs(far) <= 1e-12)
    ok = violations == 0 and exact_ok
    _report(1, "intersection vs rejection oracle", ok,
            f"200 pairs, worst z={worst:.2f}, flagged={flagged} "
            f"(re-measured at 4e6), violations={violations}, "
            f"trivial cases exact={exact_ok}")
    assert ok


def test_criterion_02_weight_envelopes():
    rng = np.random.default_rng(0)
    ctx = weight_context(canonicalize(SQUARE.vertices - 0.5), Q0_UNIT)
    support_violations = envelope_violations = beyond = 0
    for _ in range(1000):
        m = _random_unimodular(rng)
        rho = translation_support_radius(ctx, m)
        ang = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(0.0, 2.5) * rho
        x = r * np.array([np.cos(ang), np.sin(ang)])
        w = _weight(ctx, VolumePreservingAffineMap(m, x))
        if r > rho:
            beyond += 1
            support_violations += w != 0.0
        envelope_violations += w > slab_envelope(ctx, m) + 1e-12
    ok = support_violations == 0 and envelope_violations == 0
    _report(2, "support radius and slab envelope", ok,
            f"1000 probes ({beyond} beyond the radius), "
            f"support violations={support_violations}, "
            f"envelope violations={envelope_violations}")
    assert ok


def test_criterion_03_haar_marginal_and_invariance():
    rng = np.random.default_rng(0)
    ts = np.empty(100_000)
    for i in range(ts.size):
        ts[i] = np.log(singular_values(sample_sl2pm(6.0, rng)).lam1)
    pvalue = kstest(ts, lambda x: truncated_cdf(x, 6.0)).pvalue
    h = smoothed_ball_indicator(2.0)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        g = sample_sl2pm(4.0, rng)
        res = invariance_check(g, h, 2.0, 400_000, rng)
        worst = max(worst, res.discrepancy / res.std_error)
    ok = pvalue > 0.01 and worst < 3.0
    _report(3, "Haar radial law and left invariance", ok,
            f"KS p={pvalue:.3f} (1e5 samples), worst invariance z={worst:.2f} "
            f"over 10 maps")
    assert ok


def test_criterion_04_ball_semigroup():
    rng = np.random.default_rng(0)
    slack = 1e-9
    inclusion_bad = factor_bad = 0
    worst_prod = worst_fact = 0.0
    for _ in range(1000):
        r1, r2 = rng.uniform(1.2, 6.0, 2)
        m1 = sample_sl2pm(r1, rng)
        m2 = sample_sl2pm(r2, rng)
        excess = singular_values(m1 @ m2).lam1 - r1 * r2
        worst_prod = max(worst_prod, excess)
        inclusion_bad += excess > slack
        # converse: factor a ball element through the polar interpolation
        a = sample_sl2pm(r1 * r2, rng)
        s = np.log(r1) / np.log(r1 * r2)
        a1 = fractional_polar_factor(a, s)
        a2 = inverse(a1) @ a
        recon = float(np.max(np.abs(a1 @ a2 - a)))
        n1 = singular_values(a1).lam1 - r1
        n2 = singular_values(a2).lam1 - r2
        worst_fact = max(worst_fact, recon, n1, n2)
        factor_bad += (recon > slack) or (n1 > slack) or (n2 > slack)
    ok = inclusion_bad == 0 and factor_bad == 0
    _report(4, "norm-ball semigroup", ok,
            f"1000 products worst excess={worst_prod:.2e}, 1000 factorizations "
            f"worst slack={worst_fact:.2e}")
    assert ok


def test_criterion_05_power_ratio_limits():
    f = lambda x: np.exp(-x * x)
    dom = (-10.0, 10.0)
    errs = [abs(power_ratio_limit(f, lambda x: x * x, dom, k) - 1.0 / (2 * k))
            for k in (1, 4, 16)]
    tail = abs(power_ratio_limit(f, lambda x: x + 2.0, dom, 10_000) - 2.0)
    ok = max(errs) <= 1e-6 and tail <= 1e-3
    _report(5, "peaked-ratio quadrature", ok,
            f"Gaussian second-moment errs={[f'{e:.1e}' for e in errs]}, "
            f"k=1e4 limit err={tail:.1e}")
    assert ok


def test_criterion_06_equivariance_audit(tmp_path):
    bodies = tmp_path / "bodies"
    bodies.mkdir()
    (bodies / "square.json").write_text(
        json.dumps({"vertices": SQUARE.vertices.tolist()}))
    (bodies / "q0.json").write_text(
        json.dumps({"vertices": Q0_RAW.vertices.tolist()}))
    out = tmp_path / "audit.csv"
    code = cli_main(["audit", str(bodies), "--rules", "tk", "--maps", "20",
                     "--seed", "0", "--threads", "4", "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")][1:]
    n_ok = sum(row[5] == "ok" for row in rows)
    ok = code == 0 and len(rows) == 40 and n_ok >= 0.95 * len(rows)
    _report(6, "statistical equivariance", ok,
            f"residual <= 3 sigma + r_stability in {n_ok}/{len(rows)} trials "
            f"(default config, 20 maps x 2 bodies)")
    assert ok


def _rotation_slice_point(body, anchor, ks):
    """Weighted average of phi_t(v) along the rotations phi_t(y) = c + R_t(y - c)
    about the centroid c, with weight F(phi_t)^k, one value per k in ``ks``.

    This is the T_k construction restricted to a one-parameter family through
    the identity and evaluated by deterministic quadrature over (-pi, pi),
    one coordinate at a time.  F is cached per angle, so the grid and the
    quadrature nodes shared between rungs and coordinates are clipped once.
    """
    c = np.asarray(body.centroid, float)
    anchor = np.asarray(anchor, float)
    ctx = weight_context(body, body)

    def phi(t):
        r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        return VolumePreservingAffineMap(r, c - r @ c)

    cache = {}

    def weight(t):
        t = float(t)
        if t not in cache:
            cache[t] = _weight(ctx, phi(t))
        return cache[t]

    return [np.array([power_ratio_limit(weight,
                                        lambda t, i=i: phi(t).apply(anchor)[i],
                                        (-np.pi, np.pi), k)
                      for i in range(2)])
            for k in ks]


def test_criterion_07_convergence_toward_anchor():
    # T_k(K) -> v as k -> infinity when K has no nontrivial affine
    # automorphism; the paper promises no rate at finite k (README,
    # "Convergence at finite k"), so the limit is checked where it is reached:
    # on the rotation slice through the identity, F = 1 only at t = 0 for Q0.
    cert = automorphism_group(Q0_UNIT)
    anchor = np.array([0.55, 0.45])
    assert cert.order == 1 and fixed_points(cert, tuple(anchor))
    ks = (16, 256, 1024)
    errs = [float(np.linalg.norm(p - anchor))
            for p in _rotation_slice_point(Q0_UNIT, anchor, ks)]
    decreasing = errs[0] > errs[1] > errs[2]
    reached = errs[1] <= 1e-4 and errs[2] <= 1e-5
    # contrast: the square's rotations by multiples of pi/2 are automorphisms,
    # so the slice point stays at the centre, |(0.7, 0.6) - (0.5, 0.5)| away
    sq_anchor = np.array([0.7, 0.6])
    sq_gap = float(np.linalg.norm(sq_anchor - [0.5, 0.5]))
    sq_err = float(np.linalg.norm(
        _rotation_slice_point(SQUARE, sq_anchor, (256,))[0] - sq_anchor))
    pinned = sq_err >= 0.9 * sq_gap
    ok = decreasing and reached and pinned
    _report(7, "anchor convergence as k grows", ok,
            "Q0 rotation-slice err " + ", ".join(
                f"k={k}: {e:.2e}" for k, e in zip(ks, errs))
            + f"; decreasing={decreasing}, err(256)<=1e-4 and "
            f"err(1024)<=1e-5={reached}; square off-centre anchor err(256)="
            f"{sq_err:.4f} vs gap {sq_gap:.4f}")
    assert ok


def test_criterion_08_scaling_homogeneity():
    cfg = EstimatorConfig(k=4, samples=100_000, R=4.0, seed=5)
    base = estimate_tk(Q0_UNIT, np.array([0.55, 0.45]), Q0_UNIT, cfg)
    worst = 0.0
    for c in (0.5, 3.0):
        scaled = estimate_tk(Q0_UNIT, np.array([0.55, 0.45]),
                             ConvexPolygon(c * Q0_UNIT.vertices), cfg)
        worst = max(worst, float(np.max(np.abs(scaled.value - c * base.value))))
    ok = worst <= 1e-12
    _report(8, "shared-seed scaling identity", ok,
            f"max |value(cL) - c value(L)| = {worst:.2e} over c in {{0.5, 3}}")
    assert ok


def test_criterion_09_symmetry_classification():
    sq = automorphism_group(SQUARE)
    tr = automorphism_group(TRIANGLE)
    q0 = automorphism_group(Q0_RAW)
    checks = {
        "square dihedral(4)": sq.kind == "dihedral(4)" and sq.order == 8,
        "square fixed point": np.allclose(sq.fixed_set.point, [0.5, 0.5],
                                          atol=1e-9),
        "triangle order 6": tr.order == 6,
        "triangle fixed point": np.allclose(tr.fixed_set.point, [1 / 3, 1 / 3],
                                            atol=1e-9),
        "q0 trivial": q0.kind == "trivial" and q0.order == 1,
        "q0 whole plane": q0.fixed_set.kind == "whole-plane",
    }
    ok = all(checks.values())
    _report(9, "automorphism groups", ok,
            ", ".join(f"{name}={'ok' if good else 'BAD'}"
                      for name, good in checks.items()))
    assert ok


def test_criterion_10_classical_points(tmp_path):
    sq_err = float(np.linalg.norm(john_center(SQUARE) - [0.5, 0.5]))
    tr_err = float(np.linalg.norm(john_center(TRIANGLE) - [1 / 3, 1 / 3]))
    bodies = tmp_path / "bodies"
    bodies.mkdir()
    (bodies / "square.json").write_text(
        json.dumps({"vertices": SQUARE.vertices.tolist()}))
    (bodies / "triangle.json").write_text(
        json.dumps({"vertices": TRIANGLE.vertices.tolist()}))
    out = tmp_path / "audit.csv"
    code = cli_main(["audit", str(bodies), "--rules", "centroid,john",
                     "--maps", "20", "--seed", "0", "--out", str(out)])
    worst = {"centroid": 0.0, "john": 0.0}
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")][1:]
    for row in rows:
        worst[row[1]] = max(worst[row[1]], float(row[3]))
    ok = (code == 0 and sq_err <= 1e-6 and tr_err <= 1e-6
          and worst["john"] < 1e-5 and worst["centroid"] < 1e-10)
    _report(10, "classical point rules", ok,
            f"square center err={sq_err:.1e}, triangle err={tr_err:.1e}, "
            f"audit worst residual centroid={worst['centroid']:.1e} "
            f"john={worst['john']:.1e} over {len(rows)} rows")
    assert ok


def test_criterion_11_hausdorff_continuity():
    rng = np.random.default_rng(0)
    offsets = rng.normal(size=(4, 2))
    offsets = 1e-2 * offsets / np.linalg.norm(offsets, axis=1, keepdims=True)
    perturbed = normalize_to_unit_area(
        canonicalize(Q0_RAW.vertices + offsets))[0]
    anchor = np.array(Q0_UNIT.centroid)
    cfg = EstimatorConfig(seed=0)  # default config: k=4, 2e5 samples, R=16
    base = estimate_tk_unit(Q0_UNIT, anchor, Q0_UNIT, cfg, threads=4)
    moved = estimate_tk_unit(perturbed, anchor, perturbed, cfg, threads=4)
    delta = float(np.linalg.norm(moved.value - base.value))
    sigma = float(np.sqrt(np.sum(base.std_error ** 2)
                          + np.sum(moved.std_error ** 2)))
    ok = delta < 0.1 + 3.0 * sigma
    _report(11, "continuity under vertex perturbation", ok,
            f"|delta|={delta:.4f} vs gate 0.1 + 3 sigma = {0.1 + 3 * sigma:.4f}")
    assert ok
