"""Self-normalized importance-sampling estimator for the invariant points.

For unit-area K, L and an anchor v, the target is the ratio of the integrals
of F_K^k(L)(phi) phi(v) and F_K^k(L)(phi) over the volume-preserving affine
group truncated to S_R x R^2.  T_k commutes with translations, so K (with v)
and L are first moved to centroid 0 and the estimate is moved back by
centroid(L); translating the inputs then shifts the estimate by round-off
only (shared seeds).  Proposal: M from the truncated Haar sampler, x uniform
on the disk about 0 of radius translation_support_radius(ctx, M), which
covers the translation support of the weight.  Weights are the constant Haar
mass times the disk mass, the estimator is the weighted ratio, standard
errors come from the delta method, and one R-doubling rerun with fresh
samples reports the truncation stability.

Sampling is always split over a fixed number of seeded substreams combined in
stream order, so results are bitwise reproducible for a fixed seed regardless
of the thread count.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import AnchorOutsideFixedSet, ConfigError, DegenerateWeights
from .geometry import ConvexPolygon, normalize_to_unit_area
from .haar import _decode_cartan, _sample_cartan, _sample_disk, truncated_mass
from .symmetry import automorphism_group, fixed_points
from .weightfn import WeightContext, evaluate_weights_batch, weight_context

__all__ = [
    "EstimatorConfig",
    "PointEstimate",
    "SweepRow",
    "estimate_tk_unit",
    "estimate_tk",
    "convergence_sweep",
    "estimate_record",
    "SWEEP_CSV_HEADER",
]

DEFAULT_SAMPLES = 200_000
DEFAULT_RADIUS = 16.0
DEFAULT_K = 4           # integrability floor used as the default exponent
# Largest radius a run may reach (R * 2**r_doubling_rounds).  A decoded draw
# has |det M| - 1 of about 0.5 R^2 eps, 1.1e-8 at 1e4: 100x inside the 1e-6
# that VolumePreservingAffineMap accepts, so det M keeps the reflection's sign.
MAX_RADIUS = 1e4
STREAM_COUNT = 16       # fixed substream split; threads only consume them
_CHUNK = 65_536
_MIN_SUPPORT_HITS = 100

SWEEP_CSV_HEADER = ("k", "value_x", "value_y", "se_x", "se_y", "err_to_v")


@dataclass(frozen=True)
class EstimatorConfig:
    k: int = DEFAULT_K
    samples: int = DEFAULT_SAMPLES
    R: float = DEFAULT_RADIUS
    seed: int = 0
    r_doubling_rounds: int = 1

    def __post_init__(self):
        _require_int("k", self.k, 1)
        _require_int("samples", self.samples, 1)
        if not isinstance(self.R, numbers.Real) or not 1.0 < self.R < np.inf:
            raise ConfigError(
                f"truncation radius must be finite and exceed 1, got {self.R!r}")
        _require_int("r_doubling_rounds", self.r_doubling_rounds, 0)
        # R > 1, so 64 doublings pass MAX_RADIUS (and 2.0**n cannot overflow)
        if self.R * 2.0 ** min(self.r_doubling_rounds, 64) > MAX_RADIUS:
            raise ConfigError(
                f"truncation radius R * 2**r_doubling_rounds must be <= "
                f"{MAX_RADIUS:g}, got {self.R!r} * 2**{self.r_doubling_rounds}")
        _require_int("seed", self.seed, 0)


def _require_int(name: str, value, low: int) -> None:
    """ConfigError unless ``value`` is a non-boolean integer >= ``low``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class PointEstimate:
    value: np.ndarray
    std_error: np.ndarray
    ess: float
    r_stability: float


@dataclass(frozen=True)
class SweepRow:
    k: int
    estimate: PointEstimate
    err_to_v: float


def _anchor(v) -> np.ndarray:
    """The anchor as a float 2-vector; a non-finite one is a ConfigError."""
    anchor = np.asarray(v, dtype=float).reshape(2)
    if not np.isfinite(anchor).all():
        raise ConfigError(f"anchor must be finite, got {anchor.tolist()}")
    return anchor


def _finite(est: PointEstimate) -> PointEstimate:
    """The estimate itself; one with a non-finite field is a ConfigError."""
    if not np.isfinite([*est.value, *est.std_error, est.ess, est.r_stability]).all():
        raise ConfigError(f"estimate is not finite: value {est.value.tolist()}, "
                          f"std_error {est.std_error.tolist()}")
    return est


def _stream_partial(ctx: WeightContext, anchor: np.ndarray, k: int,
                    radius: float, seed_seq: np.random.SeedSequence,
                    count: int) -> tuple:
    """Accumulate one substream's sums for the ratio estimator."""
    rng = np.random.default_rng(seed_seq)
    mass = truncated_mass(radius)
    reach = ctx.R_K + ctx.R_L
    s_a = 0.0
    s_av = np.zeros(2)
    s_a2 = 0.0
    s_a2v = np.zeros(2)
    s_a2vv = np.zeros(2)
    n_pos = 0
    done = 0
    # an overflowing anchor gives inf/NaN sums, which _finite refuses; this
    # runs on pool threads, so the guard must be set here
    with np.errstate(over="ignore", invalid="ignore"):
        while done < count:
            m = min(_CHUNK, count - done)
            th1, t, th2, refl = _sample_cartan(radius, rng, m)
            mats = _decode_cartan(th1, t, th2, refl)
            rho = np.exp(t) * reach     # translation_support_radius(ctx, M)
            xs = rho[:, None] * _sample_disk(rng, m)
            w = mass * np.pi * rho * rho
            f = evaluate_weights_batch(ctx, mats, xs)
            a = w * f ** k
            phiv = mats @ anchor + xs
            a2 = a * a
            s_a += float(a.sum())
            s_av += a @ phiv
            s_a2 += float(a2.sum())
            s_a2v += a2 @ phiv
            s_a2vv += a2 @ (phiv * phiv)
            n_pos += int(np.count_nonzero(f))
            done += m
    return s_a, s_av, s_a2, s_a2v, s_a2vv, n_pos


def _run_once(ctx: WeightContext, anchor: np.ndarray, k: int, samples: int,
              radius: float, seed_seq: np.random.SeedSequence,
              threads: int) -> tuple[np.ndarray, np.ndarray, float, int]:
    streams = seed_seq.spawn(STREAM_COUNT)
    base, extra = divmod(samples, STREAM_COUNT)
    counts = [base + (1 if i < extra else 0) for i in range(STREAM_COUNT)]

    def job(i: int):
        return _stream_partial(ctx, anchor, k, radius, streams[i], counts[i])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(job, range(STREAM_COUNT)))
    else:
        partials = [job(i) for i in range(STREAM_COUNT)]

    # combine in stream order with pairwise summation
    s_a = float(np.sum(np.array([p[0] for p in partials])))
    s_av = np.sum(np.array([p[1] for p in partials]), axis=0)
    s_a2 = float(np.sum(np.array([p[2] for p in partials])))
    s_a2v = np.sum(np.array([p[3] for p in partials]), axis=0)
    s_a2vv = np.sum(np.array([p[4] for p in partials]), axis=0)
    n_pos = int(sum(p[5] for p in partials))

    if n_pos < _MIN_SUPPORT_HITS or s_a <= 0.0:
        raise DegenerateWeights(
            f"only {n_pos} of {samples} samples hit the weight support "
            f"(k={k}, R={radius}); raise samples or lower k/R")
    value = s_av / s_a
    with np.errstate(over="ignore", invalid="ignore"):
        var = (s_a2vv - 2.0 * value * s_a2v + value * value * s_a2) / (s_a * s_a)
    std_error = np.sqrt(np.maximum(var, 0.0))
    ess = s_a * s_a / s_a2
    return value, std_error, ess, n_pos


def estimate_tk_unit(K: ConvexPolygon, v, L: ConvexPolygon,
                     cfg: EstimatorConfig, threads: int = 1) -> PointEstimate:
    """Estimate T_{k,K,v}(L) for unit-area K and L.

    Returns the estimate at truncation cfg.R together with delta-method
    standard errors, the effective sample size, and the value shift observed
    under r_doubling_rounds successive R-doublings with fresh samples.
    K (with v) and L are moved to centroid 0, where the proposal disk is
    centred, and the value is moved back by centroid(L).

    Raises
    ------
    ConfigError
        If the anchor or the estimate is not finite.
    DegenerateWeights
        If fewer than 100 samples land on the weight support.
    """
    c_k, c_l = K.centroid, L.centroid
    anchor = _anchor(v) - c_k
    ctx = weight_context(ConvexPolygon(K.vertices - c_k),
                         ConvexPolygon(L.vertices - c_l))
    root = np.random.SeedSequence(cfg.seed)
    run_seeds = root.spawn(cfg.r_doubling_rounds + 1)
    values = []
    first = None
    for i in range(cfg.r_doubling_rounds + 1):
        out = _run_once(ctx, anchor, cfg.k, cfg.samples, cfg.R * (2.0 ** i),
                        run_seeds[i], threads)
        values.append(out[0])
        if i == 0:
            first = out
    r_stability = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for prev, cur in zip(values, values[1:]):
            r_stability = max(r_stability, float(np.linalg.norm(cur - prev)))
    value, std_error, ess, _ = first
    return _finite(PointEstimate(value=value + c_l, std_error=std_error,
                                 ess=float(ess), r_stability=r_stability))


def estimate_tk(K: ConvexPolygon, v, L: ConvexPolygon, cfg: EstimatorConfig,
                threads: int = 1) -> PointEstimate:
    """Estimate T_{k,K,v}(L) for K, v and L of any area.

    Uses T_{k,sK,sv}(sL) = s T_{k,K,v}(L): K and v are scaled by K's unit-area
    scale, L by its own, and the unit-area estimate is scaled back by L's.
    With a shared seed the rescaling is exact: every sample matches the
    unit-area run to floating-point round-off.
    """
    unit_k, scale_k = normalize_to_unit_area(K)
    unit_l, scale = normalize_to_unit_area(L)
    anchor = np.asarray(v, dtype=float).reshape(2) / scale_k
    est = estimate_tk_unit(unit_k, anchor, unit_l, cfg, threads=threads)
    return _finite(PointEstimate(value=scale * est.value,
                                 std_error=scale * est.std_error,
                                 ess=est.ess,
                                 r_stability=scale * est.r_stability))


def convergence_sweep(K: ConvexPolygon, v, ks, cfg: EstimatorConfig,
                      threads: int = 1, check_anchor: bool = True) -> list[SweepRow]:
    """Estimates of T_{k,K,v}(K) for each k, with errors to the anchor, for
    K of any area.

    The anchor must lie in the fixed set of K's affine automorphism group for
    the k -> infinity limit to be v; ``check_anchor=False`` skips that gate.
    The gate runs on the unit-area body, so its tolerance scales with K.
    """
    if len(ks) == 0:
        raise ConfigError("the sweep needs at least one k")
    cfgs = [replace(cfg, k=k) for k in ks]  # every k is checked before any estimate
    anchor = _anchor(v)
    if check_anchor:
        unit, scale = normalize_to_unit_area(K)
        report = automorphism_group(unit)
        if not fixed_points(report, anchor / scale):
            raise AnchorOutsideFixedSet(
                f"anchor {anchor.tolist()} is not fixed by the automorphism "
                f"group of the body ({report.kind})")
    rows = []
    for row_cfg in cfgs:
        est = estimate_tk(K, anchor, K, row_cfg, threads)
        rows.append(SweepRow(k=int(row_cfg.k), estimate=est,
                             err_to_v=float(np.linalg.norm(est.value - anchor))))
    return rows


def estimate_record(est: PointEstimate, cfg: EstimatorConfig) -> dict:
    """JSON-ready record for one estimate."""
    return {
        "value": [float(est.value[0]), float(est.value[1])],
        "std_error": [float(est.std_error[0]), float(est.std_error[1])],
        "ess": float(est.ess),
        "r_stability": float(est.r_stability),
        "k": int(cfg.k),
        "samples": int(cfg.samples),
        "R": float(cfg.R),
        "seed": int(cfg.seed),
    }
