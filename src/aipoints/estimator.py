"""Self-normalized importance-sampling estimator for the invariant points.

For unit-area K, L and an anchor v, the target is the ratio of the integrals
of F_K^k(L)(phi) phi(v) and F_K^k(L)(phi) over the volume-preserving affine
group truncated to S_R x R^2.  T_k commutes with translations, so K (with v)
and L are first moved to centroid 0 and the estimate is moved back by
centroid(L); translating the inputs then shifts the estimate by round-off
only (shared seeds).  Proposal: M from the truncated Haar sampler, x uniform
on the disk about 0 of radius translation_support_radius(ctx, M), which
covers the translation support of the weight.  Weights are the constant Haar
mass times the disk mass.  Most draws miss the support (97.6% at R = 16).
A hit needs x inside the rectangle |<x, u1>| <= R_L + e^t R_K, |<x, u2>| <=
R_L + e^-t R_K about the columns u1, u2 of R(theta1), so the draws outside
it (about 95% at R = 16) are dropped before M is decoded or x formed.  Most
of them (about 87% of all draws at R = 16) fall outside a wedge about u1
that holds the rectangle and are dropped before any cos/sin.  The kernel
would clip the dropped draws to exactly 0.0 (see _reaches_l), so the kept
rows give the same bytes as evaluating every draw.  phi(v) = M v + x is linear
in z = (M, x, 1), so the sampling loop sums moments of z over the hits, and
the ratio, its delta-method standard errors and the ESS are read out of them
once per run for the anchor.  One R-doubling rerun with fresh samples
reports the truncation stability.

The draws, the filter and the clip do not depend on k, so
convergence_sweep draws, decodes and clips once per run radius for all its
k: the first run at a radius sums one block of moments per k over the same
hits, and the other k read theirs.  Each row has the bytes of a separate
estimate_tk run with its k at the same seed.  That memo holds one block of
57 sums per k and run, and lives only for the sweep's call.

Sampling is split over a fixed number of seeded substreams combined in stream
order, so results are bitwise the same for a fixed seed at any thread count.
A round draws at most _BATCH rows: a longer substream draws in pieces, and
consecutive pieces share a round while they fit.  The kept draws of
successive rounds are pooled and evaluated as one batch once the next round
would take the pool past _POOL rows, so a default estimate makes about five
kernel calls.  Each thread takes one contiguous run of substreams, one run
per thread up to one per _BATCH samples, so a run of at most _BATCH samples
uses one thread.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .errors import AnchorOutsideFixedSet, ConfigError, DegenerateWeights
from .geometry import SEP_GAP, ConvexPolygon, normalize_to_unit_area
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
STREAM_COUNT = 16       # fixed substream split; threads take contiguous runs
_BATCH = 16_384         # most draws in one round
_POOL = 4_096           # kept rows pooled before a batch is evaluated
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


# The exponents of the convergence_sweep under way and the moment totals its
# runs have summed so far (see _run_once); set for the length of the call only.
_SWEEP: ContextVar[tuple[tuple[int, ...], dict] | None] = ContextVar(
    "aipoints_sweep", default=None)


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


def _stream_partial(ctx: WeightContext, ks: tuple[int, ...], radius: float,
                    seed_seqs: list[np.random.SeedSequence],
                    counts: list[int]) -> np.ndarray:
    """Moments of the maps (M, x) of a run of substreams, one row each, with
    one block of 57 columns per exponent k of ``ks``.

    A block holds sum a z (7 columns), sum a^2 z z^T (49, row-major) and the
    hit count, where a = w F^k is the importance weight and z = (M11, M12,
    M21, M22, x1, x2, 1); phi(v) = M v + x is linear in z, so a row serves
    every anchor.  Only hits (F > 0) are summed: a miss has a = 0, and most
    draws miss.  Each substream draws from its own generator in pieces of at
    most _BATCH rows (Cartan coordinates, then the disk in polar form), and
    consecutive pieces share a round of at most _BATCH draws.  Each round
    keeps only the draws that _reaches_l flags; the rest would clip to
    exactly 0.0.  The kept draws of successive rounds are pooled, and a pool
    is decoded and evaluated as one batch once the next round would take it
    past _POOL rows.  Each row is summed over its own (substream, piece)
    slices in draw order, so the rows do not depend on the rounds or the
    pools.  The draws and the clip do not depend on k, so every k reads the
    same hits, and each block has the bytes of a call with that k alone.
    """
    rngs = [np.random.default_rng(seq) for seq in seed_seqs]
    mass = truncated_mass(radius)
    reach = ctx.R_K + ctx.R_L
    sums = np.zeros((len(counts), 57 * len(ks)))
    # one entry per round: its substreams, the kept rows of each of its
    # pieces, then the kept draws (th1, t, th2, refl, r, ang, rho)
    pool, pooled = [], 0
    for pieces in _rounds(counts):
        draws = [(*_sample_cartan(radius, rngs[i], m), *_sample_disk(rngs[i], m))
                 for i, m in pieces]
        th1, t, th2, refl, r, ang = (_joined(parts) for parts in zip(*draws))
        et = np.exp(t)
        rho = et * reach            # translation_support_radius(ctx, M)
        kept = np.flatnonzero(_reaches_l(ctx, th1, et, rho * r, ang))
        if pool and pooled + len(kept) > _POOL:
            _add_moments(sums, ctx, ks, mass, pool)
            pool, pooled = [], 0
        ends = np.searchsorted(kept, np.cumsum([m for _, m in pieces]))
        pool.append(([i for i, _ in pieces], np.diff(ends, prepend=0),
                     *(part[kept] for part in (th1, t, th2, refl, r, ang, rho))))
        pooled += len(kept)
    _add_moments(sums, ctx, ks, mass, pool)
    return sums


def _rounds(counts: list[int]) -> list[list[tuple[int, int]]]:
    """The (substream, size) pieces of a run in draw order, packed into
    rounds: a substream draws in pieces of at most _BATCH, and consecutive
    pieces share a round while it holds at most _BATCH draws."""
    rounds, size = [], _BATCH       # a full round: the first piece opens one
    for i, count in enumerate(counts):
        for done in range(0, count, _BATCH):
            m = min(_BATCH, count - done)
            if size + m > _BATCH:
                rounds.append([])
                size = 0
            rounds[-1].append((i, m))
            size += m
    return rounds


def _add_moments(sums: np.ndarray, ctx: WeightContext, ks: tuple[int, ...],
                 mass: float, pool: list) -> None:
    """Decode and evaluate a pool of kept draws as one batch and add each
    (substream, piece) slice of its hits to that substream's row of sums."""
    streams = [i for part in pool for i in part[0]]
    sizes = np.concatenate([part[1] for part in pool])
    th1, t, th2, refl, r, ang, rho = (_joined(parts) for parts in
                                      zip(*(part[2:] for part in pool)))
    mats = _decode_cartan(th1, t, th2, refl)
    xs = rho[:, None] * np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    f = evaluate_weights_batch(ctx, mats, xs)
    hit = np.flatnonzero(f)
    z = np.column_stack([mats[hit].reshape(-1, 4), xs[hit], np.ones(len(hit))])
    w = mass * np.pi * rho[hit] * rho[hit]
    f = f[hit]
    ends = np.searchsorted(hit, np.cumsum(sizes))
    for block, k in enumerate(ks):
        a = w * f ** k
        az = a[:, None] * z
        for i, lo, hi in zip(streams, [0, *ends[:-1]], ends):
            sums[i, 57 * block:57 * (block + 1)] += (
                *(a[lo:hi] @ z[lo:hi]), *(az[lo:hi].T @ az[lo:hi]).ravel(), hi - lo)


def _reaches_l(ctx: WeightContext, theta1: np.ndarray, et: np.ndarray,
               radial: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """Flag the draws whose translation x = radial (cos ang, sin ang) may
    reach L, for M = R(theta1) diag(et, 1/et) R(theta2) [diag(1, -1)].

    A hit has x = l - M y with l in L and y in K.  With u1, u2 the columns
    of R(theta1), <M y, u1> = et <y, w1> and <M y, u2> = <y, w2> / et for
    unit w1, w2, so |<x, u1>| <= R_L + et R_K and |<x, u2>| <= R_L + R_K / et;
    <x, u1> and <x, u2> are radial cos(d) and radial sin(d) with d = ang -
    theta1.  A draw outside that rectangle by the relative slack SEP_GAP et^2
    leaves phi^{-1}(L) at least SEP_GAP et^2 R_K from K, far above the
    round-off of the kernel's subject coordinates (about eps et^2 (R_K +
    R_L)), so the kernel would clip it to exactly 0.0.

    The rectangle is tested with cos and sin only inside a wedge about the
    u1 axis: |sin d| >= (2/pi) dist(d, pi Z), so a draw in the rectangle has
    dist(d, pi Z) radial <= (pi/2) (R_L + R_K / et) slack.  One slack, that
    of the largest et, serves every draw, and a relative margin of 1e-9 plus
    an absolute 1e-12 covers the round-off of both sides, so the wedge
    drops no draw that the rectangle keeps, and the mask is that of the
    rectangle alone.
    """
    d = ang - theta1
    narrow = ctx.R_L + ctx.R_K / et
    wedge = 0.5 * np.pi * (1.0 + 1e-9) * (1.0 + SEP_GAP * et.max(initial=1.0) ** 2)
    near = np.flatnonzero(np.abs(d - np.pi * np.rint(d / np.pi)) * radial
                          <= wedge * narrow + 1e-12)
    d, et, radial, narrow = d[near], et[near], radial[near], narrow[near]
    slack = 1.0 + SEP_GAP * et * et
    keep = np.zeros(len(ang), dtype=bool)
    keep[near] = ((np.abs(radial * np.cos(d)) <= (ctx.R_L + et * ctx.R_K) * slack)
                  & (np.abs(radial * np.sin(d)) <= narrow * slack))
    return keep


def _joined(parts: tuple[np.ndarray, ...]) -> np.ndarray:
    """The pieces end to end; a lone piece is returned as it is, uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _moment_totals(ctx: WeightContext, ks: tuple[int, ...], samples: int,
                   radius: float, seed_seq: np.random.SeedSequence,
                   threads: int) -> np.ndarray:
    """The 57-column moment block of one run for each k of ``ks``, side by
    side, each summed over the substreams in stream order.

    Each worker takes one contiguous run of substreams, with one job per
    thread up to one per _BATCH samples: at one thread, and for a run of at
    most _BATCH samples at any thread count, one _stream_partial call draws
    the whole run."""
    streams = seed_seq.spawn(STREAM_COUNT)
    base, extra = divmod(samples, STREAM_COUNT)
    counts = [base + (1 if i < extra else 0) for i in range(STREAM_COUNT)]
    jobs = min(threads, -(-samples // _BATCH), STREAM_COUNT)
    cuts = [STREAM_COUNT * j // jobs for j in range(jobs + 1)]

    def job(lo: int, hi: int) -> np.ndarray:
        return _stream_partial(ctx, ks, radius, streams[lo:hi], counts[lo:hi])

    # the pool starts a thread only on its first submit
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        rows = np.concatenate(list((pool.map if jobs > 1 else map)(
            job, cuts[:-1], cuts[1:])))
    return rows.sum(axis=0)         # in stream order, one row after another


def _run_once(ctx: WeightContext, anchor: np.ndarray, k: int, samples: int,
              radius: float, seed_seq: np.random.SeedSequence,
              threads: int) -> tuple[np.ndarray, np.ndarray, float, int]:
    # Inside a sweep the first run at a given body, samples, radius and seed
    # sums the blocks of every k of the sweep, and the other k read theirs.
    sweep_ks, memo = _SWEEP.get() or ((), {})
    ks = sweep_ks if k in sweep_ks else (k,)
    key = (ks, ctx.K.vertices.tobytes(), ctx.L.vertices.tobytes(), samples,
           radius, seed_seq.entropy, seed_seq.spawn_key,
           seed_seq.n_children_spawned)
    if key not in memo:
        memo[key] = _moment_totals(ctx, ks, samples, radius, seed_seq, threads)
    block = ks.index(k)
    totals = memo[key][57 * block:57 * (block + 1)]
    s_az, s_a2zz, n_pos = totals[:7], totals[7:56].reshape(7, 7), int(totals[56])
    s_a = float(s_az[6])

    if n_pos < _MIN_SUPPORT_HITS:
        raise DegenerateWeights(
            f"only {n_pos} of {samples} samples hit the weight support "
            f"(k={k}, R={radius}); raise samples or lower k/R")
    if s_a <= 0.0:
        raise DegenerateWeights(
            f"every weight F^k underflowed to 0 although {n_pos} of {samples} "
            f"samples hit the weight support (k={k}, R={radius}); lower k")
    # phi(v) = P z, then Q z = phi(v) - value; an overflowing anchor gives
    # inf/NaN, which _finite refuses
    proj = np.array([[*anchor, 0, 0, 1, 0, 0], [0, 0, *anchor, 0, 1, 0]], float)
    with np.errstate(over="ignore", invalid="ignore"):
        value = proj @ s_az / s_a
        proj[:, 6] = -value
        var = ((proj @ s_a2zz) * proj).sum(axis=1) / (s_a * s_a)
    std_error = np.sqrt(np.maximum(var, 0.0))
    ess = s_a * s_a / s_a2zz[6, 6]
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
        If fewer than 100 samples land on the weight support, or every
        weight underflows to 0.
    """
    c_k, c_l = K.centroid, L.centroid
    anchor = _anchor(v) - c_k
    ctx = weight_context(ConvexPolygon(K.vertices - c_k),
                         ConvexPolygon(L.vertices - c_l))
    run_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.r_doubling_rounds + 1)
    runs = [_run_once(ctx, anchor, cfg.k, cfg.samples, cfg.R * (2.0 ** i),
                      seed, threads) for i, seed in enumerate(run_seeds)]
    with np.errstate(over="ignore", invalid="ignore"):
        r_stability = max([0.0, *(float(np.linalg.norm(cur[0] - prev[0]))
                                  for prev, cur in zip(runs, runs[1:]))])
    value, std_error, ess, _ = runs[0]
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

    Every row runs at cfg.seed, so all rows share their draws: the sweep
    draws, decodes and clips once per run radius (R and each R-doubling)
    and sums the moments of every k from those hits.  Each row is still one
    estimate_tk call, and its bytes are those of estimate_tk with that k at
    the same seed.  The moment totals are kept only for this call.
    """
    if len(ks) == 0:
        raise ConfigError("the sweep needs at least one k")
    cfgs = [replace(cfg, k=k) for k in ks]  # every k is checked before any estimate
    named = [int(row_cfg.k) for row_cfg in cfgs]
    if len(set(named)) < len(named):
        raise ConfigError(f"the sweep names a k more than once: {named}")
    anchor = _anchor(v)
    if check_anchor:
        unit, scale = normalize_to_unit_area(K)
        report = automorphism_group(unit)
        if not fixed_points(report, anchor / scale):
            raise AnchorOutsideFixedSet(
                f"anchor {anchor.tolist()} is not fixed by the automorphism "
                f"group of the body ({report.kind})")
    rows = []
    token = _SWEEP.set((tuple(named), {}))
    try:
        for row_cfg in cfgs:
            est = estimate_tk(K, anchor, K, row_cfg, threads)
            rows.append(SweepRow(k=int(row_cfg.k), estimate=est,
                                 err_to_v=float(np.linalg.norm(est.value - anchor))))
    finally:
        _SWEEP.reset(token)
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
