"""One benchmark run in a fresh interpreter; started by bench/run.py.

Set-up (``import aipoints``, input generation and loading) ends at the
``ready`` time it reports.  With ``--setup-only`` it stops there.  Otherwise
it warms up with one small call, then runs passes of the workload for
``--seconds`` and prints one JSON object: per-pass walls, checks, metrics.

Untraced passes carry two probes, on ``estimate_tk_unit`` and ``_run_once``,
which read ESS, standard errors, draws and per-estimate latency (a few spans
per estimate).  With ``--trace 1`` every other pass is traced at every layer
boundary, and the untraced passes in between give the overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
RUN_DIR = HERE.parent / ".bench_run"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import END, INFO, LAYER, NAME, PARENT, START  # noqa: E402

ESTIMATE = "aipoints.estimator.estimate_tk_unit"
RUN_ONCE = "aipoints.estimator._run_once"
STREAM = "aipoints.estimator._stream_partial"
CLIP = "aipoints.weightfn.batch_intersection_area"
WEIGHTS = "aipoints.estimator.evaluate_weights_batch"
DRAW = "aipoints.estimator._sample_cartan"
MAP_DRAW = "aipoints.cli.sample_sl2pm"
JOHN = "aipoints.classical.john_center"
NEWTON = "aipoints.classical._grad_hess"
ROOT = "bench.pass"


def _durations(spans, name):
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def _infos(spans, name):
    return [s[INFO] for s in spans if s[NAME] == name and s[INFO] is not None]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(passes: list[dict]) -> dict:
    """End-to-end metrics from untraced passes (values in their units).

    ess_per_s counts the primary estimates, those of a body against itself.
    On point-default and sweep-peaked that is every estimate; on audit-mixed
    it leaves out the estimates of moved bodies, whose ESS follows the
    seeded map (coefficient of variation 0.3-0.7 between passes).

    se2_s is |se|^2 of the headline estimate times the pass wall, median
    over passes.  The headline is in the pass's output on point-default and
    sweep-peaked; on audit-mixed it is the probed base estimate of Q0.
    """
    walls = [p["wall"] for p in passes]
    ess_rate, draw_rate, se2_s, latencies = [], [], [], []
    for p in passes:
        estimates = _infos(p["spans"], ESTIMATE)
        ess_rate.append(sum(e["ess"] for e in estimates if e["body"] is not None)
                        / p["wall"])
        draws = sum(r["samples"] for r in _infos(p["spans"], RUN_ONCE))
        draw_rate.append(draws / p["wall"])
        latencies += _durations(p["spans"], ESTIMATE)
        se2 = p["headline_se2"]
        if se2 is None:
            se2 = next((e["se2"] for e in estimates
                        if workloads.is_unit_q0(e["body"])), None)
        if se2 is not None:
            se2_s.append(se2 * p["wall"])
    return {
        "wall_s": float(np.median(walls)),
        "ess_per_s": float(np.median(ess_rate)),
        "se2_s": float(np.median(se2_s)) if se2_s else 0.0,
        "draws_per_s": float(np.median(draw_rate)),
        "estimate_p50_s": float(np.median(latencies)) if latencies else 0.0,
        "estimate_p90_s": float(np.percentile(latencies, 90)) if latencies else 0.0,
        "_estimates": len(latencies),
    }


def per_layer(traced: list[dict], untraced: list[dict], threads: int) -> dict:
    """Per-layer metrics from traced passes, as means per pass."""
    n = len(traced)
    layer_self: Counter = Counter()
    overlap = 0.0
    walls = 0.0
    run_once_self = 0.0
    for p in traced:
        own, extra = tracing.self_times(p["spans"])
        overlap += extra
        walls += sum(s[END] - s[START] for s in p["spans"] if s[NAME] == ROOT)
        for s in p["spans"]:
            layer_self[s[LAYER]] += own[s[0]]
            if s[NAME] == RUN_ONCE:
                run_once_self += own[s[0]]
    spans = [s for p in traced for s in p["spans"]]
    counts = sum((p["counts"] for p in traced), Counter())

    clips = _infos(spans, CLIP)
    clip_s = sum(_durations(spans, CLIP))
    subjects = sum(c["n"] for c in clips)
    runs = [s for s in spans if s[NAME] == RUN_ONCE and s[INFO] is not None]
    by_estimate = defaultdict(list)
    for s in runs:
        by_estimate[s[PARENT]].append(s)
    rerun = sum(s[INFO]["samples"] for group in by_estimate.values()
                for s in sorted(group, key=lambda s: s[START])[1:])
    drawn = sum(s[INFO]["samples"] for s in runs)
    estimates = _infos(spans, ESTIMATE)
    john = _durations(spans, JOHN)
    traced_wall = float(np.median([p["wall"] for p in traced]))
    untraced_wall = float(np.median([p["wall"] for p in untraced])) if untraced else traced_wall
    metrics = {
        "geometry.clip_s": clip_s / n,
        "geometry.ns_per_subject": 1e9 * _ratio(clip_s, subjects),
        "geometry.clip_share": _ratio(clip_s, walls + overlap),
        "geometry.useful_share": _ratio(sum(c["useful"] for c in clips), subjects),
        # computed from the array sizes at the call, not counted: one side
        # test per subject vertex and clip edge; bytes of the subjects read,
        # the areas written and the clip polygon read
        "geometry.clip_ops": sum(c["n"] * c["m"] * c["edges"] for c in clips) / n,
        "geometry.clip_bytes": sum(16 * c["n"] * c["m"] + 8 * c["n"] + 16 * c["edges"]
                                   for c in clips) / n,
        "weightfn.self_s": layer_self["weightfn"] / n,
        "weightfn.subjects": sum(w["n"] for w in _infos(spans, WEIGHTS)) / n,
        "haar.draw_s": layer_self["haar"] / n,
        "haar.draws": (sum(d["n"] for d in _infos(spans, DRAW))
                       + len(_durations(spans, MAP_DRAW))) / n,
        "estimator.self_s": layer_self["estimator"] / n,
        "estimator.call_overhead_s": run_once_self / n,
        "estimator.rerun_share": _ratio(rerun, drawn),
        "estimator.ess_fraction": _ratio(sum(e["ess"] for e in estimates),
                                         sum(e["samples"] for e in estimates)),
        "estimator.hit_rate": _ratio(sum(s[INFO]["hits"] for s in runs), drawn),
        "estimator.parallel_eff": _ratio(sum(_durations(spans, STREAM)), walls * threads),
        # john_s is the John solver's inclusive time.  These five read 0 on a
        # workload that never calls their layer.
        "classical.john_s": sum(john) / n,
        "classical.newton_iters": _ratio(counts[NEWTON], len(john)),
        "symmetry.s": layer_self["symmetry"] / n,
        "unimodular.s": layer_self["unimodular"] / n,
        "cli.self_s": layer_self["cli"] / n,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    accounting = {
        "self_sum_s": sum(layer_self.values()) / n,
        "traced_wall_s": walls / n,
        "parallel_overlap_s": overlap / n,
        "pass_medians_s": {"traced": traced_wall, "untraced": untraced_wall},
        "layer_self_s": {layer: layer_self[layer] / n for layer in tracing.LAYERS},
    }
    return {"metrics": metrics, "accounting": accounting}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import scipy

    import aipoints
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.workdir, workloads.load_references())
    ready = time.monotonic()
    env = {"numpy": np.__version__, "scipy": scipy.__version__,
           "aipoints": aipoints.__version__, "aipoints_path": aipoints.__file__}
    if args.setup_only:
        print(json.dumps({"ready": ready, "env": env}))
        return 0

    workload.warm_up()
    tracer = tracing.Tracer()
    passes: list[dict] = []
    absent: set[str] = set()
    minimum = 2 if args.trace else 1
    started = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        targets = tracing.LAYER_TARGETS if traced else tracing.PROBES
        counters = tracing.COUNTERS if traced else ()
        with tracing.Patched(tracer, targets, counters) as patch:
            root = tracer.wrap(ROOT, "bench", workload.run_pass)
            t0 = time.perf_counter()
            try:
                result = root(index)
            except Exception as exc:  # a failed pass is counted, not fatal
                result = workloads.PassResult(
                    [(False, f"{type(exc).__name__}: {exc}")] * workload.ops_per_pass)
            wall = time.perf_counter() - t0
        absent.update(patch.absent)
        passes.append({"index": index, "traced": traced, "wall": wall,
                       "ops": result.ops, "headline_se2": result.headline_se2,
                       "spans": tracer.take(), "counts": Counter(tracer.counts)})
        tracer.counts.clear()
        index += 1
        elapsed = time.perf_counter() - started
        # stop where the run ends nearest to --seconds
        typical = float(np.median([p["wall"] for p in passes]))
        if len(passes) >= minimum and elapsed + 0.5 * typical > args.seconds:
            break

    ops = [op for p in passes for op in p["ops"]]
    failures = [note for ok, note in ops if not ok]
    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    out = {
        "ready": ready,
        "env": env,
        "threads": workload.threads,
        "passes": len(passes),
        "walls": [p["wall"] for p in passes],
        "measured_s": time.perf_counter() - started,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:10],
        "end_to_end": end_to_end(untraced),
        "absent": sorted(absent),
        "info_errors": dict(tracer.info_errors),
    }
    if traced_passes:
        out["per_layer"] = per_layer(traced_passes, untraced, workload.threads)
        RUN_DIR.mkdir(exist_ok=True)
        (RUN_DIR / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "fields": ["id", "name", "layer", "start", "end", "parent",
                       "thread", "info"],
            "passes": [{"index": p["index"], "wall": p["wall"],
                        "spans": p["spans"]} for p in traced_passes],
        }), encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
