"""The benchmark's probes must find the package names they wrap.

``bench/tracing.py`` patches each name in ``LAYER_TARGETS`` (which holds
``PROBES``) and counts each name in ``COUNTERS``.  A name that no longer
resolves is only listed as absent at run time and its layer reads 0, so a
refactor could blind a benchmark layer without any test failing.  The same
holds for what the ``estimate_tk_unit`` probe sees: the audit-mixed headline
is the base estimate whose K is unit Q0 (``workloads.is_unit_q0``), and the
sweep-peaked ESS counts one probe call per k.  These tests load the bench
modules by path and change nothing under ``bench/``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import aipoints.cli
import aipoints.estimator

BENCH = Path(__file__).resolve().parents[1] / "bench"
# Names the bench still lists whose work moved into another traced name of
# the same layer: the translation draw is now rows 4-5 of _sample_cartan's
# block.  A traced run lists them as absent until the bench drops them.
RETIRED = {"aipoints.estimator._sample_disk"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_bench_probe_resolves():
    tracing = _load("tracing")
    assert set(tracing.PROBES) <= set(tracing.LAYER_TARGETS)
    names = [(module, attribute) for module, attribute, *_ in
             tracing.LAYER_TARGETS + tracing.COUNTERS]
    absent = {f"{module}.{attribute}" for module, attribute in names
              if tracing._resolve(module, attribute) is None}
    assert absent <= RETIRED
    for module, attribute in names:
        if f"{module}.{attribute}" in absent:
            continue
        owner, leaf = tracing._resolve(module, attribute)
        assert callable(getattr(owner, leaf)), f"{module}.{attribute}"


def test_estimate_probe_sees_what_the_workloads_read(tmp_path, monkeypatch):
    workloads = _load("workloads")
    seen = []  # the K of each call, at the name the benchmark patches
    real = aipoints.estimator.estimate_tk_unit

    def spy(K, v, L, cfg, threads=1):
        seen.append(K.vertices.copy())
        return real(K, v, L, cfg, threads=threads)

    monkeypatch.setattr(aipoints.estimator, "estimate_tk_unit", spy)
    bodies = tmp_path / "bodies"
    bodies.mkdir()
    (bodies / "q0.json").write_text(
        json.dumps({"vertices": workloads.Q0_VERTICES}))
    code = aipoints.cli.main(["audit", str(bodies), "--rules", "tk",
                              "--maps", "1", "--samples", "6000",
                              "--radius", "4", "--out",
                              str(tmp_path / "audit.csv")])
    assert code == 0
    assert len(seen) == 2  # the base estimate, then the moved body
    assert workloads.is_unit_q0(seen[0])

    seen.clear()
    cfg = aipoints.estimator.EstimatorConfig(samples=6000,
                                             R=workloads.SWEEP_RADIUS)
    q0 = aipoints.canonicalize(workloads.Q0_VERTICES)
    rows = aipoints.estimator.convergence_sweep(
        q0, np.array(workloads.SWEEP_ANCHOR), list(workloads.SWEEP_KS), cfg,
        check_anchor=False)
    assert len(workloads.SWEEP_KS) == len(rows) == len(seen) == 3


def test_run_once_probe_reads_samples_and_hits():
    # bench/worker.py sums the probe's "samples" into draws_per_s, so a
    # _run_once whose arguments or result moved must fail here, not read 0
    tracing, workloads = _load("tracing"), _load("workloads")
    q0, _ = aipoints.normalize_to_unit_area(
        aipoints.canonicalize(workloads.Q0_VERTICES))
    cfg = aipoints.estimator.EstimatorConfig(samples=workloads.AUDIT_SAMPLES,
                                             R=workloads.AUDIT_RADIUS,
                                             r_doubling_rounds=1)
    tracer = tracing.Tracer()
    with tracing.Patched(tracer, tracing.PROBES) as patched:
        aipoints.estimator.estimate_tk_unit(q0, q0.centroid, q0, cfg)
    assert patched.absent == []
    infos = [span[tracing.INFO] for span in tracer.spans
             if span[tracing.NAME] == "aipoints.estimator._run_once"]
    assert len(infos) == 2
    for info in infos:
        assert info["samples"] == cfg.samples
        assert 0 < info["hits"] <= cfg.samples
    assert not tracer.info_errors


def test_sweep_probes_see_every_row():
    # a sweep draws and clips once per run radius for all its k, but still
    # calls estimate_tk_unit once per k and _run_once once per (k, radius):
    # sweep-peaked sums the ESS, se^2 and draws those probes read
    tracing, workloads = _load("tracing"), _load("workloads")
    q0, _ = aipoints.normalize_to_unit_area(
        aipoints.canonicalize(workloads.Q0_VERTICES))
    cfg = aipoints.estimator.EstimatorConfig(samples=20_000,
                                             R=workloads.SWEEP_RADIUS,
                                             r_doubling_rounds=1)
    tracer = tracing.Tracer()
    with tracing.Patched(tracer, tracing.PROBES) as patched:
        rows = aipoints.estimator.convergence_sweep(
            q0, np.array(workloads.SWEEP_ANCHOR), list(workloads.SWEEP_KS),
            cfg, threads=workloads.SWEEP_THREADS, check_anchor=False)
    assert patched.absent == []
    assert len(rows) == len(workloads.SWEEP_KS) == 3

    def infos(name):
        return [span[tracing.INFO] for span in tracer.spans
                if span[tracing.NAME] == f"aipoints.estimator.{name}"]

    estimates = infos("estimate_tk_unit")
    assert len(estimates) == 3
    assert all(info["ess"] > 0 and info["se2"] > 0 for info in estimates)
    assert [info["ess"] for info in estimates] == [row.estimate.ess for row in rows]
    runs = infos("_run_once")
    assert len(runs) == 2 * 3
    assert all(info["samples"] == cfg.samples for info in runs)
    assert all(0 < info["hits"] <= cfg.samples for info in runs)
    assert not tracer.info_errors


def test_draw_probe_counts_every_sample():
    # bench/worker.py sums the n that _draw_info reads from each
    # _sample_cartan call into haar.draws: one call per (substream, piece)
    # must add up to each _run_once's samples, or the layer reads 0
    tracing, workloads = _load("tracing"), _load("workloads")
    q0, _ = aipoints.normalize_to_unit_area(
        aipoints.canonicalize(workloads.Q0_VERTICES))
    draw = "aipoints.estimator._sample_cartan"
    for cfg in (aipoints.estimator.EstimatorConfig(),
                aipoints.estimator.EstimatorConfig(
                    samples=workloads.AUDIT_SAMPLES, R=workloads.AUDIT_RADIUS)):
        tracer = tracing.Tracer()
        with tracing.Patched(tracer, tracing.LAYER_TARGETS) as patched:
            aipoints.estimator.estimate_tk_unit(q0, q0.centroid, q0, cfg)
        assert set(patched.absent) <= RETIRED
        assert not tracer.info_errors
        spans = {span[tracing.ID]: span for span in tracer.spans}
        drawn = {}  # the run each draw sits under, with its sizes
        for span in spans.values():
            if span[tracing.NAME] != draw:
                continue
            run = span
            while run[tracing.NAME] != "aipoints.estimator._run_once":
                run = spans[run[tracing.PARENT]]
            drawn.setdefault(run[tracing.ID], []).append(span[tracing.INFO]["n"])
        runs = [span for span in spans.values()
                if span[tracing.NAME] == "aipoints.estimator._run_once"]
        assert len(runs) == 1 + cfg.r_doubling_rounds
        for run in runs:
            assert run[tracing.INFO]["samples"] == cfg.samples
            assert sum(drawn[run[tracing.ID]]) == cfg.samples
