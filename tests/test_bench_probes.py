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
    absent = [f"{module}.{attribute}" for module, attribute in names
              if tracing._resolve(module, attribute) is None]
    assert absent == []
    for module, attribute in names:
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
