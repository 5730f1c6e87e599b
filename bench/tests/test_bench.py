"""Tests for the benchmark's own code.

    python3 -m pytest -q bench/tests
"""

import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import END, NAME, PARENT, START, THREAD  # noqa: E402


def _span(sid, start, end, parent=None, name="x", layer="estimator"):
    return (sid, name, layer, start, end, parent, 0, None)


def test_self_time_of_nested_spans():
    spans = [_span(1, 0.0, 10.0),
             _span(2, 1.0, 4.0, parent=1),
             _span(3, 2.0, 3.0, parent=2),
             _span(4, 6.0, 7.0, parent=1)]
    own, overlap = tracing.self_times(spans)
    assert own == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})
    assert overlap == 0.0
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_of_parallel_children_on_two_threads():
    # two pool threads each run two back-to-back children of span 1
    spans = [_span(1, 0.0, 10.0),
             _span(2, 1.0, 5.0, parent=1), _span(3, 5.0, 9.0, parent=1),
             _span(4, 1.5, 6.0, parent=1), _span(5, 6.0, 8.0, parent=1),
             _span(6, 2.0, 3.0, parent=4)]
    own, overlap = tracing.self_times(spans)
    assert own[1] == pytest.approx(2.0)           # 10 minus the union [1, 9]
    assert own[4] == pytest.approx(3.5)
    assert overlap == pytest.approx((4 + 4 + 4.5 + 2) - 8.0)
    assert sum(own.values()) == pytest.approx(10.0 + overlap)


def test_tracer_links_pool_spans_to_the_waiting_caller():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", "geometry", lambda: time.sleep(0.01))

    def stream(_):
        time.sleep(0.02)
        leaf()

    stream = tracer.wrap("stream", "estimator", stream)

    def run_once():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(stream, range(4)))

    tracer.wrap("run_once", "estimator", run_once)()
    spans = tracer.take()
    by_name = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    root = by_name["run_once"][0]
    assert root[PARENT] is None
    assert {s[PARENT] for s in by_name["stream"]} == {root[0]}
    stream_ids = {s[0] for s in by_name["stream"]}
    assert {s[PARENT] for s in by_name["leaf"]} <= stream_ids
    assert len({s[THREAD] for s in by_name["stream"]}) == 2
    own, overlap = tracing.self_times(spans)
    assert overlap > 0.0
    assert sum(own.values()) == pytest.approx(root[END] - root[START] + overlap)
    for s in spans:
        assert -1e-9 <= own[s[0]] <= s[END] - s[START] + 1e-9


def test_patched_restores_and_reports_absent_names():
    module = types.ModuleType("fake_layer")
    module.work = lambda x: 2 * x
    sys.modules["fake_layer"] = module
    try:
        original = module.work
        tracer = tracing.Tracer()
        targets = (("fake_layer", "work", "geometry", None),
                   ("fake_layer", "gone", "geometry", None))
        with tracing.Patched(tracer, targets) as patch:
            assert module.work(3) == 6
        assert module.work is original
        assert patch.absent == ["fake_layer.gone"]
        assert [s[NAME] for s in tracer.take()] == ["fake_layer.work"]
    finally:
        del sys.modules["fake_layer"]


def test_percentile_rule_needs_ten_samples_beyond():
    assert stats.tail_supported(100, 0.9)
    assert not stats.tail_supported(99, 0.9)
    assert stats.highest_supported(1000) == 0.99
    assert stats.highest_supported(105) == 0.9
    assert stats.highest_supported(50) == 0.75
    assert stats.highest_supported(19) is None


def test_seeded_bodies_are_deterministic_and_convex():
    from aipoints import canonicalize
    assert workloads.audit_bodies(7) == workloads.audit_bodies(7)
    assert workloads.audit_bodies(7)["gon12"] != workloads.audit_bodies(8)["gon12"]
    for seed in range(50):
        for name, vertices in workloads.audit_bodies(seed).items():
            if name.startswith("gon"):
                poly = canonicalize(vertices)
                assert len(poly) == int(name[3:]), (seed, name)


def test_check_rejects_a_ten_sigma_shift():
    ref, se_ref = np.array([0.6, 0.5]), np.array([0.002, 0.002])
    se = np.array([0.01, 0.01])
    sigma = float(np.sqrt(np.sum(se ** 2) + np.sum(se_ref ** 2)))
    direction = np.array([0.6, 0.8])
    assert workloads.estimate_ok(ref + 1.0 * sigma * direction, se, 0.0, ref, se_ref)
    assert not workloads.estimate_ok(ref + 10.0 * sigma * direction, se, 0.0,
                                     ref, se_ref)
    assert not workloads.estimate_ok(ref + 10.0 * sigma * direction, se,
                                     0.5 * sigma, ref, se_ref)


def test_audit_headline_is_the_base_estimate_of_unit_q0():
    from aipoints import canonicalize, normalize_to_unit_area
    q0 = normalize_to_unit_area(canonicalize(workloads.Q0_VERTICES))[0]
    square = normalize_to_unit_area(canonicalize(workloads.FIXED_BODIES["square"]))[0]
    result = types.SimpleNamespace(std_error=np.array([0.03, 0.04]), ess=10.0)
    cfg = types.SimpleNamespace(samples=100)
    base = tracing._estimate_info((q0, None, q0, cfg), {}, result)
    moved = tracing._estimate_info((q0, None, square, cfg), {}, result)
    assert base["se2"] == pytest.approx(0.0025)
    assert workloads.is_unit_q0(base["body"])
    assert moved["body"] is None and not workloads.is_unit_q0(moved["body"])
    assert not workloads.is_unit_q0(square.vertices.tolist())
    assert not workloads.is_unit_q0((2.0 * q0.vertices).tolist())


def test_audit_rows_not_summary_are_parsed():
    text = "\n".join([
        "# manifest: {}",
        "body,rule,map_index,residual,gate,status",
        "a.json,tk,0,0.001,0.01,ok",
        "a.json,tk,1,0.02,0.01,exceed",
        "a.json,john,0,,,error:ConvergenceFailure",
        "# summary rule=tk n=2 p50=np.float64(0.01) p90=np.float64(0.02) max=0.02",
    ])
    ops = workloads.parse_audit_rows(text, expected=4)
    assert [ok for ok, _ in ops] == [True, False, False, False]
    assert ops[-1][1] == "missing row"
    assert len(workloads.parse_audit_rows(text, expected=2)) == 4
