"""Benchmark for aipoints: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 bench/run.py --workload point-default --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root.  The launcher caps BLAS and OpenMP threads at
1 so that a workload's ``threads`` is its only parallelism, times set-up in
several fresh interpreters (every CLI invocation pays for the import), then
runs the workload in one more fresh interpreter (bench/worker.py).  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; ``correct`` is false when any check failed.  The exit code is
0 whenever that line is printed, and non-zero when no result could be made.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent
PACKAGE = ROOT / "src" / "aipoints"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("point-default", "sweep-peaked", "audit-mixed")
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 4          # fresh interpreters timed for setup_s, besides the run's own
RUN_LIMIT_S = 175.0       # a run must end within 180 s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("ess_per_s", "1/s"),
              ("se2_s", "s"), ("draws_per_s", "1/s"), ("estimate_p50_s", "s"),
              ("estimate_p90_s", "s"))
PER_LAYER = (
    ("geometry.clip_s", "s"), ("geometry.ns_per_subject", "ns"),
    ("geometry.clip_share", "share"), ("geometry.useful_share", "share"),
    ("geometry.clip_ops", "count"), ("geometry.clip_bytes", "B"),
    ("weightfn.self_s", "s"),
    ("weightfn.subjects", "count"), ("haar.draw_s", "s"), ("haar.draws", "count"),
    ("estimator.self_s", "s"), ("estimator.call_overhead_s", "s"),
    ("estimator.rerun_share", "share"), ("estimator.ess_fraction", "share"),
    ("estimator.hit_rate", "share"), ("estimator.parallel_eff", "share"),
    ("classical.john_s", "s"), ("classical.newton_iters", "count"),
    ("symmetry.s", "s"), ("unimodular.s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"))


class BenchError(Exception):
    """The run could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env.pop("AIP_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run bench/worker.py in a fresh interpreter; return (setup seconds,
    its JSON result).  The setup time runs from just before the process is
    started to the worker's ``ready`` stamp, both on the system-wide
    monotonic clock."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {proc.stdout[-500:]!r}") from exc
    return result["ready"] - started, result


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    workdir = RUN_DIR / f"{workload}-{seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--workdir"]
    setups = []
    try:
        for probe in range(SETUP_PROBES):
            probe_dir = workdir / f"setup{probe}"
            probe_dir.mkdir(parents=True)
            setup, _ = _worker(common + [str(probe_dir), "--setup-only"], deadline)
            setups.append(setup)
        run_dir = workdir / "run"
        run_dir.mkdir()
        setup, result = _worker(common + [str(run_dir), "--trace", str(trace)],
                                deadline)
        setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setups"] = setups
    result["end_to_end"]["setup_s"] = sorted(setups)[len(setups) // 2]
    return result


def _metrics(result: dict, trace: int) -> dict:
    if trace:
        values, names = result["per_layer"]["metrics"], PER_LAYER
    else:
        values, names = result["end_to_end"], END_TO_END
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


def _report(workload: str, result: dict, trace: int) -> list[str]:
    e2e = result["end_to_end"]
    count = e2e["_estimates"]
    lines = [
        f"# {workload}: {result['passes']} passes in {result['measured_s']:.1f} s "
        f"(threads={result['threads']}); checks {result['attempted'] - result['failed']}"
        f"/{result['attempted']} passed, failed_share="
        f"{result['failed'] / max(result['attempted'], 1):.4f}",
        f"#   setup_s samples: {' '.join(f'{s:.3f}' for s in result['setups'])}",
        f"#   pass walls: {' '.join(f'{w:.3f}' for w in result['walls'])}",
        f"#   estimate latency: n={count}; highest percentile with "
        f"{stats.TAIL_SAMPLES} samples beyond it: {stats.highest_supported(count)}"
        + ("" if stats.tail_supported(count, 0.9) else "; p90 is informative only"),
    ]
    if not trace or result["passes"] > 1:
        for name, unit in END_TO_END:
            lines.append(f"#   {name:<16} {e2e[name]:>14.6g} {unit}")
    if trace:
        layer = result["per_layer"]
        acc = layer["accounting"]
        lines.append(
            f"#   self-time sum {acc['self_sum_s']:.4f} s = traced wall "
            f"{acc['traced_wall_s']:.4f} s + parallel overlap "
            f"{acc['parallel_overlap_s']:.4f} s (unattributed "
            f"{acc['self_sum_s'] - acc['traced_wall_s'] - acc['parallel_overlap_s']:.2e} s)")
        lines.append("#   self time per pass (s): " + ", ".join(
            f"{k}={v:.4g}" for k, v in acc["layer_self_s"].items()))
        medians = acc["pass_medians_s"]
        lines.append(f"#   tracing overhead {layer['metrics']['trace.overhead_s']:.4f} s per "
                     f"pass = median traced pass {medians['traced']:.4f} s - median "
                     f"untraced pass {medians['untraced']:.4f} s")
        for name, unit in PER_LAYER:
            lines.append(f"#   {name:<26} {layer['metrics'][name]:>14.6g} {unit}")
    for name in result["absent"]:
        lines.append(f"#   absent: {name} (its layer reads 0)")
    for name, count in result["info_errors"].items():
        lines.append(f"#   {count} calls of {name} had unreadable arguments or results")
    for note in result["failures"]:
        lines.append(f"#   FAILED: {note}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no aipoints sources at {PACKAGE}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        print("error: aipoints sources do not compile", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           **next(iter(results.values()))["env"], "caps": THREAD_CAPS}
    print("# env " + json.dumps(env, sort_keys=True))
    for name, result in results.items():
        print("\n".join(_report(name, result, args.trace)))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = _metrics(results[names[0]], args.trace)
    else:
        metrics = {f"{name}/{key}": val for name, result in results.items()
                   for key, val in _metrics(result, args.trace).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
