"""Write bench/references.json: high-sample T_k values for the checked
workloads.

Each reference runs the workload's own config at REFERENCE_FACTOR times its
samples, on a seed no pass uses, so a pass can be checked by
|value - ref| <= 4 sqrt(se^2 + se_ref^2) + r_stability without relying on
frozen-seed digits.  Run from the repository root:

    PYTHONPATH=src python3 bench/make_references.py

It takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

REFERENCE_FACTOR = 64
REFERENCE_SEED = 2**40 + 7
THREADS = 2


def point_reference() -> dict:
    import aipoints.cli
    samples = REFERENCE_FACTOR * 200_000
    with tempfile.TemporaryDirectory() as tmp:
        body = wl._write_body(Path(tmp) / "q0.json", wl.Q0_VERTICES)
        code, out, err = wl._call_cli(aipoints.cli, [
            "point", str(body), "--rule", "tk", "--threads", str(THREADS),
            "--samples", str(samples), "--seed", str(REFERENCE_SEED)])
    if code != 0:
        raise SystemExit(f"reference point run failed: {err}")
    record = json.loads(out)
    return {"k": record["k"], "R": record["R"],
            "anchor": record["manifest"]["config"]["anchor"],
            "samples": samples, "seed": REFERENCE_SEED,
            "value": record["value"], "se": record["std_error"],
            "ess": record["ess"], "r_stability": record["r_stability"]}


def sweep_references() -> list[dict]:
    from aipoints import (EstimatorConfig, canonicalize, convergence_sweep,
                          normalize_to_unit_area)
    body = normalize_to_unit_area(canonicalize(wl.Q0_VERTICES))[0]
    samples = REFERENCE_FACTOR * wl.SWEEP_SAMPLES
    cfg = EstimatorConfig(samples=samples, R=wl.SWEEP_RADIUS,
                          seed=REFERENCE_SEED, r_doubling_rounds=0)
    rows = convergence_sweep(body, wl.SWEEP_ANCHOR, list(wl.SWEEP_KS), cfg,
                             threads=THREADS)
    return [{"k": row.k, "R": wl.SWEEP_RADIUS, "anchor": list(wl.SWEEP_ANCHOR),
             "samples": samples, "seed": REFERENCE_SEED,
             "value": row.estimate.value.tolist(),
             "se": row.estimate.std_error.tolist(), "ess": row.estimate.ess}
            for row in rows]


def main() -> int:
    started = time.perf_counter()
    refs = {
        "rule": "fail when |value - ref| > 4 sqrt(|se|^2 + |se_ref|^2) + r_stability",
        "point-default": [point_reference()],
        "sweep-peaked": sweep_references(),
    }
    wl.REFERENCES.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {wl.REFERENCES} in {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
