"""The three benchmark workloads, their seeded inputs and their checks.

Each workload is a closed loop with one caller: the next pass starts when
the previous one has returned.  A pass drives a public entry point
(``aipoints.cli.main`` or ``aipoints.estimator.convergence_sweep``), looked
up on its module at call time so that the traced run sees its wrappers.

point-default  ``aipoints point q0.json --rule tk`` at the CLI defaults
               (k=4, 200k samples, R=16, one R-doubling rerun), one thread.
               97% of draws miss the weight support.
sweep-peaked   ``convergence_sweep`` on unit-area Q0, anchor (0.55, 0.45),
               ks 2,8,16, R=2, 200k samples, one thread; 28% of draws hit.
audit-mixed    ``aipoints audit`` over triangle, square, Q0 and a seeded
               6-gon and 12-gon with rules centroid,john,tk, 1 map, R=4,
               6000 samples: 10 short tk estimates and 10 ellipse solves
               per pass.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Q0_VERTICES = [[0, 0], [1, 0], [1.3, 0.8], [0.2, 1.1]]
FIXED_BODIES = {
    "q0": Q0_VERTICES,
    "square": [[0, 0], [1, 0], [1, 1], [0, 1]],
    "triangle": [[0, 0], [1, 0], [0, 1]],
}
RANDOM_GONS = (6, 12)

SWEEP_ANCHOR = (0.55, 0.45)
SWEEP_KS = (2, 8, 16)
SWEEP_RADIUS = 2.0
SWEEP_SAMPLES = 200_000
# One thread: on a 2-vCPU host, two threads turned host contention into
# passes up to 1.7x slower, against 1.2x for one thread in the same minutes,
# and ten seeds spread 0.27-0.33 between quartiles against a bound of 0.25.
SWEEP_THREADS = 1

AUDIT_RULES = ("centroid", "john", "tk")
# 10 tk estimates per call (a base and one moved body each).  Every estimate
# of one audit call shares its seed, so one call is one draw of the
# randomness; with 20 maps a run saw one or two draws and ESS/s moved 25-35%
# from seed to seed.  Short calls give a run about 14 draws, 140 estimates.
AUDIT_MAPS = 1
AUDIT_RADIUS = 4.0
AUDIT_SAMPLES = 6000     # keeps the R=8 rerun on the triangle near 190 hits, far above 100

CHECK_SIGMAS = 4.0
REFERENCES = Path(__file__).with_name("references.json")


def pass_seeds(seed: int, count: int = 4096) -> list[int]:
    """Estimator seeds for successive passes of one run."""
    rng = np.random.default_rng([seed, 1])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def random_convex_polygon(rng: np.random.Generator, n: int) -> np.ndarray:
    """Vertices of a convex n-gon: an affine image of n points on a circle.

    Each vertex keeps its own angular slot of width 2*pi/n and moves by at
    most a twentieth of a slot from its centre, so all n points stay extreme.
    The polygons are kept close to regular because the ESS of T_k depends
    strongly on how close a body comes to having symmetries; jitter of 0.3
    slot and stretch up to e^0.4 made it vary about 3x from seed to seed,
    which the benchmark would report as noise.
    """
    slot = 2.0 * np.pi / n
    angles = (np.arange(n) + rng.uniform(0.45, 0.55, size=n)) * slot
    angles += rng.uniform(0.0, 2.0 * np.pi)
    points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    turn = rng.uniform(0.0, np.pi)
    c, s = math.cos(turn), math.sin(turn)
    stretch = math.exp(rng.uniform(-0.05, 0.05))
    linear = np.array([[c, -s], [s, c]]) @ np.diag([stretch, 1.0 / stretch])
    return points @ linear.T + rng.uniform(-1.0, 1.0, size=2)


def audit_bodies(seed: int) -> dict[str, list[list[float]]]:
    """The five audit bodies; the two random ones come from ``seed``."""
    rng = np.random.default_rng([seed, 2])
    bodies = dict(FIXED_BODIES)
    for n in RANDOM_GONS:
        bodies[f"gon{n:02d}"] = random_convex_polygon(rng, n).tolist()
    return bodies


def is_unit_q0(vertices) -> bool:
    """True when ``vertices`` are those of unit-area Q0, the body whose base
    estimate is the headline of an audit-mixed pass."""
    from aipoints import canonicalize, normalize_to_unit_area
    q0 = normalize_to_unit_area(canonicalize(Q0_VERTICES))[0].vertices
    return vertices is not None and np.shape(vertices) == q0.shape and bool(
        np.allclose(vertices, q0))


def estimate_ok(value, se, r_stability: float, ref_value, ref_se) -> bool:
    """|value - ref| <= 4 sqrt(|se|^2 + |se_ref|^2) + r_stability."""
    diff = np.asarray(value, float) - np.asarray(ref_value, float)
    var = float(np.sum(np.square(se)) + np.sum(np.square(ref_se)))
    return float(np.hypot(*diff)) <= CHECK_SIGMAS * math.sqrt(var) + r_stability


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def find_reference(refs: dict, workload: str, k: int, radius: float, anchor):
    for ref in refs.get(workload, ()):
        if (ref["k"] == k and ref["R"] == radius
                and np.allclose(ref["anchor"], anchor, rtol=0.0, atol=1e-9)):
            return ref
    return None


@dataclass
class PassResult:
    """Outcome of one pass: one (ok, note) per checked operation, and the
    squared standard error of the headline estimate when the pass's output
    shows it."""
    ops: list[tuple[bool, str]] = field(default_factory=list)
    headline_se2: float | None = None


def _call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_body(path: Path, vertices) -> Path:
    path.write_text(json.dumps({"vertices": vertices}), encoding="utf-8")
    return path


class PointDefault:
    name = "point-default"
    threads = 1
    ops_per_pass = 1

    def __init__(self, seed: int, workdir: Path, refs: dict):
        import aipoints.cli
        self.cli = aipoints.cli
        self.refs = refs
        self.seeds = pass_seeds(seed)
        self.body = _write_body(workdir / "q0.json", Q0_VERTICES)
        self.cli.load_polygon(self.body)

    def _argv(self, *extra: str) -> list[str]:
        return ["point", str(self.body), "--rule", "tk", "--threads",
                str(self.threads), *extra]

    def warm_up(self) -> None:
        _call_cli(self.cli, self._argv("--samples", "20000", "--seed", "1"))

    def run_pass(self, index: int) -> PassResult:
        code, out, err = _call_cli(self.cli, self._argv("--seed", str(self.seeds[index])))
        if code != 0:
            return PassResult([(False, f"exit {code}: {err.strip()[-200:]}")])
        record = json.loads(out)
        anchor = record["manifest"]["config"]["anchor"]
        ref = find_reference(self.refs, self.name, record["k"], record["R"], anchor)
        se2 = float(np.sum(np.square(record["std_error"])))
        if ref is None:
            note = f"no reference for k={record['k']} R={record['R']}"
            return PassResult([(False, note)], se2)
        ok = estimate_ok(record["value"], record["std_error"],
                         record["r_stability"], ref["value"], ref["se"])
        return PassResult([(ok, f"point {record['value']} vs {ref['value']}")], se2)


class SweepPeaked:
    name = "sweep-peaked"
    threads = SWEEP_THREADS
    ops_per_pass = len(SWEEP_KS)

    def __init__(self, seed: int, workdir: Path, refs: dict):
        import aipoints.estimator
        from aipoints import canonicalize, normalize_to_unit_area
        self.estimator = aipoints.estimator
        self.refs = refs
        self.seeds = pass_seeds(seed)
        self.body = normalize_to_unit_area(canonicalize(Q0_VERTICES))[0]
        self.anchor = np.array(SWEEP_ANCHOR)

    def _sweep(self, ks, samples: int, seed: int):
        cfg = self.estimator.EstimatorConfig(samples=samples, R=SWEEP_RADIUS,
                                             seed=seed)
        return self.estimator.convergence_sweep(self.body, self.anchor, list(ks),
                                                cfg, threads=self.threads)

    def warm_up(self) -> None:
        self._sweep(SWEEP_KS[:1], 20_000, 1)

    def run_pass(self, index: int) -> PassResult:
        rows = self._sweep(SWEEP_KS, SWEEP_SAMPLES, self.seeds[index])
        result = PassResult()
        for row in rows:
            est = row.estimate
            ref = find_reference(self.refs, self.name, row.k, SWEEP_RADIUS,
                                 SWEEP_ANCHOR)
            if ref is None:
                result.ops.append((False, f"no reference for k={row.k}"))
                continue
            ok = estimate_ok(est.value, est.std_error, est.r_stability,
                             ref["value"], ref["se"])
            result.ops.append((ok, f"k={row.k} {est.value.tolist()} vs {ref['value']}"))
            if row.k == max(SWEEP_KS):
                result.headline_se2 = float(np.sum(np.square(est.std_error)))
        if len(rows) != len(SWEEP_KS):
            result.ops.append((False, f"{len(rows)} rows for {len(SWEEP_KS)} ks"))
        return result


class AuditMixed:
    name = "audit-mixed"
    threads = 1
    ops_per_pass = (len(FIXED_BODIES) + len(RANDOM_GONS)) * len(AUDIT_RULES) * AUDIT_MAPS

    def __init__(self, seed: int, workdir: Path, refs: dict):
        import aipoints.cli
        self.cli = aipoints.cli
        self.seeds = pass_seeds(seed)
        self.bodies = workdir / "bodies"
        self.bodies.mkdir()
        for name, vertices in audit_bodies(seed).items():
            self.cli.load_polygon(_write_body(self.bodies / f"{name}.json", vertices))
        self.out = workdir / "audit.csv"

    def _argv(self, maps: int, samples: int, seed: int) -> list[str]:
        return ["audit", str(self.bodies), "--rules", ",".join(AUDIT_RULES),
                "--maps", str(maps), "--radius", str(AUDIT_RADIUS),
                "--samples", str(samples), "--threads", str(self.threads),
                "--seed", str(seed), "--out", str(self.out)]

    def warm_up(self) -> None:
        _call_cli(self.cli, self._argv(1, 2000, 1))

    def run_pass(self, index: int) -> PassResult:
        self.out.unlink(missing_ok=True)
        code, _, err = _call_cli(self.cli, self._argv(AUDIT_MAPS, AUDIT_SAMPLES,
                                                      self.seeds[index]))
        if code != 0:
            note = f"exit {code}: {err.strip()[-200:]}"
            return PassResult([(False, note)] * self.ops_per_pass)
        return PassResult(parse_audit_rows(self.out.read_text(encoding="utf-8"),
                                           self.ops_per_pass))


def parse_audit_rows(text: str, expected: int) -> list[tuple[bool, str]]:
    """One op per data row of the audit CSV; the ``#`` manifest and summary
    lines are skipped.  Missing rows, and extra ones, count as failed ops."""
    lines = [line for line in text.splitlines()
             if line and not line.startswith("#")]
    ops = []
    for line in lines[1:]:
        fields = line.split(",")
        status = fields[-1] if len(fields) == 6 else f"malformed:{line[:60]}"
        ops.append((status == "ok", f"{','.join(fields[:3])} {status}"))
    if len(ops) > expected:
        ops.append((False, f"{len(ops)} rows, expected {expected}"))
    ops.extend([(False, "missing row")] * (expected - len(ops)))
    return ops


WORKLOADS = {cls.name: cls for cls in (PointDefault, SweepPeaked, AuditMixed)}
