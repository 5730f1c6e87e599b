"""Command-line interface: point, converge, symmetry, audit.

stdout carries data (JSON or CSV), stderr carries diagnostics.  Every output
embeds a deterministic run manifest (command, body paths, config echo, tool
version); identical manifests produce byte-identical output.  Exit codes
follow the error class: 0 success, 3 DegenerateWeights, 2 unreadable input
(_PARSE_ERRORS), 4 any other AipointsError.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, classical
from .errors import (AipointsError, BodyFormatError, ConfigError,
                     DegenerateWeights)
from .estimator import (DEFAULT_K, DEFAULT_RADIUS, DEFAULT_SAMPLES,
                        SWEEP_CSV_HEADER, EstimatorConfig, convergence_sweep,
                        estimate_record, estimate_tk)
from .geometry import apply_affine, load_polygon
from .haar import sample_sl2pm
from .symmetry import automorphism_group, report_to_dict
from .unimodular import VolumePreservingAffineMap, singular_values

EXIT_PARSE = 2
EXIT_DEGENERATE_WEIGHTS = 3
EXIT_PRECONDITION = 4

_PARSE_ERRORS = (BodyFormatError, json.JSONDecodeError, UnicodeDecodeError,
                 OSError)


def _exact(point):
    """An exact rule: ``point`` of the body, with no sampling error."""
    return lambda K, L, cfg, threads: (point(L), np.zeros(2), 0.0)


def _tk(K, L, cfg: EstimatorConfig, threads: int):
    est = estimate_tk(K, K.centroid, L, cfg, threads=threads)
    return est.value, est.std_error, est.r_stability


# name -> (evaluate, tol).  evaluate(K, L, cfg, threads) gives the rule's
# (value, std_error, r_stability) on the body L: tk weighs by the base body
# K with K's centroid as anchor, the exact rules read L alone.  tol is the
# residual an exact rule may leave under an affine map.  john_center is
# looked up per call, so a wrapper put on it later is seen.
_RULES = {"centroid": (_exact(lambda poly: np.array(poly.centroid)), 1e-10),
          "john": (_exact(lambda poly: classical.john_center(poly)), 1e-5),
          "tk": (_tk, 0.0)}


def _anchor_type(text: str) -> np.ndarray:
    try:
        x, y = (float(part) for part in text.split(","))
    except Exception as exc:
        raise argparse.ArgumentTypeError("anchor must be 'x,y'") from exc
    return np.array([x, y])


def _ks_type(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except Exception as exc:
        raise argparse.ArgumentTypeError("ks must be a comma list of integers") from exc


def _resolve_threads(flag: int | None) -> int:
    """--threads, else $AIP_THREADS, else 1; either must be an integer >= 1."""
    if flag is not None:
        source, value = "--threads", flag
    else:
        source, value = "AIP_THREADS", os.environ.get("AIP_THREADS", "1")
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"{source} must be an integer >= 1, got {value!r}")
    return threads


def _add_estimator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=DEFAULT_K,
                        help=f"weight exponent (default {DEFAULT_K})")
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                        help=f"Monte Carlo samples per run (default {DEFAULT_SAMPLES})")
    parser.add_argument("--radius", type=float, default=DEFAULT_RADIUS,
                        help=f"truncation radius R for the group ball "
                             f"(default {DEFAULT_RADIUS:g})")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default $AIP_THREADS or 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aipoints",
        description="Affine invariant points of planar convex bodies.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one point rule on a body")
    p_point.add_argument("body", type=Path, help="polygon JSON file")
    p_point.add_argument("--rule", required=True, choices=tuple(_RULES))
    p_point.add_argument("--anchor", type=_anchor_type, default=None,
                         help="anchor x,y for the tk rule (default: base-body centroid)")
    p_point.add_argument("--base-body", type=Path, default=None,
                         help="body defining the tk weight (default: the body itself)")
    _add_estimator_flags(p_point)

    p_conv = sub.add_parser("converge", help="sweep k and tabulate errors to the anchor")
    p_conv.add_argument("body", type=Path)
    p_conv.add_argument("--anchor", type=_anchor_type, required=True)
    p_conv.add_argument("--ks", type=_ks_type, default=[2, 4, 8, 16])
    p_conv.add_argument("--out", type=Path, required=True, help="CSV output path")
    p_conv.add_argument("--unsafe-anchor", action="store_true",
                        help="skip the fixed-set check on the anchor")
    _add_estimator_flags(p_conv)

    p_sym = sub.add_parser("symmetry", help="report the affine automorphism group")
    p_sym.add_argument("body", type=Path)

    p_audit = sub.add_parser("audit", help="equivariance residuals over a body directory")
    p_audit.add_argument("bodies", type=Path, help="directory of polygon JSON files")
    p_audit.add_argument("--rules", default="centroid,john",
                         help=f"comma list from {{{','.join(_RULES)}}}")
    p_audit.add_argument("--maps", type=int, default=20,
                         help="random volume-preserving maps per body (default 20)")
    p_audit.add_argument("--out", type=Path, default=None,
                         help="CSV output path (default stdout)")
    _add_estimator_flags(p_audit)
    return parser


def _config_from_args(args) -> EstimatorConfig:
    return EstimatorConfig(k=args.k, samples=args.samples, R=args.radius,
                           seed=args.seed)


def _manifest(command: str, bodies: dict, config: dict) -> dict:
    return {
        "command": command,
        "bodies": {key: str(val) for key, val in bodies.items()},
        "config": config,
        "version": __version__,
    }


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _check_out(out: Path | None) -> None:
    """Raise OSError before any estimate if the CSV cannot be written to ``out``."""
    if out is not None and (out.is_dir() or not os.access(out.parent, os.W_OK)):
        raise OSError(f"cannot write {out}: not a file in a writable directory")


def _write_csv(lines: list[str], out: Path | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def cmd_point(args) -> int:
    body = load_polygon(args.body)
    cfg = _config_from_args(args)   # a bad flag fails for every rule
    if args.rule != "tk":
        for flag, given in (("--anchor", args.anchor),
                            ("--base-body", args.base_body)):
            if given is not None:
                raise ConfigError(f"{flag} applies only to --rule tk, "
                                  f"not {args.rule}")
        value = _RULES[args.rule][0](body, body, cfg, args.threads)[0]
        manifest = _manifest("point", {"body": args.body},
                             {"rule": args.rule})
        _emit_json({"rule": args.rule,
                    "value": [float(value[0]), float(value[1])],
                    "manifest": manifest})
        return 0

    base_path = args.base_body if args.base_body is not None else args.body
    base = body if args.base_body is None else load_polygon(base_path)
    anchor = args.anchor if args.anchor is not None else np.array(base.centroid)
    est = estimate_tk(base, anchor, body, cfg, threads=args.threads)
    record = estimate_record(est, cfg)
    manifest = _manifest("point", {"body": args.body, "base_body": base_path},
                         {"rule": args.rule, "k": cfg.k, "samples": cfg.samples,
                          "R": cfg.R, "seed": cfg.seed, "threads": args.threads,
                          "anchor": [float(anchor[0]), float(anchor[1])]})
    record["rule"] = args.rule
    record["manifest"] = manifest
    _emit_json(record)
    return 0


def cmd_converge(args) -> int:
    _check_out(args.out)
    body = load_polygon(args.body)
    cfg = _config_from_args(args)
    anchor = np.asarray(args.anchor, float)
    rows = convergence_sweep(body, anchor, args.ks, cfg,
                             threads=args.threads,
                             check_anchor=not args.unsafe_anchor)
    manifest = _manifest("converge", {"body": args.body},
                         {"ks": list(args.ks), "samples": cfg.samples,
                          "R": cfg.R, "seed": cfg.seed, "threads": args.threads,
                          "anchor": [float(anchor[0]), float(anchor[1])],
                          "unsafe_anchor": bool(args.unsafe_anchor)})
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True),
             ",".join(SWEEP_CSV_HEADER)]
    for row in rows:
        est = row.estimate
        lines.append(",".join([str(row.k)] + [
            repr(float(x)) for x in (*est.value, *est.std_error, row.err_to_v)]))
    _write_csv(lines, args.out)
    return 0


def cmd_symmetry(args) -> int:
    body = load_polygon(args.body)
    report = automorphism_group(body)
    payload = report_to_dict(report)
    payload["manifest"] = _manifest("symmetry", {"body": args.body}, {})
    _emit_json(payload)
    return 0


def _audit_maps(count: int, seed: int) -> list[VolumePreservingAffineMap]:
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(count):
        linear = sample_sl2pm(2.0, rng)
        shift = rng.uniform(-1.0, 1.0, size=2)
        maps.append(VolumePreservingAffineMap(linear, shift))
    return maps


def cmd_audit(args) -> int:
    _check_out(args.out)
    rules = [part.strip() for part in args.rules.split(",") if part.strip()]
    for rule in rules:
        if rule not in _RULES:
            raise ConfigError(f"unknown rule {rule!r}")
    if not rules:
        raise ConfigError("--rules names no rule")
    if len(set(rules)) < len(rules):
        raise ConfigError(f"--rules names a rule more than once: {args.rules!r}")
    if args.maps < 1:
        raise ConfigError(f"--maps must be >= 1, got {args.maps}")
    paths = sorted(args.bodies.glob("*.json"))
    if not paths:
        raise ConfigError(f"no polygon JSON files under {args.bodies}")
    cfg = _config_from_args(args)
    maps = _audit_maps(args.maps, args.seed)
    manifest = _manifest("audit", {"bodies": args.bodies},
                         {"rules": rules, "maps": args.maps, "k": cfg.k,
                          "samples": cfg.samples, "R": cfg.R,
                          "seed": cfg.seed, "threads": args.threads})
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True),
             "body,rule,map_index,residual,gate,status"]
    residuals: dict[str, list[float]] = {rule: [] for rule in rules}

    for path in paths:
        body = load_polygon(path)
        for rule in rules:
            evaluate, tol = _RULES[rule]
            try:
                base = evaluate(body, body, cfg, args.threads)
            except AipointsError as exc:  # no base: every map of it fails
                lines.extend(_error_row(path.name, rule, index, exc)
                             for index in range(len(maps)))
                continue
            for index, tau in enumerate(maps):
                try:
                    moved = apply_affine((tau.linear, tau.translation), body)
                    residual, gate = _residual_and_gate(
                        base, evaluate(body, moved, cfg, args.threads), tau, tol)
                except AipointsError as exc:  # keep auditing the rest
                    lines.append(_error_row(path.name, rule, index, exc))
                    continue
                status = "ok" if residual <= gate else "exceed"
                residuals[rule].append(residual)
                lines.append(f"{path.name},{rule},{index},{residual!r},"
                             f"{gate!r},{status}")

    for rule in rules:
        vals = np.array(residuals[rule])
        if vals.size:
            lines.append(f"# summary rule={rule} n={vals.size} "
                         f"p50={float(np.quantile(vals, 0.5))!r} "
                         f"p90={float(np.quantile(vals, 0.9))!r} "
                         f"max={float(vals.max())!r}")
        else:
            lines.append(f"# summary rule={rule} n=0")
    _write_csv(lines, args.out)
    return 0


def _error_row(name: str, rule: str, index: int, exc: AipointsError) -> str:
    return f"{name},{rule},{index},,,error:{type(exc).__name__}"


def _residual_and_gate(base, moved, tau: VolumePreservingAffineMap,
                       tol: float) -> tuple[float, float]:
    """|P(tau K) - tau P(K)| from a rule's (value, std_error, r_stability)
    on K and on tau K, and its gate: 3 sigma of the difference, both
    R-doubling shifts and tol.  An exact rule adds 0.0 to tol."""
    (base_value, base_se, base_r), (value, se, r_moved) = base, moved
    lin = tau.linear
    residual = float(np.linalg.norm(value - tau.apply(base_value)))
    var_mapped = (lin * lin) @ (base_se * base_se)
    gate = (3.0 * float(np.sqrt(np.sum(se ** 2) + np.sum(var_mapped)))
            + r_moved + singular_values(lin).lam1 * base_r + tol)
    return residual, gate


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"point": cmd_point, "converge": cmd_converge,
               "symmetry": cmd_symmetry, "audit": cmd_audit}[args.command]
    started = time.perf_counter()
    try:
        if hasattr(args, "threads"):
            args.threads = _resolve_threads(args.threads)
        code = handler(args)
    except DegenerateWeights as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_WEIGHTS
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AipointsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    print(f"# {args.command}: {time.perf_counter() - started:.2f}s wall clock",
          file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
