"""CLI contract: output formats, manifests, determinism, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aipoints.cli
import aipoints.errors
from aipoints import (AipointsError, BodyFormatError, DegenerateWeights,
                      EstimatorConfig, convergence_sweep, estimate_record,
                      estimate_tk, load_polygon)
from aipoints.cli import _build_parser, _config_from_args, main

# the [project.scripts] target of the aipoints console command
ENTRY_POINT = "aipoints.cli:run"

SQUARE = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
BIG_SQUARE = {"vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]}
TRIANGLE = {"vertices": [[0, 0], [1, 0], [0, 1]]}
Q0 = {"vertices": [[0, 0], [1, 0], [1.3, 0.8], [0.2, 1.1]]}


@pytest.fixture
def bodies(tmp_path):
    paths = {}
    for name, payload in (("square", SQUARE), ("big_square", BIG_SQUARE),
                          ("triangle", TRIANGLE), ("q0", Q0)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = p
    return paths


def _run(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_point_centroid(bodies, capsys):
    code, out, _ = _run(capsys, ["point", bodies["square"], "--rule", "centroid"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rule"] == "centroid"
    assert payload["value"] == [0.5, 0.5]
    manifest = payload["manifest"]
    assert manifest["command"] == "point"
    assert manifest["version"]
    assert "body" in manifest["bodies"]
    # reruns are byte-identical
    code2, out2, _ = _run(capsys, ["point", bodies["square"], "--rule", "centroid"])
    assert (code2, out2) == (0, out)


def test_point_john(bodies, capsys):
    code, out, _ = _run(capsys, ["point", bodies["triangle"], "--rule", "john"])
    assert code == 0
    value = json.loads(out)["value"]
    assert np.allclose(value, [1 / 3, 1 / 3], atol=1e-6)


def test_point_tk_square(bodies, capsys):
    argv = ["point", bodies["square"], "--rule", "tk", "--anchor", "0.5,0.5",
            "--samples", "30000", "--radius", "4", "--seed", "0"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    rec = json.loads(out)
    assert rec["rule"] == "tk"
    err = np.linalg.norm(np.array(rec["value"]) - 0.5)
    assert err <= 3.0 * np.linalg.norm(rec["std_error"])
    assert 0 < rec["ess"] <= rec["samples"] == 30000
    assert rec["manifest"]["config"]["anchor"] == [0.5, 0.5]
    # byte-identical rerun, also across thread counts
    assert _run(capsys, argv)[:2] == (code, out)
    code3, out3, _ = _run(capsys, argv + ["--threads", "3"])
    rec3 = json.loads(out3)
    assert rec3["value"] == rec["value"]
    assert rec3["std_error"] == rec["std_error"]
    # default anchor is the base-body centroid, here exactly the center
    _, out4, _ = _run(capsys, argv[:4] + argv[6:])
    assert json.loads(out4)["value"] == rec["value"]


def test_point_tk_scaling(bodies, capsys):
    argv_tail = ["--rule", "tk", "--samples", "20000", "--radius", "4"]
    _, out_small, _ = _run(capsys, ["point", bodies["square"], *argv_tail])
    _, out_big, _ = _run(capsys, ["point", bodies["big_square"], *argv_tail])
    small = np.array(json.loads(out_small)["value"])
    big = np.array(json.loads(out_big)["value"])
    assert np.array_equal(big, 2.0 * small)


def test_point_tk_base_body_matches_library(bodies, capsys):
    # the CLI hands the raw bodies to the library and prints its record as is
    code, out, _ = _run(capsys, ["point", bodies["triangle"], "--rule", "tk",
                                 "--base-body", bodies["q0"], "--samples",
                                 "20000", "--radius", "4"])
    assert code == 0
    rec = json.loads(out)
    q0 = load_polygon(bodies["q0"])
    cfg = EstimatorConfig(samples=20_000, R=4.0)
    est = estimate_tk(q0, np.array(q0.centroid),
                      load_polygon(bodies["triangle"]), cfg)
    expect = estimate_record(est, cfg)
    assert {key: rec[key] for key in expect} == expect


def test_point_exit_codes(bodies, tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert _run(capsys, ["point", missing, "--rule", "centroid"])[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run(capsys, ["point", bad, "--rule", "centroid"])[0] == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "carré", "vertices": []}'.encode("latin-1"))
    code, out, err = _run(capsys, ["point", latin1, "--rule", "centroid"])
    assert (code, out) == (2, "") and "error:" in err
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"vertices": [[0, 0], [1, 0]]}))
    assert _run(capsys, ["point", short, "--rule", "centroid"])[0] == 2
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [2, 0]]}))
    code, _, err = _run(capsys, ["point", flat, "--rule", "centroid"])
    assert code == 4 and "error:" in err
    code, _, _ = _run(capsys, ["point", bodies["square"], "--rule", "tk",
                               "--k", "0"])
    assert code == 4
    code, _, err = _run(capsys, ["point", bodies["square"], "--rule", "tk",
                                 "--samples", "50", "--radius", "4"])
    assert code == 3 and "error:" in err
    # 2,700 hits, but every F^k underflows in the R-doubling rerun at R=4
    code, out, err = _run(capsys, ["point", bodies["q0"], "--rule", "tk",
                                   "--k", "3000", "--samples", "20000",
                                   "--radius", "2"])
    assert (code, out) == (3, "")
    assert "underflowed" in err and "k=3000, R=4.0" in err and "lower k" in err
    code, _, _ = _run(capsys, ["point", bodies["square"], "--rule", "tk",
                               "--base-body", missing])
    assert code == 2
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"vertices": [[0, 0, 1], [1, 1, 0], [0, 1, 1],
                                             [1, 0, 0]]}))
    code, _, err = _run(capsys, ["point", wide, "--rule", "centroid"])
    assert code == 2 and "(n, 2)" in err
    code, _, err = _run(capsys, ["point", bodies["square"], "--rule", "tk",
                                 "--radius", "inf"])
    assert code == 4 and "truncation radius" in err
    code, out, err = _run(capsys, ["point", bodies["square"], "--rule", "tk",
                                   "--threads", "-3"])
    assert (code, out) == (4, "") and "--threads" in err
    code, out, err = _run(capsys, ["point", bodies["square"], "--rule", "tk",
                                   "--seed", "-1"])
    assert (code, out) == (4, "") and "seed" in err
    # the estimator flags are checked for the exact rules too
    for flags in (["--samples", "0"], ["--k", "-3", "--radius", "0.5"]):
        for rule in ("centroid", "john"):
            code, out, err = _run(capsys, ["point", bodies["q0"], "--rule",
                                           rule, *flags])
            assert (code, out) == (4, "") and "error:" in err, (rule, flags)
            code, out, _ = _run(capsys, ["point", bad, "--rule", rule,
                                         *flags])
            assert (code, out) == (2, ""), (rule, flags)
    # the tk-only flags are refused for the exact rules, before the base
    # body is read; a bad body still fails first
    for rule in ("centroid", "john"):
        for flags in (["--anchor", "9,9"], ["--base-body", missing],
                      ["--base-body", missing, "--anchor", "9,9"],
                      ["--base-body", bodies["q0"]]):
            code, out, err = _run(capsys, ["point", bodies["q0"], "--rule",
                                           rule, *flags])
            assert (code, out) == (4, "") and "--rule tk" in err, (rule, flags)
            code, out, _ = _run(capsys, ["point", bad, "--rule", rule, *flags])
            assert (code, out) == (2, ""), (rule, flags)
    # an unwritable --out fails before the sweep, which would exit 3 here
    lost = tmp_path / "no_dir" / "x.csv"
    code, out, err = _run(capsys, ["converge", bodies["square"], "--anchor",
                                   "0.5,0.5", "--ks", "2", "--samples", "50",
                                   "--out", lost])
    assert (code, out) == (2, "") and "error:" in err
    assert not lost.parent.exists()
    out_csv = tmp_path / "empty.csv"
    code, _, err = _run(capsys, ["converge", bodies["square"], "--anchor",
                                 "0.5,0.5", "--ks", ",", "--out", out_csv])
    assert code == 4 and "error:" in err
    assert not out_csv.exists()
    # non-finite anchors: Q0's trivial group would pass any anchor the gate
    code, out, err = _run(capsys, ["point", bodies["q0"], "--rule", "tk",
                                   "--anchor", "nan,0"])
    assert (code, out) == (4, "") and "error: anchor" in err
    code, _, err = _run(capsys, ["converge", bodies["q0"], "--anchor", "inf,0",
                                 "--ks", "2", "--out", out_csv])
    assert code == 4 and "error: anchor" in err
    assert not out_csv.exists()
    # radii past MAX_RADIUS (1e4) over the R-doubling, and a finite anchor
    # whose estimate overflows, used to exit 0 with NaN on stdout
    for radius in ("1e160", "5001"):
        code, out, err = _run(capsys, ["point", bodies["q0"], "--rule", "tk",
                                       "--radius", radius])
        assert (code, out) == (4, "") and "truncation radius" in err
    code, out, err = _run(capsys, ["point", bodies["q0"], "--rule", "tk",
                                   "--anchor", "1e200,0", "--samples", "20000"])
    assert (code, out) == (4, "") and "not finite" in err
    assert len(err.splitlines()) == 1   # the error alone, no numpy warnings
    # a body whose area (1e400) overflows used to exit 0 with NaN or
    # Infinity, and symmetry ended in an IndexError
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"vertices": [[0, 0], [1e200, 0], [0, 1e200]]}))
    for rule in ("centroid", "john", "tk"):
        code, out, err = _run(capsys, ["point", huge, "--rule", rule])
        assert (code, out) == (4, "") and "overflows" in err, rule
        assert len(err.splitlines()) == 1
    code, out, err = _run(capsys, ["symmetry", huge])
    assert (code, out) == (4, "") and "overflows" in err
    # JSON nested past the recursion limit used to end in a RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = _run(capsys, ["point", deep, "--rule", "centroid"])
    assert (code, out) == (2, "") and "nested too deeply" in err


def test_bodies_far_from_unit_scale(capsys, tmp_path):
    # symmetry on a triangle with legs 1e100 used to end in an IndexError,
    # and at 1e-120 to exit 4 ("covariance not positive definite"), while
    # point --rule centroid or john printed [0.0, 0.0] for the centre near
    # 3.3e-121.  Legs 1e103 and 1e150 were refused (exit 4, "overflows"):
    # the centroid's sums overflowed although the area and centroid fit
    def body(scale):
        path = tmp_path / f"tri{scale:g}.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [scale, 0], [0, scale]]}))
        return path

    code, out, _ = _run(capsys, ["point", body(1.0), "--rule", "tk"])
    unit_tk = json.loads(out)["value"]
    for scale in (1e100, 1e103, 1e150, 1e-120):
        path = body(scale)
        code, out, err = _run(capsys, ["symmetry", path])
        assert code == 0 and json.loads(out)["kind"] == "dihedral(3)", scale
        for rule in ("centroid", "john"):
            code, out, err = _run(capsys, ["point", path, "--rule", rule])
            assert code == 0 and len(err.splitlines()) == 1, (scale, rule)
            assert np.allclose(json.loads(out)["value"], scale / 3.0,
                               rtol=1e-9, atol=0), (scale, rule)
        # tk normalises to unit area, so its value scales with the body
        code, out, err = _run(capsys, ["point", path, "--rule", "tk"])
        assert code == 0 and len(err.splitlines()) == 1, scale
        assert np.allclose(json.loads(out)["value"], scale * np.array(unit_tk),
                           rtol=1e-12, atol=0), scale


ERROR_CLASSES = [cls for cls in vars(aipoints.errors).values()
                 if isinstance(cls, type) and issubclass(cls, AipointsError)]


@pytest.mark.parametrize("cls", [*ERROR_CLASSES, RuntimeError],
                         ids=lambda cls: cls.__name__)
def test_exit_code_follows_error_class(cls, bodies, capsys, monkeypatch):
    # main maps each package error class to its exit code; any other
    # exception is a bug and propagates
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(aipoints.cli, "cmd_symmetry", fail)
    if not issubclass(cls, AipointsError):
        with pytest.raises(cls, match="boom"):
            main(["symmetry", str(bodies["square"])])
        return
    expected = {DegenerateWeights: 3, BodyFormatError: 2}.get(cls, 4)
    assert _run(capsys, ["symmetry", bodies["square"]]) == (
        expected, "", "error: boom\n")


def test_parser_defaults_match_the_estimator():
    parser = _build_parser()
    for argv in (["point", "b.json", "--rule", "tk"],
                 ["converge", "b.json", "--anchor", "0,0", "--out", "o.csv"],
                 ["audit", "bodies"]):
        assert _config_from_args(parser.parse_args(argv)) == EstimatorConfig()


def test_converge_square(bodies, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    argv = ["converge", bodies["square"], "--anchor", "0.5,0.5",
            "--ks", "2,4", "--samples", "20000", "--radius", "4",
            "--out", out_csv]
    code, _, _ = _run(capsys, argv)
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: "):])
    assert manifest["command"] == "converge"
    assert manifest["config"]["ks"] == [2, 4]
    assert lines[1] == "k,value_x,value_y,se_x,se_y,err_to_v"
    assert len(lines) == 4
    for line, k in zip(lines[2:], (2, 4)):
        parts = line.split(",")
        assert int(parts[0]) == k
        vx, vy, sx, sy, err = map(float, parts[1:])
        assert err == pytest.approx(np.hypot(vx - 0.5, vy - 0.5), abs=1e-12)
        assert err <= 3.0 * np.hypot(sx, sy)
    first = out_csv.read_bytes()
    _run(capsys, argv)
    assert out_csv.read_bytes() == first


def test_converge_anchor_gate(bodies, tmp_path, capsys):
    out_csv = tmp_path / "gate.csv"
    argv = ["converge", bodies["square"], "--anchor", "0,0", "--ks", "2",
            "--samples", "20000", "--radius", "4", "--out", out_csv]
    code, _, err = _run(capsys, argv)
    assert code == 4
    assert not out_csv.exists()
    assert "error:" in err
    code, _, _ = _run(capsys, argv + ["--unsafe-anchor"])
    assert code == 0
    manifest = json.loads(out_csv.read_text().splitlines()[0][len("# manifest: "):])
    assert manifest["config"]["unsafe_anchor"] is True
    # the gate's 1e-8 is in units of the body: an offset of 1e-7 of the side
    # is rejected on a small square and 1e-10 of it accepted on a large one
    for side, offset, expect in ((1e-3, 1e-10, 4), (1e3, 1e-7, 0)):
        path = tmp_path / f"square_{side}.json"
        path.write_text(json.dumps({"vertices": (side * np.array(
            SQUARE["vertices"], float)).tolist()}))
        anchor = f"{side / 2 + offset!r},{side / 2!r}"
        code, _, _ = _run(capsys, ["converge", path, "--anchor", anchor,
                                   "--ks", "2", "--samples", "20000",
                                   "--radius", "4", "--out",
                                   tmp_path / "scaled.csv"])
        assert code == expect, (side, offset)


def test_converge_repeated_k(bodies, tmp_path, capsys):
    # a repeated k is refused before any estimate runs or any CSV is made
    out_csv = tmp_path / "dup.csv"
    code, out, err = _run(capsys, ["converge", bodies["q0"], "--anchor",
                                   "0.55,0.45", "--ks", "2,2,8", "--samples",
                                   "20000", "--radius", "2", "--out", out_csv])
    assert (code, out) == (4, "") and "more than once" in err
    assert not out_csv.exists()


def test_converge_rows_match_library_sweep(bodies, tmp_path, capsys):
    # The CLI owns the row order and the CSV format; the library owns the
    # unit-area frame.  The k -> infinity limit is criterion 07's business.
    out_csv = tmp_path / "q0.csv"
    ks = (16, 2, 8, 4)
    code, _, _ = _run(capsys, ["converge", bodies["q0"], "--anchor",
                               "0.55,0.45", "--ks", ",".join(map(str, ks)),
                               "--samples", "50000", "--radius", "2",
                               "--seed", "0", "--out", out_csv,
                               "--threads", "4"])
    assert code == 0
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[2:]]
    assert [int(r[0]) for r in rows] == list(ks)
    anchor = np.array([0.55, 0.45])
    for r in rows:
        vx, vy, _, _, err = map(float, r[1:])
        assert err == pytest.approx(np.hypot(vx - anchor[0], vy - anchor[1]),
                                    abs=1e-12)
    sweep = convergence_sweep(load_polygon(bodies["q0"]), anchor, ks,
                              EstimatorConfig(samples=50_000, R=2.0, seed=0),
                              threads=4)
    for r, row in zip(rows, sweep):
        expect = [*row.estimate.value, *row.estimate.std_error, row.err_to_v]
        assert r[1:] == [repr(float(x)) for x in expect]


def test_symmetry_cmd(bodies, capsys):
    for name, kind, order in (("square", "dihedral(4)", 8),
                              ("triangle", "dihedral(3)", 6),
                              ("q0", "trivial", 1)):
        code, out, _ = _run(capsys, ["symmetry", bodies[name]])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == kind
        assert payload["order"] == order
        assert payload["manifest"]["command"] == "symmetry"
    code, out, _ = _run(capsys, ["symmetry", bodies["square"]])
    assert (code, out) == (0, _run(capsys, ["symmetry", bodies["square"]])[1])
    # a sliver whose second moment is singular in floating point
    sliver = bodies["square"].with_name("sliver.json")
    sliver.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0.5, 1e-9]]}))
    code, out, err = _run(capsys, ["symmetry", sliver])
    assert (code, out) == (4, "") and "error:" in err


def test_audit_exact_rules(bodies, tmp_path, capsys):
    bdir = tmp_path / "bodies"
    bdir.mkdir()
    for name in ("square", "triangle"):
        (bdir / f"{name}.json").write_text(bodies[name].read_text())
    code, out, _ = _run(capsys, ["audit", bdir, "--rules", "centroid,john",
                                 "--maps", "5", "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "body,rule,map_index,residual,gate,status"
    data = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert len(data) == 2 * 2 * 5
    for body, rule, idx, residual, gate, status in data:
        assert status == "ok"
        residual = float(residual)
        assert residual <= {"centroid": 1e-10, "john": 1e-5}[rule]
    summaries = [line for line in lines if line.startswith("# summary")]
    assert len(summaries) == 2
    for summary in summaries:
        fields = dict(part.split("=") for part in summary.split()[2:])
        assert fields["n"] == "10"
        for key in ("p50", "p90", "max"):
            float(fields[key])


def test_audit_tk_rule(bodies, tmp_path, capsys):
    bdir = tmp_path / "bodies"
    bdir.mkdir()
    (bdir / "square.json").write_text(bodies["square"].read_text())
    code, out, _ = _run(capsys, ["audit", bdir, "--rules", "tk", "--maps", "3",
                                 "--samples", "30000", "--radius", "4",
                                 "--seed", "2"])
    assert code == 0
    data = [line.split(",") for line in out.splitlines()
            if not line.startswith("#")][1:]
    assert len(data) == 3
    assert all(row[5] == "ok" for row in data)
    for row in data:  # columns are plain parseable floats
        assert 0.0 <= float(row[3]) <= float(row[4])


def test_audit_bad_inputs(tmp_path, capsys, monkeypatch):
    empty = tmp_path / "none"
    empty.mkdir()
    assert _run(capsys, ["audit", empty])[0] == 4
    bdir = tmp_path / "bodies"
    bdir.mkdir()
    (bdir / "square.json").write_text(json.dumps(SQUARE))
    assert _run(capsys, ["audit", bdir, "--rules", "bogus"])[0] == 4
    for argv in (["--maps", "0"], ["--maps", "-2"], ["--rules", ","],
                 ["--rules", "centroid,centroid"], ["--rules", "tk, john,tk"],
                 ["--threads", "-3"]):
        code, out, err = _run(capsys, ["audit", bdir, *argv])
        assert (code, out) == (4, ""), argv
        assert "error:" in err
    # a repeated rule is refused before any estimate runs or any CSV is made
    written = tmp_path / "twice.csv"
    code, out, err = _run(capsys, ["audit", bdir, "--rules", "centroid,centroid",
                                   "--maps", "2", "--out", written])
    assert (code, out) == (4, "") and "more than once" in err
    assert not written.exists()
    # an unwritable --out fails before any estimate runs
    calls = []
    monkeypatch.setattr(aipoints.cli, "estimate_tk",
                        lambda *args, **kwargs: calls.append(args))
    lost = tmp_path / "no_dir" / "x.csv"
    code, out, err = _run(capsys, ["audit", bdir, "--rules", "tk", "--samples",
                                   "50", "--out", lost])
    assert (code, out) == (2, "") and "error:" in err
    assert not lost.parent.exists()
    assert calls == []
    (bdir / "deep.json").write_text("[" * 100_000)
    code, out, err = _run(capsys, ["audit", bdir])
    assert (code, out) == (2, "") and "nested too deeply" in err


def test_audit_failed_base_estimate_gives_error_rows(bodies, tmp_path, capsys,
                                                     monkeypatch):
    # 150 draws cannot reach 100 hits, so each tk base estimate fails; its
    # rows say so and every other row is still written
    bdir = tmp_path / "bodies"
    bdir.mkdir()
    for name in ("q0", "square"):
        (bdir / f"{name}.json").write_text(bodies[name].read_text())
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return estimate_tk(*args, **kwargs)

    monkeypatch.setattr(aipoints.cli, "estimate_tk", spy)
    out_csv = tmp_path / "audit.csv"
    code, _, _ = _run(capsys, ["audit", bdir, "--rules", "centroid,tk",
                               "--maps", "2", "--samples", "150",
                               "--radius", "4", "--out", out_csv])
    assert code == 0
    rows = [line.split(",") for line in out_csv.read_text().splitlines()
            if not line.startswith("#")][1:]
    assert [row[:3] for row in rows] == [
        [body, rule, str(i)] for body in ("q0.json", "square.json")
        for rule in ("centroid", "tk") for i in range(2)]
    for body, rule, _, residual, gate, status in rows:
        if rule == "centroid":
            assert status == "ok"
        else:
            assert (residual, gate, status) == ("", "", "error:DegenerateWeights")
    assert len(calls) == 2  # one base estimate per body, no moved ones
    assert "# summary rule=tk n=0" in out_csv.read_text()


def test_audit_rows_hold_package_errors_only(bodies, tmp_path, capsys,
                                            monkeypatch):
    bdir = tmp_path / "bodies"
    bdir.mkdir()
    (bdir / "square.json").write_text(bodies["square"].read_text())
    argv = ["audit", bdir, "--rules", "centroid", "--maps", "2"]

    def failing(exc):
        def apply_affine(*args):
            raise exc
        return apply_affine

    monkeypatch.setattr(aipoints.cli, "apply_affine",
                        failing(DegenerateWeights("injected")))
    code, out, _ = _run(capsys, argv)
    rows = [line.split(",") for line in out.splitlines()
            if not line.startswith("#")][1:]
    assert code == 0
    assert [row[5] for row in rows] == ["error:DegenerateWeights"] * 2
    # anything else is a bug: it ends in a traceback, not an error row
    monkeypatch.setattr(aipoints.cli, "apply_affine",
                        failing(TypeError("injected")))
    with pytest.raises(TypeError, match="injected"):
        main([str(a) for a in argv])


def test_env_threads_fallback(bodies, capsys, monkeypatch):
    argv = ["point", bodies["square"], "--rule", "tk", "--samples", "20000",
            "--radius", "4"]
    _, out1, _ = _run(capsys, argv)
    monkeypatch.setenv("AIP_THREADS", "3")
    _, out3, _ = _run(capsys, argv)
    rec1, rec3 = json.loads(out1), json.loads(out3)
    assert rec1["manifest"]["config"]["threads"] == 1
    assert rec3["manifest"]["config"]["threads"] == 3
    assert rec1["value"] == rec3["value"]  # thread count never changes values
    # a bad $AIP_THREADS is refused like a bad --threads
    for bad in ("0", "abc"):
        monkeypatch.setenv("AIP_THREADS", bad)
        code, out, err = _run(capsys, argv)
        assert (code, out) == (4, ""), bad
        assert "error: AIP_THREADS" in err


def _run_cli(argv, cwd):
    """Run a CLI subprocess with the imported ``aipoints`` first on its
    PYTHONPATH, so it runs the code under test rather than some other install."""
    root = str(Path(aipoints.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return subprocess.run([str(a) for a in argv], capture_output=True,
                          text=True, env=env, cwd=cwd)


def test_console_entry_point(bodies, tmp_path):
    out = _run_cli([sys.executable, "-m", "aipoints.cli"], tmp_path)
    assert out.returncode == 2  # no subcommand: argparse usage error
    assert "usage: aipoints" in out.stderr
    # what the generated console script does, without needing it installed
    module, func = ENTRY_POINT.split(":")
    wrapper = (f"import sys\nfrom {module} import {func}\n"
               f"sys.argv[0] = 'aipoints'\nsys.exit({func}())\n")
    run = _run_cli([sys.executable, "-c", wrapper, "point", bodies["square"],
                    "--rule", "centroid"], tmp_path)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["value"] == [0.5, 0.5]


def test_import_leaves_scipy_out(tmp_path):
    # scipy is a test dependency only: the CLI must not pull it in
    probe = ("import sys, aipoints.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = _run_cli([sys.executable, "-c", probe], tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"aipoints": ENTRY_POINT}


@pytest.mark.skipif(shutil.which("aipoints") is None,
                    reason="the aipoints console script is not installed")
def test_installed_console_script(bodies, tmp_path):
    run = _run_cli(["aipoints", "point", bodies["square"], "--rule",
                    "centroid"], tmp_path)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["value"] == [0.5, 0.5]
