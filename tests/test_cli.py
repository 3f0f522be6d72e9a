"""Command-line entry points, exercised in process through main(argv).

Each command is checked against the library call it wraps, and the JSON
report envelope (schema version, manifest hashes, inputs/outputs) is
validated on real files in a temp directory.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from regscan import __version__, cli
from regscan.cli import main
from regscan.dyadic import count_bound, localize
from regscan.fieldio import FieldFormatError, read_field, read_header, write_field
from regscan.grid import Box3, Cube, Cylinder, SpaceTimeField, VectorGrid
from regscan.localquant import AnalysisConfig, check_cylinder, quant_report
from regscan.lorentz import NormReport, weak_norm
from regscan.stokes import (BumpTestFunction, harmonic_residual, local_energy_residual,
                            pressure_parts, restrict_to_cube)
from regscan.synth import SolverConfig, run_solver


@pytest.fixture(scope="module")
def field_file(tmp_path_factory):
    """A smooth solenoidal 4-frame field on [0,1]^3, written to disk."""
    box = Box3((0, 0, 0), (1, 1, 1), (32, 32, 32))
    tp = 2 * np.pi
    base = VectorGrid.sample(box, lambda x, y, z: (
        np.sin(tp * x) * np.cos(tp * y),
        -np.cos(tp * x) * np.sin(tp * y),
        0.3 * np.ones_like(z))).data
    times = np.linspace(0.0, 0.15, 4)
    field = SpaceTimeField(tuple(times), [
        VectorGrid(box, (1.0 + 0.5 * t) * base) for t in times])
    path = tmp_path_factory.mktemp("cli") / "field.rsf"
    write_field(path, field)
    return str(path), field


def run_json(capsys, argv):
    rc = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_count_bound_document(capsys):
    doc = run_json(capsys, ["count-bound", "--M", "1.0", "--eps", "0.1"])
    assert doc["kind"] == "count-bound"
    assert doc["schema_version"] == 1
    assert doc["payload"]["bound"] == 10001000.0
    assert doc["payload"]["bound_int"] == 10001000
    man = doc["manifest"]
    assert man["command"] == "count-bound"
    assert man["config"]["M"] == 1.0 and man["config"]["eps"] == 0.1
    assert len(man["config_hash"]) == 64
    assert man["inputs"] == {} and man["outputs"] == []
    assert man["version"] == __version__
    assert man["wall_time_s"] >= 0.0


def test_count_bound_summary_lines(capsys):
    assert main(["count-bound", "--M", "1.0", "--eps", "0.1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "regscan count-bound"
    assert "  bound = 10001000.0" in out


def test_count_bound_rejects_bad_arguments(capsys):
    assert main(["count-bound", "--M", "-1.0", "--eps", "0.1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError"


@pytest.mark.parametrize("M", ["nan", "inf"])
def test_count_bound_rejects_non_finite_m(capsys, M):
    assert main(["count-bound", "--M", M, "--eps", "0.1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    err = json.loads(err[0])
    assert err["type"] == "ValueError"
    assert "M must be finite and nonnegative" in err["error"]


def test_every_command_releases_the_heap(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_malloc_trim", calls.append)
    assert main(["count-bound", "--M", "1.0", "--eps", "0.1"]) == 0
    assert main(["count-bound", "--M", "-1.0", "--eps", "0.1"]) == 1
    capsys.readouterr()
    assert calls == [0, 0]


def test_config_hash_is_deterministic(capsys):
    a = run_json(capsys, ["count-bound", "--M", "2.0", "--eps", "0.2"])
    b = run_json(capsys, ["count-bound", "--M", "2.0", "--eps", "0.2"])
    assert a["manifest"]["config_hash"] == b["manifest"]["config_hash"]
    assert a["payload"] == b["payload"]


def test_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "cb.json"
    doc = run_json(capsys, ["count-bound", "--M", "1.0", "--eps", "0.1",
                            "--out", str(path)])
    assert json.loads(path.read_text()) == doc
    assert doc["manifest"]["outputs"] == [str(path)]


def test_norms_matches_library(capsys, field_file):
    path, field = field_file
    doc = run_json(capsys, ["norms", path, "--M", "auto"])
    payload = doc["payload"]
    mag = field.frames[-1].magnitude()
    assert payload["frame"] == 3
    assert payload["time"] == pytest.approx(0.15)
    assert payload["weak_norm"] == pytest.approx(weak_norm(mag, 3.0), rel=1e-12)
    assert payload["ratio_bound"] == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert set(payload["lp_norms"]) == {"2.0", "3.0", "6.0"}
    assert isinstance(payload["l4_interpolation"], dict)
    assert isinstance(payload["local_l2"], dict)
    assert doc["manifest"]["inputs"] == {
        path: hashlib.sha256(open(path, "rb").read()).hexdigest()}


def test_norms_auto_m_is_the_measured_weak_l3_norm(capsys, field_file):
    path, _ = field_file
    payload = run_json(capsys, ["norms", path, "--M", "auto"])["payload"]
    assert (payload["q"], payload["r"]) == (3.0, 2.0)
    for key in ("l4_interpolation", "local_l2"):
        check = payload[key]
        assert check["M"] == check["weak_norm_measured"] == payload["weak_norm"]
        assert check["hypothesis_ok"]


def test_norms_frame_selection(capsys, field_file):
    path, field = field_file
    doc = run_json(capsys, ["norms", path, "--frame", "0"])
    assert doc["payload"]["frame"] == 0
    assert doc["payload"]["time"] == 0.0
    mag = field.frames[0].magnitude()
    assert doc["payload"]["weak_norm"] == pytest.approx(
        weak_norm(mag, 3.0), rel=1e-12)
    by_time = run_json(capsys, ["norms", path, "--time", "0.05"])
    assert by_time["payload"]["frame"] == 1


def one_line_error(capsys, rc):
    """The command failed with exit 1 and one JSON error line on stderr."""
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    err = err.splitlines()
    assert len(err) == 1
    return json.loads(err[0])


def test_count_bound_with_a_huge_m_is_a_clean_error(capsys, tmp_path):
    # M ** 3 overflows a float; the library names M, not a bare errno 34
    out = tmp_path / "cb.json"
    err = one_line_error(capsys, main(["count-bound", "--M", "1e200", "--eps", "0.1",
                                       "--out", str(out)]))
    assert err == {"error": "M = 1e+200 overflows the count bound eps^-7 M^3 "
                            "+ eps^-3", "type": "ValueError"}
    assert not out.exists()


def test_norms_with_a_huge_m_is_a_clean_error(capsys, field_file, tmp_path):
    # M ** 3 in the interpolation checks overflows a float; the library names M
    out = tmp_path / "norms.json"
    err = one_line_error(capsys, main(["norms", field_file[0], "--M", "1e200",
                                       "--out", str(out)]))
    assert err == {"error": "M = 1e+200 overflows the L4 interpolation bound "
                            "4 M^3 H + 2 ||f||_6^6 H^-2", "type": "ValueError"}
    assert not out.exists()


@pytest.mark.parametrize("M", ["1e200", "1e120"])
def test_localize_with_a_huge_m_is_a_clean_error(capsys, field_file, tmp_path, M):
    # the count bound, and (M / height) ** 3 of the level-0 certificate,
    # overflow a float; localize checks the bound before any selection
    out = tmp_path / "localize.json"
    err = one_line_error(capsys, main(["localize", field_file[0], "--M", M, "--kmax", "0",
                                       "--on-underresolved", "warn", "--out", str(out)]))
    assert err == {"error": f"M = {float(M):g} overflows the count bound eps^-7 M^3 "
                            "+ eps^-3", "type": "ValueError"}
    assert not out.exists()


@pytest.mark.parametrize("argv,error", [
    (["norms", "FIELD", "--M", "5e102"],
     "M = 5e+102 overflows the L4 interpolation bound 4 M^3 H + 2 ||f||_6^6 H^-2"),
    (["localize", "FIELD", "--M", "1e101", "--kmax", "0"],
     "M = 1e+101 overflows the count bound eps^-7 M^3 + eps^-3"),
], ids=["norms", "localize"])
def test_a_bound_that_overflows_to_infinity_is_a_clean_error(capsys, field_file,
                                                             argv, error):
    # no exception on the way: 4 M^3 and M^3 eps^-7 round to inf, which the
    # interpolation check and count_bound catch
    err = one_line_error(capsys, main([field_file[0] if a == "FIELD" else a for a in argv]))
    assert err == {"error": error, "type": "ValueError"}


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which strict JSON has no words for."""
    def refuse(name):
        raise ValueError(f"report holds {name}")
    return json.loads(text, parse_constant=refuse)


def test_every_report_is_strict_json(capsys, field_file, tmp_path):
    path, _ = field_file
    (tmp_path / "run.json").write_text(json.dumps(
        {"n": 16, "nu": 0.05, "dt": 0.01, "t_end": 0.03, "save_every": 1}))
    runs = {
        "norms": ["norms", path, "--M", "auto"],
        "scan": ["scan", path, "--x0", "0.5,0.5,0.5", "--t0", "0.15", "--r", "0.35"],
        "localize": ["localize", path, "--kmax", "2"],
        "stokes": ["stokes-check", path, "--cube", "0.25,0.25,0.25,0.5"],
        "stokes-bump": ["stokes-check", path, "--cube", "0.25,0.25,0.25,0.5",
                        "--bump", "0.5,0.5,0.5,0.22,0.1,0.1"],
        "simulate": ["simulate", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "run.rsf"), "--report"],
        "count-bound": ["count-bound", "--M", "1.0", "--eps", "0.1"],
    }
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        if argv[-1] != "--report":
            argv.append("--out")
        assert main(argv + [str(out)]) == 0, name
        assert strict_json(out.read_text())["payload"], name
    capsys.readouterr()


@pytest.mark.parametrize("M", ["nan", "inf", "-1"])
def test_norms_rejects_non_finite_or_negative_m(capsys, field_file, M):
    path, _ = field_file
    err = one_line_error(capsys, main(["norms", path, "--M", M, "--json"]))
    assert err["type"] == "ValueError"
    assert "M must be finite and positive" in err["error"]


def test_norms_with_auto_m_on_a_zero_field(capsys, tmp_path):
    # the measured weak-L3 norm, and so M, is 0: both bounds hold trivially
    box = Box3((0, 0, 0), (1, 1, 1), (16, 16, 16))
    zero = VectorGrid(box, np.zeros((3, 16, 16, 16)))
    path = tmp_path / "zero.rsf"
    write_field(path, SpaceTimeField((0.0, 0.1), [zero, zero]))
    payload = run_json(capsys, ["norms", str(path), "--M", "auto"])["payload"]
    assert payload["weak_norm"] == 0.0
    for key, lhs in (("l4_interpolation", "lhs_l4_integral"),
                     ("local_l2", "lhs_l2_integral")):
        check = payload[key]
        assert check["M"] == 0.0 and check[lhs] == 0.0 and check["rhs_bound"] == 0.0
        assert check["hypothesis_ok"] is True and check["holds"] is True


@pytest.mark.parametrize("M", ["0", "0.0"])
def test_norms_rejects_zero_m_on_a_nonzero_field(capsys, field_file, M):
    err = one_line_error(capsys, main(["norms", field_file[0], "--M", M]))
    assert err == {"error": "M must be finite and positive, got 0.0",
                   "type": "ValueError"}


def test_norms_rejects_out_of_range_frame(capsys, field_file):
    path, _ = field_file
    assert main(["norms", path, "--frame", "7"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError"
    assert "out of range" in err["error"]


def test_scan_matches_library(capsys, field_file):
    path, field = field_file
    doc = run_json(capsys, ["scan", path, "--x0", "0.5,0.5,0.5",
                            "--t0", "0.15", "--r", "0.35"])
    direct = cli._jsonable(quant_report(
        field, Cylinder(center=(0.5, 0.5, 0.5), t0=0.15, r=0.35),
        AnalysisConfig(eps=0.1, zeta=1.0)))
    payload = doc["payload"]
    assert payload["q3"] == pytest.approx(direct["q3"], rel=1e-12)
    assert payload["q3_small"] == direct["q3_small"]
    assert payload["energy_sup"] == pytest.approx(direct["energy_sup"], rel=1e-12)


def test_localize_payload(capsys, field_file):
    path, _ = field_file
    doc = run_json(capsys, ["localize", path, "--eps", "0.1", "--kmax", "2"])
    payload = doc["payload"]
    assert payload["frame"] == 3
    assert payload["k_max"] == 2
    assert payload["n_clusters"] >= 1
    assert payload["regular"] is False
    assert payload["bound"] == pytest.approx(
        count_bound(payload["M"], 0.1), rel=1e-12)
    assert len(payload["levels"]) <= 3
    assert payload["M"] == payload["weak_norm_measured"]
    assert payload["hypothesis_ok"] is True


def test_localize_payload_carries_each_candidates_chain(capsys, field_file):
    path, field = field_file
    payload = run_json(capsys, ["localize", path, "--eps", "0.1", "--kmax", "2"])[
        "payload"]
    chains, sizes = payload["chains"], payload["cluster_sizes"]
    assert len(chains) == len(sizes) == payload["n_clusters"] >= 1
    assert sum(sizes) == payload["survivors_per_level"][-1]
    # each level's cube lies in the one above: 2a <= b <= 2a + floor(1/eps)
    for chain in chains:
        assert len(chain) == payload["k_max"] + 1
        for a, b in zip(chain, chain[1:]):
            assert all(2 * x <= y <= 2 * x + 10 for x, y in zip(a, b))
    cs = localize(field.frames[3], AnalysisConfig(eps=0.1), 2)
    assert [chain[-1] for chain in chains] == [cl[0].tolist() for cl in cs.clusters]
    assert sizes == [len(cl) for cl in cs.clusters]


def test_localize_flags_m_below_measured_norm(capsys, field_file):
    path, field = field_file
    doc = run_json(capsys, ["localize", path, "--eps", "0.1", "--kmax", "0",
                            "--M", "0.0001"])
    payload = doc["payload"]
    assert payload["M"] == 0.0001
    assert payload["weak_norm_measured"] == pytest.approx(
        weak_norm(field.frames[3].magnitude(), 3.0), rel=1e-12)
    assert payload["hypothesis_ok"] is False


def test_localize_count_overflow_is_a_clean_error(capsys, field_file, monkeypatch):
    import regscan.dyadic

    monkeypatch.setattr(regscan.dyadic, "count_bound", lambda M, eps: -1.0)
    path, _ = field_file
    rc = main(["localize", path, "--eps", "0.1", "--kmax", "0"])
    err = json.loads(capsys.readouterr().err)
    assert rc == 1
    assert err["type"] == "CountBoundError"
    assert "exceeds bound -1.0" in err["error"]


@pytest.mark.parametrize("eps", ["0.26", "0", "-1", "nan"])
def test_localize_rejects_bad_eps_up_front(capsys, field_file, monkeypatch, eps):
    import regscan.dyadic

    def no_selection(*args, **kwargs):
        raise AssertionError("selection ran before eps was checked")

    monkeypatch.setattr(regscan.dyadic, "select_f0", no_selection)
    path, _ = field_file
    err = one_line_error(capsys, main(["localize", path, "--eps", eps,
                                       "--kmax", "0"]))
    assert err["type"] == "ValueError"
    assert "eps must lie in (0, 1/4)" in err["error"]


@pytest.mark.parametrize("M", ["nan", "inf", "-1"])
def test_localize_rejects_bad_m_up_front(capsys, field_file, monkeypatch, M):
    import regscan.dyadic

    def no_selection(*args, **kwargs):
        raise AssertionError("selection ran before M was checked")

    monkeypatch.setattr(regscan.dyadic, "select_f0", no_selection)
    path, _ = field_file
    err = one_line_error(capsys, main(["localize", path, "--eps", "0.1",
                                       "--kmax", "0", "--M", M]))
    assert err["type"] == "ValueError"
    assert "M must be finite and nonnegative" in err["error"]


@pytest.mark.parametrize("kmax", ["6", "1000000000"])
def test_localize_rejects_cubes_narrower_than_a_cell(capsys, field_file,
                                                      monkeypatch, kmax):
    import regscan.dyadic

    def no_selection(*args, **kwargs):
        raise AssertionError("selection ran before k_max was checked")

    monkeypatch.setattr(regscan.dyadic, "select_f0", no_selection)
    path, _ = field_file
    # 32 cells per unit side: level 5 cubes are one cell wide, level 6 half
    err = one_line_error(capsys, main(["localize", path, "--kmax", kmax,
                                       "--on-underresolved", "warn"]))
    assert err["type"] == "ValueError"
    assert f"k_max {kmax} makes cubes narrower than a cell" in err["error"]


@pytest.mark.parametrize("argv, expected", [
    (["norms", "FIELD", "--time", "nan"], "time must be finite"),
    (["norms", "FIELD", "--time", "inf"], "time must be finite"),
    (["scan", "FIELD", "--x0", "0.5,0.5,0.5", "--t0", "nan", "--r", "0.35"],
     "cylinder t0 must be finite"),
    (["scan", "FIELD", "--x0", "0.5,0.5,0.5", "--t0", "0.15", "--r", "nan"],
     "cylinder r must be finite"),
    (["stokes-check", "FIELD", "--cube", "0,0,0,nan"], "cube side must be finite"),
    (["scan", "FIELD", "--x0", "0.5,0.5,0.5", "--t0", "0.15", "--r", "0.35",
      "--zeta", "nan"], "zeta must be finite and positive"),
    (["scan", "FIELD", "--x0", "0.5,0.5,0.5", "--t0", "0.15", "--r", "0.35",
      "--zeta", "inf"], "zeta must be finite and positive"),
], ids=["norms-time-nan", "norms-time-inf", "scan-t0-nan", "scan-r-nan",
        "stokes-cube-nan", "scan-zeta-nan", "scan-zeta-inf"])
def test_non_finite_arguments_are_clean_errors(capsys, field_file, argv, expected):
    path, _ = field_file
    rc = main([path if a == "FIELD" else a for a in argv])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    err = err.splitlines()
    assert len(err) == 1
    err = json.loads(err[0])
    assert err["type"] == "ValueError"
    assert expected in err["error"]


def test_stokes_check_payload(capsys, field_file):
    path, _ = field_file
    doc = run_json(capsys, [
        "stokes-check", path, "--cube", "0.25,0.25,0.25,0.5",
        "--bump", "0.5,0.5,0.5,0.22,0.1,0.1"])
    payload = doc["payload"]
    assert payload["cube"] == {"corner": [0.25, 0.25, 0.25], "side": 0.5}
    assert set(payload["iterations"]) == {"ph", "p1", "p2"}
    assert payload["projection_residual"] <= 1e-4
    assert payload["harmonic_residual"] >= 0.0
    assert payload["gradp_over_f"] > 0.0
    assert {"lhs", "rhs", "slack_relative"} <= set(payload["energy"])


def test_stokes_check_energy_at_the_given_viscosity(capsys, field_file):
    path, field = field_file
    doc = run_json(capsys, [
        "stokes-check", path, "--cube", "0.25,0.25,0.25,0.5",
        "--bump", "0.5,0.5,0.5,0.22,0.1,0.1", "--nu", "0.05"])
    assert doc["manifest"]["config"]["nu"] == 0.05
    ref = local_energy_residual(field, Cube((0.25, 0.25, 0.25), 0.5),
                                BumpTestFunction((0.5, 0.5, 0.5), 0.22, 0.1, 0.1),
                                nu=0.05)
    assert doc["payload"]["energy"] == json.loads(json.dumps(ref))


def test_stokes_check_bump_solves_each_frame_once(capsys, field_file, monkeypatch):
    # frames 1 to 3 lie in the bump's time support; frame 3, the projection's,
    # is solved once for both blocks of the payload
    import regscan.stokes

    path, field = field_file
    calls = []
    solve = regscan.stokes.pressure_parts

    def counted(u):
        calls.append(u.box)
        return solve(u)

    monkeypatch.setattr(regscan.stokes, "pressure_parts", counted)
    monkeypatch.setattr(cli, "pressure_parts", counted)
    doc = run_json(capsys, [
        "stokes-check", path, "--cube", "0.25,0.25,0.25,0.5",
        "--bump", "0.5,0.5,0.5,0.22,0.1,0.1"])
    assert len(calls) == 3
    ref = local_energy_residual(field, Cube((0.25, 0.25, 0.25), 0.5),
                                BumpTestFunction((0.5, 0.5, 0.5), 0.22, 0.1, 0.1))
    assert (json.dumps(doc["payload"]["energy"], sort_keys=True)
            == json.dumps(ref, sort_keys=True))


@pytest.mark.parametrize("nu", ["0", "-0.05", "nan", "inf"])
def test_stokes_check_rejects_bad_viscosity(capsys, field_file, nu):
    path, _ = field_file
    err = one_line_error(capsys, main([
        "stokes-check", path, "--cube", "0.25,0.25,0.25,0.5",
        "--bump", "0.5,0.5,0.5,0.22,0.1,0.1", "--nu", nu]))
    assert err["type"] == "ValueError"
    assert "--nu must be finite and positive" in err["error"]


def test_stokes_check_rejects_a_bump_off_every_frame(capsys, field_file):
    path, _ = field_file
    # time support (0.4, 0.6); the frames run from 0 to 0.15
    err = one_line_error(capsys, main([
        "stokes-check", path, "--cube", "0.25,0.25,0.25,0.5",
        "--bump", "0.5,0.5,0.5,0.22,0.5,0.1"]))
    assert err["type"] == "ValueError"
    assert "holds no frame up to s=0.15" in err["error"]


@pytest.mark.parametrize("bump, expected", [
    ("0.3,0.5,0.5,0.22,0.1,0.1", "test function support leaves the analysis cube"),
    ("0.5,0.5,0.5,0.22,0.5,0.1", "holds no frame up to s=0.15"),
], ids=["off-cube", "off-frame"])
def test_stokes_check_rejects_a_bad_bump_before_solving(capsys, field_file,
                                                         monkeypatch, bump,
                                                         expected):
    import regscan.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("pressure solve before the bump check")

    monkeypatch.setattr(regscan.cli, "pressure_parts", no_solve)
    path, _ = field_file
    err = one_line_error(capsys, main([
        "stokes-check", path, "--cube", "0.25,0.25,0.25,0.5", "--bump", bump]))
    assert err["type"] == "ValueError"
    assert expected in err["error"]


@pytest.mark.parametrize("cube", ["-1,-1,-1,5", "-0.25,0.25,0.25,0.75",
                                  "0.25,0.25,0.5,0.75"])
def test_stokes_check_rejects_a_cube_leaving_the_field(capsys, field_file, cube):
    path, _ = field_file
    # argparse reads a value that starts with '-' as an option unless joined by '='
    err = one_line_error(capsys, main(["stokes-check", path, f"--cube={cube}"]))
    assert err["type"] == "ValueError"
    assert "leaves the field's box (0.0, 0.0, 0.0) to (1.0, 1.0, 1.0)" in err["error"]


@pytest.mark.parametrize("bump, expected", [
    ("0.5,0.5,0.5,nan,0.1,0.1", "test function radius must be finite"),
    ("0.5,0.5,0.5,0.22,inf,0.1", "test function t_center must be finite"),
    ("0.5,0.5,0.5,-1,0.1,0.1", "radius and t_radius must be positive"),
    ("0.5,0.5,0.5,0.22,0.1,0", "radius and t_radius must be positive"),
], ids=["radius-nan", "t_center-inf", "radius-negative", "t_radius-zero"])
def test_stokes_check_rejects_bad_bump_before_reading(capsys, tmp_path, bump,
                                                       expected):
    # the field path does not exist: the bump is checked before it is read
    err = one_line_error(capsys, main([
        "stokes-check", str(tmp_path / "missing.rsf"), "--cube", "0.25,0.25,0.25,0.5",
        "--bump", bump]))
    assert err["type"] == "ValueError"
    assert expected in err["error"]


@pytest.fixture()
def decoded(monkeypatch):
    """The number of frames each cli.read_field call of a test decodes."""
    counts = []
    read = cli.read_field

    def spy(*args, **kwargs):
        field = read(*args, **kwargs)
        counts.append(len(field.frames))
        return field

    monkeypatch.setattr(cli, "read_field", spy)
    return counts


CUBE = ["--cube", "0.25,0.25,0.25,0.5"]


@pytest.mark.parametrize("argv, frames", [
    (["norms", "FIELD", "--M", "auto"], 1),
    (["localize", "FIELD", "--eps", "0.1", "--kmax", "2"], 1),
    (["stokes-check", "FIELD", *CUBE, "--frame", "1"], 1),
    (["scan", "FIELD", "--x0", "0.5,0.5,0.5", "--t0", "0.15", "--r", "0.35"], 4),
    (["stokes-check", "FIELD", *CUBE, "--bump", "0.5,0.5,0.5,0.22,0.1,0.1"], 4),
], ids=["norms", "localize", "stokes-check", "scan", "stokes-check-bump"])
def test_commands_decode_only_the_frames_they_use(capsys, field_file, decoded,
                                                  argv, frames):
    path, _ = field_file
    run_json(capsys, [path if a == "FIELD" else a for a in argv])
    assert decoded == [frames]


def test_one_frame_payload_keeps_the_file_index(capsys, field_file):
    path, field = field_file
    payload = run_json(capsys, ["stokes-check", path, *CUBE, "--time", "0.05"])["payload"]
    assert (payload["frame"], payload["time"]) == (1, field.times[1])
    u = restrict_to_cube(field.frames[1], Cube((0.25, 0.25, 0.25), 0.5))
    assert payload["harmonic_residual"] == harmonic_residual(
        pressure_parts(u).solutions["ph"], u)


@pytest.mark.parametrize("argv, expected", [
    (["norms", "FIELD", "--frame", "7"], "frame 7 out of range"),
    (["norms", "FIELD", "--time", "nan"], "time must be finite"),
    (["stokes-check", "FIELD", *CUBE, "--frame", "4"], "frame 4 out of range"),
    (["stokes-check", "FIELD", *CUBE, "--bump", "0.5,0.5,0.5,0.22,0.12,0.01"],
     "time support (0.11, 0.13) holds no frame up to s=0.15"),
], ids=["norms-frame", "norms-time", "stokes-frame", "stokes-bump-no-frame"])
def test_frame_errors_come_before_any_frame_is_decoded(capsys, field_file, decoded,
                                                       argv, expected):
    path, _ = field_file
    err = one_line_error(capsys, main([path if a == "FIELD" else a for a in argv]))
    assert err["type"] == "ValueError"
    assert expected in err["error"]
    assert decoded == []


@pytest.mark.parametrize("x0, t0, r, expected", [
    ("0.5,0.5,0.5", 0.15, 0.1, "inner cylinder under-resolved"),
    ("0.5,0.5,0.5", 0.15, 0.5, "time window exceeds the sampled range"),
    ("5,5,5", 0.15, 0.2, "empty region"),
    # the window (0.1031, 0.12] falls between the frames at 0.10 and 0.15
    ("0.5,0.5,0.5", 0.12, 0.13, "no frames inside the cylinder time window"),
], ids=["under-resolved", "time-range", "empty-ball", "empty-window"])
def test_scan_cylinder_errors_come_before_any_frame_is_decoded(
        capsys, field_file, decoded, monkeypatch, x0, t0, r, expected):
    import regscan.localquant

    def no_quantity(*args, **kwargs):
        raise AssertionError("a quantity ran before the cylinder was checked")

    monkeypatch.setattr(regscan.localquant, "q3", no_quantity)
    path, field = field_file
    cyl = Cylinder(center=tuple(float(v) for v in x0.split(",")), t0=t0, r=r)
    # the library checks the cylinder first too, before any frame pick warns
    with pytest.raises(ValueError, match=expected) as library, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        quant_report(field, cyl, AnalysisConfig(eps=0.1))
    err = one_line_error(capsys, main(["scan", path, "--x0", x0, "--t0", str(t0),
                                       "--r", str(r)]))
    assert err == {"error": str(library.value), "type": "ValueError"}
    assert decoded == []


def run_regscan(field_file, *argv):
    """regscan in a fresh interpreter, whose warnings reach stderr as in a shell."""
    path, _ = field_file
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONWARNINGS="default", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-m", "regscan.cli", *(path if a == "FIELD" else a for a in argv)],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv, expected, warned", [
    (["scan", "FIELD", "--x0", "0.5,0.5,0.5", "--t0", "0.12", "--r", "0.13"],
     "no frames inside the cylinder time window", False),
    (["stokes-check", "FIELD", "--time", "0.12", "--cube", "0.25,0.25,0.25,5"],
     "leaves the field's box", True),
], ids=["scan-empty-window", "stokes-check-after-a-warning"])
def test_a_failing_command_prints_one_json_line(field_file, argv, expected, warned):
    proc = run_regscan(field_file, *argv)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    err = json.loads(lines[0])
    assert err["type"] == "ValueError" and expected in err["error"]
    if warned:   # the warning raised before the failure is inside the error
        assert len(err["warnings"]) == 1
        assert "time 0.12 is not a sample time" in err["warnings"][0]
    else:
        assert "warnings" not in err


def test_a_successful_command_keeps_its_warnings(capsys, field_file):
    proc = run_regscan(field_file, "norms", "FIELD", "--time", "0.12")
    assert proc.returncode == 0 and proc.stdout.startswith("regscan norms")
    assert "UserWarning: time 0.12 is not a sample time" in proc.stderr
    with pytest.warns(UserWarning, match="time 0.12 is not a sample time"):
        assert run_json(capsys, ["norms", field_file[0], "--time", "0.12"])[
            "payload"]["frame"] == 2


@pytest.fixture(scope="module")
def box24_file(tmp_path_factory):
    """A short Taylor-Green run on 24^3 cells of the 2*pi box, written to disk."""
    run = run_solver(SolverConfig(n=24, dt=0.02, t_end=0.04, save_every=1))
    path = tmp_path_factory.mktemp("box24") / "run.rsf"
    write_field(path, run.field)
    return str(path), run.field


def test_stokes_check_names_a_cube_that_snaps_to_unequal_counts(capsys, box24_file,
                                                                decoded):
    path, _ = box24_file
    err = one_line_error(capsys, main(["stokes-check", path,
                                       "--cube", "0.8,0.9,0.7,4.5"]))
    assert err["type"] == "ValueError"
    assert err["error"].startswith("--cube: ")
    assert "(17, 18, 17) cells per axis" in err["error"]
    assert decoded == []


def test_stokes_check_keeps_a_cube_that_snaps_to_equal_counts(capsys, box24_file):
    path, field = box24_file
    payload = run_json(capsys, ["stokes-check", path,
                                "--cube", "0.8,0.8,0.8,4.5"])["payload"]
    u = restrict_to_cube(field.frames[-1], Cube((0.8, 0.8, 0.8), 4.5))
    assert u.box.n == (17, 17, 17)
    # the payload names the snapped cube next to the request
    h = 2 * np.pi / 24
    assert payload["cube"] == {"corner": [0.8, 0.8, 0.8], "side": 4.5}
    analysed = payload["cube_analysed"]
    assert analysed["cells"] == [17, 17, 17]
    assert analysed["corner"] == pytest.approx([3 * h] * 3, rel=1e-12)
    assert analysed["side"] == pytest.approx(17 * h, rel=1e-12)
    parts = pressure_parts(u)
    assert payload["iterations"] == {k: v.iterations for k, v in parts.solutions.items()}
    assert payload["harmonic_residual"] == harmonic_residual(parts.solutions["ph"], u)


@pytest.mark.parametrize("cube", ["0.25,0.25,0.5", "0.25,0.25,0.25,0.5,0.9",
                                  "a,b,c,d"])
def test_stokes_check_rejects_malformed_cube(capsys, field_file, cube):
    path, _ = field_file
    err = one_line_error(capsys, main(["stokes-check", path, "--cube", cube]))
    assert err["type"] == "ArgumentError"
    assert "--cube" in err["error"]


@pytest.mark.parametrize("bump", ["0.5,0.5,0.5,0.22,0.1",
                                  "0.5,0.5,0.5,0.22,0.1,0.1,0.3",
                                  "0.5,0.5,0.5,R,0.1,0.1"])
def test_stokes_check_rejects_malformed_bump(capsys, field_file, bump):
    path, _ = field_file
    err = one_line_error(capsys, main([
        "stokes-check", path, "--cube", "0.25,0.25,0.25,0.5", "--bump", bump]))
    assert err["type"] == "ArgumentError"
    assert "--bump" in err["error"]


@pytest.mark.parametrize("argv, expected", [
    (["bogus"], "invalid choice: 'bogus'"),
    (["stokes-check", "FIELD"], "required: --cube"),
    (["norms", "FIELD", "--frame", "x"], "argument --frame: invalid int value"),
    (["localize", "FIELD", "--kmax", "x"], "argument --kmax: invalid int value"),
    (["norms", "FIELD", "--frame", "0", "--time", "0"],
     "argument --time: not allowed with argument --frame"),
    (["norms", "FIELD", "--q", "2"], "unrecognized arguments: --q 2"),
], ids=["unknown-command", "missing-cube", "frame-not-int", "kmax-not-int",
        "frame-and-time", "unrecognized-q"])
def test_argument_errors_are_clean_errors(capsys, field_file, argv, expected):
    path, _ = field_file
    err = one_line_error(capsys, main([path if a == "FIELD" else a for a in argv]))
    assert err["type"] == "ArgumentError"
    assert expected in err["error"]


def test_simulate_writes_field_and_report(capsys, tmp_path):
    cfg = {"n": 16, "nu": 0.05, "dt": 0.01, "t_end": 0.05, "save_every": 1}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run.rsf"
    rep = tmp_path / "run-report.json"
    doc = run_json(capsys, ["simulate", "--config", str(cfg_path),
                            "--out", str(out), "--report", str(rep)])
    payload = doc["payload"]
    assert payload["frames"] == 6
    assert payload["energy_final"] < payload["energy_initial"]
    assert payload["max_cfl"] < 0.5
    assert payload["field_sha256"] == hashlib.sha256(
        out.read_bytes()).hexdigest()
    field = read_field(out)
    assert len(field.frames) == 6
    assert np.allclose(field.times, np.arange(6) * 0.01)
    assert json.loads(rep.read_text()) == doc
    assert str(cfg_path) in doc["manifest"]["inputs"]


def test_simulate_rejects_bad_config(capsys, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"n": 4, "nu": 0.1, "dt": 0.01,
                                    "t_end": 0.05}))
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "x.rsf")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError"


@pytest.mark.parametrize("cfg, expected", [
    ({"n": 16, "t_end": 0.05, "banana": 3}, "unknown config keys: banana"),
    ({"n": "sixteen", "t_end": 0.05}, "invalid config"),
    ({"n": 16, "t_end": 0.05, "initial": 5}, "unknown initial profile 5"),
    ({"n": 16, "t_end": 0.05, "seed": "x"}, "seed must be an integer"),
    ({"n": 16, "t_end": 0.05, "save_every": "x"}, "save_every must be None or"),
    ({"n": 16, "t_end": 0.05, "save_every": 0}, "save_every must be None or"),
    ({"n": 16, "t_end": 0.05, "save_every": -1}, "save_every must be None or"),
    ({"n": 16, "t_end": 0.05, "save_every": 1.5}, "save_every must be None or"),
    ({"n": 16, "t_end": 0.05, "initial": "tg"}, "unknown initial profile 'tg'"),
    ({"n": 16, "t_end": 0.05, "initial": "Random"}, "unknown initial profile 'Random'"),
    ({"n": 16, "t_end": 0.05, "initial": "random_x"},
     "unknown initial profile 'random_x'"),
    ({"n": float("inf"), "t_end": 0.05}, "n must be an integer >= 8, got inf"),
    ({"n": True, "t_end": 0.05}, "n must be an integer >= 8, got True"),
    ({"n": 16, "dt": 0.5, "t_end": 0.2}, "t_end / dt = 0.4 rounds to 0 steps"),
    ([1], "invalid config: expected a JSON object, got [1]"),
    (5, "invalid config: expected a JSON object, got 5"),
    (None, "invalid config: expected a JSON object, got None"),
    ({"n": 8, "dt": 5e-324, "t_end": 1.0}, "t_end / dt = inf exceeds 1000000 steps"),
    ({"n": 8, "dt": 1e-300, "t_end": 0.1}, "exceeds 1000000 steps"),
    ({"n": 16, "t_end": 0.05, "seed": True}, "seed must be an integer, got True"),
])
def test_simulate_rejects_malformed_config(capsys, tmp_path, monkeypatch, cfg,
                                           expected):
    import regscan.cli

    def no_run(cfg):
        raise AssertionError("the solver ran before the config was checked")

    monkeypatch.setattr(regscan.cli, "run_solver", no_run)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "x.rsf")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError"
    assert expected in err["error"]


@pytest.mark.parametrize("key, value", [
    ("t_end", "Infinity"), ("dt", "Infinity"), ("dt", "NaN"), ("nu", "NaN"),
    ("nu", "-Infinity"), ("amplitude", "Infinity"), ("amplitude", "NaN"),
])
def test_simulate_rejects_non_finite_config_up_front(capsys, tmp_path,
                                                     monkeypatch, key, value):
    import regscan.cli

    def no_run(cfg):
        raise AssertionError("the solver ran before the config was checked")

    monkeypatch.setattr(regscan.cli, "run_solver", no_run)
    cfg_path = tmp_path / "bad.json"
    # json.load reads the bare Infinity and NaN tokens as floats
    cfg_path.write_text(f'{{"n": 8, "{key}": {value}}}')
    err = one_line_error(capsys, main(["simulate", "--config", str(cfg_path),
                                       "--out", str(tmp_path / "x.rsf")]))
    assert err["type"] == "ValueError"
    assert "nu, dt, t_end and amplitude must be finite" in err["error"]
    assert not (tmp_path / "x.rsf").exists()


def test_report_summarizes_saved_documents(capsys, tmp_path):
    path = tmp_path / "cb.json"
    run_json(capsys, ["count-bound", "--M", "1.0", "--eps", "0.1",
                      "--out", str(path)])
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "kind=count-bound" in out
    assert "bound = 10001000.0" in out


def test_report_rejects_unknown_schema(capsys, tmp_path):
    path = tmp_path / "stale.json"
    path.write_text(json.dumps({"kind": "norms", "schema_version": 99,
                                "payload": {}}))
    assert main(["report", str(path)]) == 1
    captured = capsys.readouterr()
    assert "unsupported schema 99" in captured.out
    assert json.loads(captured.err)["type"] == "ValueError"


def test_report_prints_a_non_string_config_hash(capsys, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"schema_version": 1, "manifest": {"config_hash": 5}}))
    assert main(["report", str(path)]) == 0
    assert "config=5" in capsys.readouterr().out


@pytest.mark.parametrize("doc, expected", [
    ([1, 2], "a report must be a JSON object"),
    ({"schema_version": 1, "payload": [1]}, "manifest and payload must be JSON objects"),
    ({"schema_version": 1, "manifest": "x"}, "manifest and payload must be JSON objects"),
])
def test_report_rejects_non_object_json(capsys, tmp_path, doc, expected):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    err = one_line_error(capsys, main(["report", str(path)]))
    assert err["type"] == "ValueError"
    assert expected in err["error"]


def test_missing_input_file_is_a_clean_error(capsys, tmp_path):
    assert main(["norms", str(tmp_path / "absent.rsf")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert "absent.rsf" in err["error"]


def test_unwritable_out_path_is_a_clean_error(capsys, tmp_path, field_file):
    path, _ = field_file
    target = tmp_path / "missing-dir" / "report.json"
    assert main(["norms", path, "--out", str(target)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "FileNotFoundError"
    assert "missing-dir" in err["error"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_package_defines_only_its_version():
    import regscan
    assert regscan.__version__ == __version__
    assert not hasattr(regscan, "__all__")


@pytest.mark.parametrize("module", ["grid", "lorentz", "localquant", "dyadic",
                                    "stokes", "synth", "fieldio"])
def test_every_listed_name_resolves(module):
    # the traced benchmark wraps every name of each module's __all__
    mod = importlib.import_module(f"regscan.{module}")
    assert mod.__all__
    for name in mod.__all__:
        assert hasattr(mod, name), f"regscan.{module}.{name}"


def test_norms_sorts_the_magnitudes_once(capsys, field_file, monkeypatch):
    import regscan.lorentz

    sorts = []
    sorted_abs = regscan.lorentz._sorted_abs
    monkeypatch.setattr(regscan.lorentz, "_sorted_abs",
                        lambda f: sorts.append(f) or sorted_abs(f))
    payload = run_json(capsys, ["norms", field_file[0], "--M", "auto"])["payload"]
    assert len(sorts) == 1     # the checks take the measured weak norm in
    for key in ("l4_interpolation", "local_l2"):
        assert payload[key]["weak_norm_measured"] == payload["weak_norm"]


def simulate(tmp_path, cfg, *extra):
    """main() on simulate with cfg as the config, writing tmp_path/run.rsf."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run.rsf")]
    return main([*argv, *extra])


@pytest.mark.parametrize("cfg", [
    {"n": 16, "nu": 0.02, "dt": 0.01, "t_end": 0.05, "initial": "random", "seed": 4,
     "save_every": 1},
    # 7 steps saved every 3: the last step is off the schedule
    {"n": 15, "nu": 0.05, "dt": 0.01, "t_end": 0.07, "save_every": 3},
    # save_every None: every second step of 20
    {"n": 12, "nu": 0.05, "dt": 0.01, "t_end": 0.2},
], ids=["random-every-step", "taylor-green-odd-n", "default-schedule"])
def test_simulate_streams_the_file_write_field_writes(capsys, tmp_path, cfg):
    assert simulate(tmp_path, cfg, "--json") == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    write_field(tmp_path / "whole.rsf", run_solver(SolverConfig(**cfg)).field)
    out = tmp_path / "run.rsf"
    assert out.read_bytes() == (tmp_path / "whole.rsf").read_bytes()
    assert payload["frames"] == len(read_header(out)[1])
    assert sorted(os.listdir(tmp_path)) == ["run.json", "run.rsf", "whole.rsf"]


# CFL 0.513 at step 24, after the frames of steps 0 to 22 were written
CFL_TRIP = {"n": 16, "nu": 1e-4, "dt": 0.0125, "t_end": 0.5, "amplitude": 8.0,
            "initial": "random", "seed": 5, "save_every": 2}


@pytest.mark.parametrize("earlier", [None, b"an earlier run"], ids=["no-file", "a-file"])
def test_a_simulate_that_fails_mid_run_leaves_out_as_it_was(capsys, tmp_path,
                                                            monkeypatch, earlier):
    out = tmp_path / "run.rsf"
    if earlier is not None:
        out.write_bytes(earlier)
    written = []

    def run_and_look(cfg, save):     # the partial file as the solver gives up
        try:
            return run_solver(cfg, save=save)
        finally:
            written.append(os.path.getsize(f"{out}.part"))

    monkeypatch.setattr(cli, "run_solver", run_and_look)
    err = one_line_error(capsys, simulate(tmp_path, CFL_TRIP))
    assert err["type"] == "SolverError"
    assert err["error"].startswith("CFL ") and "exceeds 0.5 at step" in err["error"]
    assert written[0] > 12 * 3 * 16 ** 3 * 8     # mid-run: 12 frames were in
    if earlier is None:
        assert sorted(os.listdir(tmp_path)) == ["run.json"]
    else:
        assert sorted(os.listdir(tmp_path)) == ["run.json", "run.rsf"]
        assert out.read_bytes() == earlier


@pytest.fixture(scope="module")
def random_file(tmp_path_factory):
    """A seeded random field on the 24^3 cells of [0, 1]^3 at 7 times, on disk."""
    box = Box3((0, 0, 0), (1, 1, 1), (24, 24, 24))
    rng = np.random.default_rng(31)
    times = np.linspace(0.0, 0.3, 7)
    field = SpaceTimeField(times, [VectorGrid(box, rng.normal(size=(3, *box.n)))
                                   for _ in times])
    path = tmp_path_factory.mktemp("random") / "random.rsf"
    write_field(path, field)
    return str(path), field


H24 = 1.0 / 24


@pytest.mark.parametrize("x0, t0, r", [
    ((0.5, 0.5, 0.5), 0.3, 0.25),               # window starts between frames
    ((0.05, 0.5, 0.5), 0.3, 0.25),              # crosses the x = 0 face
    ((0.02, 0.97, 0.03), 0.3, 0.3),             # at a corner
    ((-0.125 + 0.6 * H24, 0.5, 0.5), 0.3, 0.25),    # inner ball: a one-cell sliver
    ((-0.125 + 0.3 * H24, 0.5, 0.5), 0.3, 0.25),    # inner ball holds no cell
    ((0.4, 0.6, 0.5), 0.2, 0.26),               # frames 2 to 4 of 7
    ((0.6, 0.4, 0.5), 0.27, 0.3),               # t0 between frames
], ids=["interior", "face", "corner", "sliver", "inner-empty", "ends-early", "t0-off-frame"])
def test_scan_equals_the_whole_field_report(capsys, random_file, decoded, x0, t0, r):
    path, field = random_file
    cyl = Cylinder(x0, t0, r)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # t0 need not be a sample time
        payload = run_json(capsys, ["scan", path, "--x0=" + ",".join(map(repr, x0)),
                                    "--t0", repr(t0), "--r", repr(r)])["payload"]
        whole = quant_report(read_field(path), cyl, AnalysisConfig(eps=0.1))
    assert payload == json.loads(json.dumps(cli._jsonable(whole)))
    frames, window = check_cylinder(field.box, field.times, cyl)
    assert decoded == [len(frames)] and all(s.stop - s.start < 24 for s in window)


def with_a_nan(random_file, tmp_path, frame):
    """A copy of the random file with a NaN in component 2 of `frame` at the
    cell (16, 17, 1), the byte offset of the NaN, and read_field's error."""
    raw = open(random_file[0], "rb").read()
    cells = 24 ** 3
    bad_at = len(raw) - (7 - frame) * 3 * cells * 8 + (2 * cells + 1000) * 8
    bad = tmp_path / "bad.rsf"
    bad.write_bytes(raw[:bad_at] + np.array([np.nan], "<f8").tobytes() + raw[bad_at + 8:])
    with pytest.raises(FieldFormatError) as whole:
        read_field(bad)
    return str(bad), bad_at, str(whole.value)


@pytest.mark.parametrize("frame", [0, 6])
def test_scan_reports_a_nan_outside_its_frames(capsys, random_file, tmp_path, frame):
    bad, bad_at, error = with_a_nan(random_file, tmp_path, frame)
    # the cylinder reads frames 2 to 4 only
    err = one_line_error(capsys, main(["scan", bad, "--x0", "0.4,0.6,0.5",
                                       "--t0", "0.2", "--r", "0.26"]))
    assert err == {"error": error, "type": "FieldFormatError"}
    assert err["error"] == (f"format error at byte {bad_at}: non-finite value in "
                            f"frame {frame} component 2")


@pytest.mark.parametrize("frame", [0, 6])
def test_stokes_check_bump_reports_a_nan_outside_its_cube(capsys, random_file, tmp_path,
                                                          frame):
    bad, bad_at, error = with_a_nan(random_file, tmp_path, frame)
    # the cube holds the cells 3 to 20 of each axis, the NaN's cell has z index 1
    err = one_line_error(capsys, main(["stokes-check", bad,
                                       "--cube", "0.125,0.125,0.125,0.75",
                                       "--bump", "0.5,0.5,0.5,0.3,0.2,0.12"]))
    assert err == {"error": error, "type": "FieldFormatError"}
    assert err["error"] == (f"format error at byte {bad_at}: non-finite value in "
                            f"frame {frame} component 2")


PEAK_ABOVE_IMPORT = """
import sys
import regscan.cli

def peak():   # VmHWM: the high-water mark of this interpreter's resident memory
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except OSError:   # no procfs: the memory test is skipped
        return 0

before = peak()
rc = regscan.cli.main(sys.argv[1:])
print(rc, (peak() - before) / 1024, file=sys.stderr)
"""


def peak_above_import(cwd, *argv):
    """Exit code and peak resident memory (MB) above `import regscan.cli` of
    one command in a fresh interpreter. On Linux ru_maxrss also holds the
    peak of the process that started it (the kernel keeps the high-water
    mark across exec), which here is the test run's; VmHWM does not."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", PEAK_ABOVE_IMPORT, *argv], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=300)
    rc, mb = proc.stderr.split()[-2:]
    return int(rc), float(mb)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """The bench pipeline's run (n=48, 30 steps, 31 frames), written by
    `simulate` in a fresh interpreter; with that command's peak resident
    memory above the import, in MB."""
    cwd = tmp_path_factory.mktemp("pipeline")
    (cwd / "run.json").write_text(json.dumps({
        "n": 48, "nu": 0.02, "dt": 0.01, "t_end": 0.3, "save_every": 1,
        "initial": "random", "seed": 3, "amplitude": 0.5}))
    rc, mb = peak_above_import(cwd, "simulate", "--config", "run.json", "--out", "run.rsf")
    assert rc == 0
    return cwd, mb


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_simulate_and_scan_hold_frames_not_the_run(pipeline_run):
    # one frame is 2.65 MB and the run 82 MB; whole frames took 113 and 82 MB
    cwd, simulate_mb = pipeline_run
    assert len(read_header(cwd / "run.rsf")[1]) == 31
    assert simulate_mb <= 45
    rc, scan_mb = peak_above_import(cwd, "scan", "run.rsf", "--x0", "2.3,4.1,3.0",
                                   "--t0", "0.3", "--r", "0.54")
    assert rc == 0 and scan_mb <= 25


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_stokes_check_bump_holds_its_cube_not_the_run(pipeline_run):
    # the cube is 19^3 of the 48^3 cells; every whole frame took 85 MB
    rc, mb = peak_above_import(pipeline_run[0], "stokes-check", "run.rsf",
                               "--cube", "0.6,0.6,0.6,2.6",
                               "--bump", "1.9,1.9,1.9,0.6,0.15,0.13")
    assert rc == 0 and mb <= 25


@pytest.mark.parametrize("k", [0, 1, 30])
def test_norm_report_weak_norm_is_weak_norm_bit_for_bit(pipeline_run, k):
    mag = read_field(pipeline_run[0] / "run.rsf", frames=[k]).frames[0].magnitude()
    assert NormReport.from_scalar(mag).weak_norm == weak_norm(mag, 3.0)
