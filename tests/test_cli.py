import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import quintic_terms
from macontact import cli
from macontact.cli import dumps, find_nan, main
from macontact.contact import CHART_VARIABLES
from macontact.expr import MAX_EXPONENT

RUN = [sys.executable, "-m", "macontact.cli"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True)


# --- serialization helpers -----------------------------------------------------

def test_dumps_round_trips_floats():
    value = 0.123456789012345678
    parsed = json.loads(dumps({"v": value}))
    assert parsed["v"] == value


def test_dumps_is_plain_json():
    payload = {"a": [1, 2.5, "x", None, True], "b": {"c": -0.0}}
    assert json.loads(dumps(payload)) == payload


def test_find_nan_locates_bad_value():
    assert find_nan({"a": [1.0, {"b": float("nan")}]}) == "$.a[1].b"
    assert find_nan({"a": [1.0]}) is None


# --- classify ---------------------------------------------------------------------

def test_classify_laplace_default_grid():
    proc = run_cli("classify", "--N", "0", "--A", "1", "--B", "0",
                   "--C", "1", "--D", "0", "--grid", "default")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert len(data["cells"]) == 25
    assert all(cell["type"] == "elliptic" for cell in data["cells"])


def test_classify_parse_error_exit_code():
    proc = run_cli("classify", "--A", "1+")
    assert proc.returncode == 2
    assert b"offset" in proc.stderr


def test_classify_mixed_types_with_band_stripe():
    proc = run_cli("classify", "--A", "1", "--C", "u",
                   "--grid", "u=-1:1:11", "--band", "1.0")
    assert proc.returncode == 0
    types = {cell["type"] for cell in json.loads(proc.stdout)["cells"]}
    assert types == {"elliptic", "hyperbolic", "parabolic", "band"}


def test_classify_eval_failures_exit_numeric():
    proc = run_cli("classify", "--A", "ln(u)", "--C", "1",
                   "--grid", "u=-1:-0.1:5", "--max-error-fraction", "0.5")
    assert proc.returncode == 3


def test_classify_csv_format():
    proc = run_cli("classify", "--A", "1", "--C", "1",
                   "--grid", "x1=0:1:2", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.decode().strip().splitlines()
    assert lines[0] == "index,delta,type,error"
    assert len(lines) == 3


# --- verify ------------------------------------------------------------------------

def test_verify_harmonic_solution():
    proc = run_cli("verify", "--A", "1", "--C", "1", "--f", "x1^2 - x2^2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["passed"] is True
    assert data["max_residual"] <= 1e-9
    assert data["max_defect"] <= 1e-8


def test_verify_nonsolution_exits_one():
    proc = run_cli("verify", "--A", "1", "--C", "1", "--f", "x1^2")
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["max_residual"] == 2.0
    assert data["max_defect"] == pytest.approx(4.0)


def test_verify_det_fixture():
    proc = run_cli("verify", "--N", "1", "--D", "1", "--f", "x1*x2")
    assert proc.returncode == 0


def test_verify_overflow_is_numeric_exit():
    proc = run_cli("verify", "--A", "1", "--C", "1", "--f", "x1^-9",
                   "--range", "1e-300", "--samples", "3")
    assert proc.returncode == 3


# --- bend / contact / selfadjoint -----------------------------------------------------

def test_bend_fixture_output():
    proc = run_cli("bend", "--k", "2", "--q1", "x^2", "--q2", "x*y")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["is_bend"] is True
    assert data["kind"] == "zero"
    assert data["matrix"] == [0, 3, 0, 0]


def test_bend_rejects_inhomogeneous_input():
    proc = run_cli("bend", "--k", "2", "--q1", "x^2 + x", "--q2", "x*y")
    assert proc.returncode == 2


def test_contact_fixture():
    proc = run_cli("contact", "--nu", "u", "--point", "0,0,1,0,0")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["components"] == [0, 0, 1, 0, 0]
    assert data["omega"] == 1.0


def test_selfadjoint_elliptic():
    matrix = "0,-2,0,0,2,0,0,0,0,0,0,2,0,0,-2,0"
    proc = run_cli("selfadjoint", "--matrix", matrix, "--space", "darboux")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["type"] == "elliptic"


def test_selfadjoint_rejects_non_self_adjoint():
    matrix = ",".join(str(float(v)) for v in range(16))
    proc = run_cli("selfadjoint", "--matrix", matrix)
    assert proc.returncode == 2


# --- rmanifold --------------------------------------------------------------------------

def test_rmanifold_singular_report():
    proc = run_cli("rmanifold", "--k", "2", "--l", "2", "--kind", "minus")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["unique_singular_point"] is True
    assert data["bend_angle"] <= 1e-8


def test_rmanifold_export(tmp_path):
    out = tmp_path / "cloud.csv"
    proc = run_cli("rmanifold", "--k", "2", "--l", "2", "--kind", "minus",
                   "--export", str(out), "--count", "5")
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6


_CLOUD = ["rmanifold", "--k", "2", "--l", "2", "--kind", "minus", "--count", "5"]


@pytest.mark.parametrize("out", ["c.csv", "./c.csv", "sub/../c.csv"])
def test_rmanifold_export_and_out_naming_one_file_exit_2_writing_nothing(out, tmp_path,
                                                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, stdout, err = _run_main(_CLOUD + ["--export", "c.csv", "--out", out], capsys)
    assert (code, stdout) == (2, "")
    assert err == "input error: --out and --export name the same file\n"
    assert not (tmp_path / "c.csv").exists()


def test_rmanifold_unwritable_out_leaves_no_cloud(tmp_path, capsys):
    cloud = tmp_path / "d.csv"
    code, stdout, err = _run_main(_CLOUD + ["--export", str(cloud),
                                            "--out", str(tmp_path / "missing" / "x.json")],
                                  capsys)
    assert (code, stdout) == (2, "") and err.startswith("output error: ")
    assert list(tmp_path.iterdir()) == []


def test_rmanifold_cloud_failing_with_exit_3_leaves_out_untouched(tmp_path, capsys):
    out = tmp_path / "x.json"
    out.write_text("kept\n")
    # s^2 overflows at a parameter near 1e200
    code, stdout, err = _run_main(["rmanifold", "--k", "3", "--l", "2", "--kind", "minus",
                                   "--export", str(tmp_path / "e.csv"), "--out", str(out),
                                   "--param-range", "1e200"], capsys)
    assert (code, stdout) == (3, "") and err.startswith("numeric error: non-finite point")
    assert out.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]


# --- determinism ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ("classify", "--A", "1", "--C", "u", "--grid", "u=-1:1:7"),
    ("verify", "--A", "1", "--C", "1", "--f", "x1^2 - x2^2", "--seed", "7"),
    ("bend", "--k", "3", "--q1", "x^3 - 3*x*y^2", "--q2", "3*x^2*y - y^3"),
    ("rmanifold", "--k", "2", "--l", "3", "--kind", "plus"),
])
def test_byte_identical_outputs(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "result.json"
    code = main(["classify", "--A", "1", "--C", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["cells"]


# --- regressions ---------------------------------------------------------------------------

def test_dumps_escapes_control_characters():
    text = "tab\there, newline\nthere, bell\x07, nul\x00, quote\" and \\"
    encoded = dumps({"s": text})
    assert json.loads(encoded) == {"s": text}
    assert all(ord(ch) >= 0x20 for ch in encoded)


def test_verify_echoes_tab_as_valid_json(capsys):
    f = "x1^2\t- x2^2"
    code = main(["verify", "--A", "1", "--C", "1", "--f", f, "--samples", "2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["solution"] == f


def test_dumps_rejects_non_finite_floats():
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            dumps({"a": [1.0, value]})


@pytest.mark.parametrize("argv", [
    ["verify", "--A", "1", "--C", "1", "--f", "x1*x2", "--samples", "0"],
    ["rmanifold", "--k", "2", "--l", "2", "--kind", "minus", "--samples", "0"],
])
def test_zero_samples_is_an_input_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--samples: must be at least 1" in capsys.readouterr().err


def test_rmanifold_rejects_samples_that_all_fall_in_the_null_cone(capsys):
    # for C+ with 4 samples every direction sits on |a| = |b|, so no rank check is left
    code = main(["rmanifold", "--k", "2", "--l", "2", "--kind", "plus", "--samples", "4"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "null-cone" in captured.err


def test_classify_non_finite_delta_marks_error_cells(capsys):
    code = main(["classify", "--A", "exp(700*x1)", "--B", "exp(700*x1)",
                 "--C", "exp(700*x1)", "--grid", "x1=0:1:5",
                 "--max-error-fraction", "0.5"])
    assert code == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    errors = [c for c in cells if "error" in c]
    assert [c["index"] for c in errors] == [[3], [4]]
    assert all(c["delta"] is None and c["type"] is None for c in errors)


def test_non_finite_output_names_its_path_and_writes_nothing(capsys):
    code = main(["contact", "--nu", "u*1e200*1e200"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite value at $.components[" in captured.err


def test_classify_sin_of_infinity_marks_error_cells(capsys):
    code = main(["classify", "--A", "1", "--C", "1", "--B", "sin(x1*1e308*10)",
                 "--grid", "x1=0:1:3", "--max-error-fraction", "1"])
    assert code == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert cells[0]["type"] == "elliptic"
    assert [c["error"] for c in cells[1:]] == ["sin of non-finite value inf"] * 2


def test_point_cloud_export_rejects_non_finite_rows(tmp_path, capsys):
    path = tmp_path / "cloud.csv"
    code = main(["rmanifold", "--k", "8", "--l", "5", "--kind", "minus",
                 "--export", str(path), "--count", "3", "--param-range", "1e10"])
    assert code == 3
    assert not path.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite point of the family" in captured.err


@pytest.mark.parametrize("argv", [
    ["bend", "--k", "2", "--q1", "x^2", "--q2", "x*y", "--format", "csv"],
    ["contact", "--nu", "u", "--seed", "1"],
    ["classify", "--A", "1", "--C", "1", "--tol", "1"],
    ["rmanifold", "--k", "2", "--l", "2", "--kind", "minus", "--report", "singular"],
    ["selfadjoint", "--matrix", ",".join(["1"] + ["0"] * 15), "--seed", "1"],
])
def test_flags_without_effect_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("own_tol, tol, code", [
    ("10", None, 0),
    ("0", "5", 0),  # passes only if --tol lifts both tolerances
    ("10", "1e-3", 1),
])
def test_verify_tol_sets_both_tolerances(own_tol, tol, code, capsys):
    # x1^2 misses the Laplace equation by E = 2; its invariance defect is 4
    argv = ["verify", "--A", "1", "--C", "1", "--f", "x1^2", "--samples", "2"]
    own = ["--residual-tol", own_tol, "--defect-tol", own_tol]
    if tol is not None:
        # --tol beside the tolerances it sets would silently override them
        assert main(argv + own + ["--tol", tol]) == 2
        assert capsys.readouterr().err == ("input error: --tol sets both tolerances; "
                                           "drop --residual-tol and --defect-tol\n")
        own = ["--tol", tol]
    assert main(argv + own) == code
    data = json.loads(capsys.readouterr().out)
    assert (data["max_residual"], data["max_defect"]) == (2.0, 4.0)


# x1^2 misses the Laplace equation by E = 2, which fails --tol 1e-3; a leaked
# --tol would override the third call's own tolerances
PARSER_SEQUENCE = [
    ["verify", "--A", "1", "--C", "1", "--f", "x1^2", "--samples", "2", "--tol", "1e-3"],
    ["verify", "--A", "1", "--C", "1", "--f", "x1^2", "--samples", "two"],
    ["verify", "--A", "1", "--C", "1", "--f", "x1^2", "--samples", "2",
     "--residual-tol", "10", "--defect-tol", "10"],
    ["classify", "--A", "1", "--C", "x1", "--grid", "x1=-1:1:3"],
]


def _run_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_answers_each_call_as_a_fresh_one(capsys):
    fresh = []
    for argv in PARSER_SEQUENCE:
        cli.build_parser.cache_clear()
        fresh.append(_run_main(argv, capsys))
    parser = cli.build_parser()
    reused = [_run_main(argv, capsys) for argv in PARSER_SEQUENCE]
    assert cli.build_parser() is parser
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 2, 0, 0]
    assert "argument --samples: invalid int value: 'two'" in reused[1][2]


def test_bend_rejects_overflowing_coefficients(capsys):
    code = main(["bend", "--k", "2", "--q1", "x^2*1e300*1e300", "--q2", "x*y"])
    assert code == 2
    assert "non-finite coefficient" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bend", "--k", "3", "--q1", "x^3+1e-10*y^3", "--q2", "3*x^2*y"],
    ["bend", "--k", "4", "--q1", "x^4+3e-11*y^4", "--q2", "4*x^3*y"],
])
def test_near_bends_accepted_by_the_span_check_exit_0(argv, capsys):
    # a cross-derivative gate with the span check's threshold, not 2k times
    # it, refused these with exit 4
    code, out, err = _run_main(argv, capsys)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["is_bend"] is True and data["kind"] == "zero"
    assert find_nan(data) is None


@pytest.mark.parametrize("argv, code, message", [
    (["rmanifold", "--k", "40", "--l", "2", "--kind", "minus"], 2, b"k=40, l=2"),
    (["rmanifold", "--k", "20", "--l", "5", "--kind", "plus"], 2, b"k=20, l=5"),
    # the tangent of x is 3 s^2 / F^3, and s^2 overflows
    (["rmanifold", "--k", "3", "--l", "3", "--kind", "minus", "--radius", "1e200"], 3,
     b"non-finite tangent of the family at (a, b) = (9.8"),
    (["selfadjoint", "--matrix", ",".join(["inf"] + ["0"] * 15)], 2,
     b"entry (0, 0) is not finite: inf"),
    (["selfadjoint", "--matrix", ",".join(["0"] * 5 + ["nan"] + ["0"] * 10)], 2,
     b"entry (1, 1) is not finite: nan"),
    (["selfadjoint", "--matrix", "1e300,0,0,0,0,2e300,0,0,0,0,1e300,0,0,0,0,2e300"], 2,
     b"overflow"),
    (["bend", "--k", "2", "--q1", "x^2 + x^6", "--q2", "x*y"], 2,
     b"not homogeneous of degree 2"),
    (["bend", "--k", "2", "--q1", "x*sin(y)", "--q2", "x*y"], 2, b"not a polynomial"),
    (["bend", "--k", "2", "--q1", "x^2/y", "--q2", "x*y"], 2, b"not a polynomial"),
    (["bend", "--k", "2", "--q1", "x^1000", "--q2", "x*y"], 2, b"above the cap 32"),
    (["bend", "--k", "2", "--q1", "(1+x+y)^33", "--q2", "x*y"], 2,
     b"needs a jet of order 33, above the cap 32"),
    # a dense input at the cap still evaluates its whole jet (about 0.2 s)
    (["bend", "--k", "32", "--q1", "(1+x+y)^32", "--q2", "(1+x+y)^32"], 2,
     b"not homogeneous of degree 32"),
    (["bend", "--k", "0", "--q1", "1", "--q2", "2"], 2, b"must be at least 1"),
    (["bend", "--k", "100000", "--q1", "0", "--q2", "0"], 2,
     b"at --k 100000 needs a jet of order 100000, above the cap 32"),
    # the tangents of x, y are finite (about 1e198), their determinant is not
    (["rmanifold", "--k", "3", "--l", "2", "--kind", "minus", "--radius", "1e200"], 3,
     b"non-finite determinant of the base projection at (a, b) = (9.8"),
    (["verify", "--A", "1", "--C", "1", "--f", "x1", "--range", "nan"], 2,
     b"argument --range: must be positive"),
    (["verify", "--A", "1", "--C", "1", "--f", "x1", "--range", "inf"], 2,
     b"argument --range: must be positive"),
    (["verify", "--A", "1", "--C", "1", "--f", "x1", "--range", "1e308"], 2,
     b"argument --range: must be positive"),
    (["rmanifold", "--k", "2", "--l", "2", "--kind", "minus", "--export", "f.csv",
      "--param-range", "nan"], 2, b"argument --param-range: must be positive"),
    (["rmanifold", "--k", "2", "--l", "2", "--kind", "minus", "--radius", "nan"], 2,
     b"argument --radius: must be positive"),
    # expressions nest as deep as memory allows: nothing recurses over them
    (["classify", "--A", "(" * 2000 + "x1" + ")" * 2000], 0, b'"cells": [{"index": [0, 0]'),
    (["verify", "--A", "1", "--C", "1", "--f", "+".join(["x1"] * 20000)], 0,
     b'"passed": true'),
    # a NaN tolerance makes every comparison against it false
    (["classify", "--A", "1", "--C", "1", "--band", "nan"], 2,
     b"argument --band: must be finite and at least 0, got nan"),
    (["classify", "--A", "ln(x1)", "--C", "1", "--grid", "x1=-1:-0.1:5",
      "--max-error-fraction", "nan"], 2,
     b"argument --max-error-fraction: must be finite and at least 0, got nan"),
    (["verify", "--A", "1", "--C", "1", "--f", "x1^2 - x2^2", "--tol", "nan"], 2,
     b"argument --tol: must be finite and at least 0, got nan"),
    (["verify", "--A", "1", "--C", "1", "--f", "x1^2 - x2^2", "--residual-tol", "nan"], 2,
     b"argument --residual-tol: must be finite and at least 0, got nan"),
    (["verify", "--A", "1", "--C", "1", "--f", "x1^2 - x2^2", "--defect-tol", "-1"], 2,
     b"argument --defect-tol: must be finite and at least 0, got -1.0"),
    (["selfadjoint", "--matrix", ",".join(["1"] + ["0"] * 15), "--tol", "inf"], 2,
     b"argument --tol: must be finite and at least 0, got inf"),
    (["rmanifold", "--k", "2", "--l", "2", "--kind", "minus", "--export", "f.csv",
      "--count", "-5"], 2, b"argument --count: must be at least 1, got -5"),
    # linspace over an infinite span warned and left NaN coordinates
    *[(["classify", "--A", "1", "--C", "u", "--grid", grid, "--format", fmt], 2,
       b"needs finite bounds with a finite span")
      for grid in ("x1=0:inf:3", "x1=nan:1:3", "x1=-1e308:1e308:3") for fmt in ("json", "csv")],
    # CSV echoes no fixed value, so a NaN there used to pass silently
    *[(["classify", "--A", "1", "--C", "u", "--fixed", "p1=nan", "--format", fmt], 2,
       b"fixed value of 'p1' must be finite, got nan") for fmt in ("json", "csv")],
    (["classify", "--A", "1", "--C", "1", "--grid", "x1=0:1:2,x1=0:1:3"], 2,
     b"grid axis 'x1' is given twice"),
    (["classify", "--A", "1", "--C", "1", "--fixed", "u=1,u=2"], 2,
     b"fixed variable 'u' is given twice"),
    (["classify", "--A", "1", "--C", "1", "--grid", "x1=0:1:1000,x2=0:1:1001"], 2,
     b"grid has 1001000 cells, above the cap 1000000"),
    (["rmanifold", "--k", "7", "--l", "4", "--kind", "minus", "--export", "f.csv",
      "--count", "100001"], 2, b"point cloud has 100001 points, above the cap 100000"),
])
def test_out_of_range_input_ends_in_its_exit_code_without_warnings(argv, code, message):
    # the message is on stderr with an empty stdout, or on stdout at exit 0
    proc = run_cli(*argv)
    assert proc.returncode == code
    assert (proc.stdout == b"") == (code != 0)
    assert message in (proc.stderr if code else proc.stdout)
    assert b"Warning" not in proc.stderr and b"Traceback" not in proc.stderr


def test_grid_above_the_cell_cap_exits_2_before_allocating(capsys):
    # this grid used to allocate until the process was killed
    start = time.perf_counter()
    code = main(["classify", "--A", "1", "--C", "1", "--grid", "x1=0:1:100000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err == ("input error: grid has 100000000 cells, "
                                       "above the cap 1000000\n")


def test_cell_cap_admits_a_grid_of_its_size(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_GRID_CELLS", 12)
    assert main(["classify", "--A", "1", "--C", "1", "--grid", "x1=0:1:3,x2=0:1:4"]) == 0
    assert len(json.loads(capsys.readouterr().out)["cells"]) == 12
    assert main(["classify", "--A", "1", "--C", "1", "--grid", "x1=0:1:13"]) == 2
    assert "grid has 13 cells, above the cap 12" in capsys.readouterr().err


def test_cloud_above_the_point_cap_exits_2_before_allocating(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    start = time.perf_counter()
    code = main(["rmanifold", "--k", "7", "--l", "4", "--kind", "minus", "--export",
                 str(out), "--count", str(cli.MAX_CLOUD_POINTS + 1)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == ("input error: point cloud has 100001 points, "
                                       "above the cap 100000\n")


def test_point_cap_admits_a_cloud_of_its_size(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "MAX_CLOUD_POINTS", 12)
    out = tmp_path / "cloud.csv"
    argv = ["rmanifold", "--k", "3", "--l", "2", "--kind", "plus", "--export", str(out)]
    assert main(argv + ["--count", "12"]) == 0
    assert json.loads(capsys.readouterr().out) == {"exported": str(out), "count": 12}
    assert len(out.read_text().splitlines()) == 13
    out.unlink()
    assert main(argv + ["--count", "13"]) == 2
    assert "point cloud has 13 points, above the cap 12" in capsys.readouterr().err
    assert not out.exists()


SAMPLE_CAPS = [(["verify", "--A", "1", "--C", "1", "--f", "x1^2 - x2^2"], cli.MAX_VERIFY_SAMPLES),
               (["rmanifold", "--k", "2", "--l", "2", "--kind", "minus"], cli.MAX_REPORT_SAMPLES)]


@pytest.mark.parametrize("argv, cap", SAMPLE_CAPS)
def test_samples_type_admits_the_cap_and_refuses_one_more(argv, cap, capsys):
    parser = cli.build_parser()
    assert parser.parse_args(argv + ["--samples", str(cap)]).samples == cap
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv + ["--samples", str(cap + 1)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --samples: {cap + 1} is above the cap {cap}\n")


@pytest.mark.parametrize("argv, cap", SAMPLE_CAPS)
def test_samples_above_the_cap_exit_2_before_allocating(argv, cap, capsys):
    start = time.perf_counter()
    code, out, err = _run_main(argv + ["--samples", str(cap + 1)], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --samples: {cap + 1} is above the cap {cap}\n")


def test_verify_overflow_exits_3_with_one_error_line():
    # A*f11 = 2e500 overflows the residual; numpy stays quiet
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "macontact.cli",
                           "verify", "--A", "1e300", "--C", "1e300", "--f", "1e200*x1^2",
                           "--samples", "3"], capture_output=True)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr == b"error: non-finite value at $.samples[0].residual\n"


def test_bend_accepts_constant_factors_and_cancelling_terms(capsys):
    # division by and functions of constants keep a polynomial; x^6 - x^6
    # raises the jet order to 6 and cancels exactly
    argv = ["bend", "--k", "2", "--q1", "x^2/2 + sqrt(4)*y^2 + x^6 - x^6",
            "--q2", "x*y"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["is_bend"] is True


@pytest.mark.parametrize("k, kind", [("3", "plus"), ("2", "minus")])
def test_rmanifold_report_at_large_radius_keeps_its_tangents(k, kind, capsys):
    # a finite-difference step of 1e-4 vanishes next to a = 1e40
    code = main(["rmanifold", "--k", k, "--l", "2", "--kind", kind, "--radius", "1e40"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert all(s["det"] != 0 and s["rank2_ok"] for s in data["samples"])
    assert data["origin_base_derivative"] == 0 and data["origin_rank0_ok"] is True
    assert data["unique_singular_point"] is True


# --- long coefficients ---------------------------------------------------------------

@pytest.mark.parametrize("coefficient", [" + ".join(quintic_terms(CHART_VARIABLES)),
                                         " + ".join(["0.5*x1*x2"] * 10_000)],
                         ids=["quintic", "flat"])
def test_long_coefficients_classify_exit_0(coefficient, capsys):
    # a general quintic in the chart variables has 252 terms; a sum of n terms
    # nests n levels, and no depth of nesting is refused
    assert coefficient.count("+") + 1 in (252, 10_000)
    code, out, err = _run_main(["classify", "--A", coefficient, "--C", "1"], capsys)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["cells"]) == 25


# --- exponent cap ------------------------------------------------------------------

@pytest.mark.parametrize("argv, offset", [
    (["classify", "--A", "x1^100000000", "--C", "1", "--grid", "x1=0:1:3"], 3),
    (["verify", "--A", "1", "--C", "1", "--f", "x1^100000000", "--samples", "2"], 3),
    # degree_bound passes it: the base has degree 0
    (["bend", "--k", "2", "--q1", "(x^0)^100000000*x^2", "--q2", "x*y"], 6),
])
def test_exponent_above_the_cap_exits_2_at_once(argv, offset, capsys):
    # powers are repeated multiplication, so these ran for minutes
    start = time.perf_counter()
    code, out, err = _run_main(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"parse error: exponent above the cap {MAX_EXPONENT} in absolute "
                   f"value (at offset {offset})\n")


# --- a flag either acts or is rejected ---------------------------------------------

@pytest.mark.parametrize("extra, message", [
    (["--count", "5"], "--count acts only with --export"),
    (["--param-range", "2"], "--param-range acts only with --export"),
    (["--seed", "42"], "--seed acts only with --export"),
    (["--export", "@", "--radius", "1"], "--radius acts only without --export"),
    (["--export", "@", "--samples", "16"], "--samples acts only without --export"),
])
def test_rmanifold_flags_of_the_other_mode_are_rejected(extra, message, tmp_path, capsys):
    path = tmp_path / "cloud.csv"
    argv = ["rmanifold", "--k", "2", "--l", "2", "--kind", "minus"]
    code, out, err = _run_main(argv + [str(path) if a == "@" else a for a in extra], capsys)
    assert (code, out, err) == (2, "", f"input error: {message}\n")
    assert not path.exists()


def test_rmanifold_defaults_of_each_mode_still_act(tmp_path, capsys):
    argv = ["rmanifold", "--k", "2", "--l", "2", "--kind", "minus"]
    assert _run_main(argv, capsys)[0] == 0
    assert _run_main(argv + ["--radius", "0.5", "--samples", "16"], capsys)[0] == 0
    path = tmp_path / "cloud.csv"
    assert _run_main(argv + ["--export", str(path)], capsys)[0] == 0
    default = path.read_bytes()
    explicit = argv + ["--export", str(path), "--count", "100", "--param-range", "1.0",
                       "--seed", "42"]
    assert _run_main(explicit, capsys)[0] == 0
    assert path.read_bytes() == default and default.count(b"\n") == 101


@pytest.mark.parametrize("own", [["--residual-tol", "1"], ["--defect-tol", "1"]])
def test_verify_tol_beside_either_tolerance_is_rejected(own, capsys):
    argv = ["verify", "--A", "1", "--C", "1", "--f", "x1^2", "--tol", "1e-3"] + own
    code, out, err = _run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"input error: --tol sets both tolerances; drop {own[0]}\n"


# --- is_bend and structure_matrix share one span check --------------------------------

def test_near_bend_refused_by_the_span_check_is_no_bend(capsys):
    # is_bend accepted this noisy pair and structure_matrix refused its
    # witness, so the command exited 2 after deciding it was a bend
    q1 = ("-2.755240663574513*y^5+50.13947033114933*x*y^4-2.5168681063511853*x^2*y^3"
          "-1.3283298169271252*x^3*y^2+0.03680310599390242*x^4*y"
          "+0.0016430241609530067*x^5")
    q2 = ("59.78658747424311*y^5-3.835544724392136*x*y^4-8.131785317156181*x^2*y^3"
          "+0.3425011078150578*x^3*y^2+0.05185568048301139*x^4*y"
          "-0.0007786797087305028*x^5")
    code, out, err = _run_main(["bend", "--k", "5", f"--q1={q1}", f"--q2={q2}"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"k": 5, "is_bend": False}


@pytest.mark.parametrize("q1", ["1e11*x^2", "1e300*x^2", "1e-300*x^2"])
def test_independence_of_bend_inputs_ignores_their_scale(q1, capsys):
    # the same span as 1e9*x^2; at 1e11 the singular value test of the raw
    # coefficient columns refused the pair as dependent
    code, out, err = _run_main(["bend", "--k", "2", "--q1", q1, "--q2", "x*y"], capsys)
    assert (code, err) == (0, "")
    _, reference, _ = _run_main(["bend", "--k", "2", "--q1", "1e9*x^2", "--q2", "x*y"], capsys)
    assert json.loads(out)["kind"] == json.loads(reference)["kind"] == "zero"


def test_dependent_bend_inputs_are_still_refused(capsys):
    for q1, q2 in [("x^2", "3e11*x^2"), ("0*x^2", "x*y"), ("x*y", "x*y + 1e-12*y^2")]:
        code, out, err = _run_main(["bend", "--k", "2", "--q1", q1, "--q2", q2], capsys)
        assert (code, out) == (2, "")
        assert err == "input error: q1, q2 must be linearly independent\n"


def test_dumps_refuses_types_outside_the_payload_vocabulary():
    for value in (np.float64(1.0), np.int64(1), np.bool_(True), {1, 2}):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps({"v": value})


@pytest.mark.parametrize("argv, joined", [
    (["classify", "--A", "1", "--C", "1", "--D", "-x1", "--grid", "x1=0:1:2"],
     ["classify", "--A", "1", "--C", "1", "--D=-x1", "--grid", "x1=0:1:2"]),
    (["classify", "--A", "1", "--C", "1", "--D", "-1e3", "--grid", "x1=0:1:2"],
     ["classify", "--A", "1", "--C", "1", "--D=-1e3", "--grid", "x1=0:1:2"]),
    (["classify", "--A", "1", "--C", "1", "--D", "-(x1)", "--grid", "x1=0:1:2"],
     ["classify", "--A", "1", "--C", "1", "--D=-(x1)", "--grid", "x1=0:1:2"]),
    (["contact", "--nu", "x1", "--point", "-1,0,0,0,0"],
     ["contact", "--nu", "x1", "--point=-1,0,0,0,0"]),
    # an option may be abbreviated to a prefix that names only it
    (["contact", "--nu", "x1", "--poin", "-1,0,0,0,0"],
     ["contact", "--nu", "x1", "--poin=-1,0,0,0,0"]),
    (["contact", "--nu", "x1", "--po", "-1,0,0,0,0"],
     ["contact", "--nu", "x1", "--po=-1,0,0,0,0"]),
    (["contact", "--n", "-x1", "--p", "-1,0,0,0,0"],
     ["contact", "--nu=-x1", "--point=-1,0,0,0,0"]),
    (["selfadjoint", "--mat", "-1,0,0,0,0,-1,0,0,0,0,-1,0,0,0,0,-1"],
     ["selfadjoint", "--matrix=-1,0,0,0,0,-1,0,0,0,0,-1,0,0,0,0,-1"]),
])
def test_a_value_may_start_with_a_minus_sign(argv, joined, capsys):
    code, out, err = _run_main(argv, capsys)
    assert code == 0 and err == ""
    assert (code, out, err) == _run_main(joined, capsys)


@pytest.mark.parametrize("argv", [["classify", "--A", "1", "--D"], ["contact", "--nu"],
                                  ["contact", "--nu", "x1", "--poin"]])
def test_a_value_flag_at_the_end_still_exits_2(argv, capsys):
    code, _, err = _run_main(argv, capsys)
    assert code == 2 and "expected one argument" in err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--A", "1", "--C", "1", "--f", "x1", "--s", "-3"],
     "ambiguous option: --s could match --samples, --seed"),
    (["contact", "--nu", "x1", "--", "-1,0,0,0,0"], "unrecognized arguments"),
])
def test_an_ambiguous_prefix_still_exits_2(argv, message, capsys):
    code, out, err = _run_main(argv, capsys)
    assert (code, out) == (2, "") and message in err


@pytest.mark.parametrize("argv, message", [
    (["contact", "--nu", "x1", "--point", "1,2,3,4"],
     "input error: point needs 5 comma-separated values (x1, x2, u, p1, p2)\n"),
    (["contact", "--nu", "x1", "--point", "1,2,x,4,5"],
     "input error: could not convert string to float: 'x'\n"),
    (["selfadjoint", "--matrix", ",".join(["1"] * 17)],
     "input error: matrix needs 16 comma-separated entries (row-major)\n"),
    (["verify", "--f", "x1", "--range", "wide"], "argument --range: invalid float value: 'wide'"),
    (["verify", "--f", "x1", "--tol", "1,5"], "argument --tol: invalid float value: '1,5'"),
    (["bend", "--k", "2.0", "--q1", "x^2", "--q2", "x*y"],
     "argument --k: invalid int value: '2.0'"),
])
def test_list_and_number_flags_keep_their_error_texts(argv, message, capsys):
    code, out, err = _run_main(argv, capsys)
    assert (code, out) == (2, "") and message in err


@pytest.mark.parametrize("argv", [
    ["classify", "--A", "1", "--C", "1", "--out", "@DIR"],
    ["classify", "--A", "1", "--C", "1", "--format", "csv", "--out", "@DIR/missing/x.csv"],
    ["verify", "--A", "1", "--C", "1", "--f", "x1", "--out", "@DIR/missing/x.json"],
    # a non-solution exits 1 once written; unwritten, it is an input error
    ["verify", "--A", "1", "--C", "1", "--f", "x1^2", "--out", "@DIR"],
    ["bend", "--k", "2", "--q1", "x^2", "--q2", "x*y", "--out", "@DIR/missing/x.json"],
    ["rmanifold", "--k", "2", "--l", "2", "--kind", "minus", "--out", "@DIR"],
    ["rmanifold", "--k", "2", "--l", "2", "--kind", "minus", "--export", "@DIR/missing/x.csv"],
    ["rmanifold", "--k", "2", "--l", "2", "--kind", "minus", "--export", "@DIR"],
])
def test_unwritable_output_exits_2_with_one_error_line(argv, tmp_path, capsys):
    code, out, err = _run_main([a.replace("@DIR", str(tmp_path)) for a in argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("output error: [Errno ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_fixed_value_of_a_grid_axis_exits_2(capsys):
    code, out, err = _run_main(["classify", "--A", "1", "--C", "1", "--grid", "x1=0:1:3",
                                "--fixed", "x1=2"], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: 'x1' is both a grid axis and fixed\n"


@pytest.mark.parametrize("q1, code", [
    # off-degree terms far above the degree-2 part, though below 1e-12
    ("1e-20*x^2 + 1e-13*x", 2),
    ("1e-20*x^2 + 1e-20*x", 2),
    # an off-degree coefficient of roundoff size (5.6e-17) beside a unit one
    ("x^2 + 0.1*x + 0.2*x - 0.3*x", 0),
    # an infinite term is refused whatever its degree
    ("x^2 + 1e300*1e300*x", 2),
])
def test_homogeneity_is_judged_against_the_largest_coefficient(q1, code, capsys):
    got, out, err = _run_main(["bend", "--k", "2", "--q1", q1, "--q2", "x*y"], capsys)
    assert got == code
    if code == 2:
        assert out == "" and err.startswith("input error: ")
    else:
        assert json.loads(out)["is_bend"] is True


@pytest.mark.parametrize("command", [[], ["classify"], ["verify"], ["bend"], ["contact"],
                                     ["rmanifold"], ["selfadjoint"]])
def test_help_exits_0(command, capsys):
    code, out, _ = _run_main(command + ["--help"], capsys)
    assert code == 0 and out.startswith("usage: macontact")
