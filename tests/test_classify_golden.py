"""Byte-identity of `macontact classify` output against committed goldens.

The goldens in ``tests/golden`` were written by the scalar, cell-by-cell
classifier.  The grid mixes every cell type, ``ln`` and ``sqrt`` error
cells, transcendental coefficients, a negative power and a fixed
coordinate, so any change in evaluation order, rounding or formatting
shows up as a byte difference.

To rewrite the goldens after a deliberate output change, run
``PYTHONPATH=src python tests/test_classify_golden.py``.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from macontact.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

COEFFS = ["--N", "0.01*cos(u + p1)*x2",
          "--A", "1 + 0.5*ln(x1 + 0.8)",
          "--B", "x2*sin(3*x1)",
          "--C", "u*(1 - x1)*sqrt(x2 + 0.6)",
          "--D", "x2*exp(x1)*(2 + u)^-1"]
MIXED = COEFFS + ["--grid", "x1=-1:1:6,x2=-1:1:5,u=-1:1:5", "--fixed", "p1=0.25",
                  "--band", "0.3", "--max-error-fraction", "1"]
EMPTY = COEFFS + ["--grid", "x1=-1:1:0,x2=-1:1:5"]

CASES = {
    "classify_mixed.json": MIXED,
    "classify_mixed.csv": MIXED + ["--format", "csv"],
    "classify_empty.json": EMPTY,
    "classify_empty.csv": EMPTY + ["--format", "csv"],
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["classify"] + argv)
    return code, out.getvalue()


def _golden(name):
    with open(os.path.join(GOLDEN, name), newline="") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_classify_stdout_matches_golden(name):
    code, text = _run(CASES[name])
    assert code == 0
    assert text == _golden(name)


@pytest.mark.parametrize("name", ["classify_mixed.json", "classify_mixed.csv"])
def test_classify_out_file_matches_golden(name, tmp_path):
    path = tmp_path / name
    code, text = _run(CASES[name] + ["--out", str(path)])
    assert code == 0
    assert text == ""
    assert path.read_bytes().decode() == _golden(name)


def test_golden_grid_covers_every_cell_kind():
    cells = json.loads(_golden("classify_mixed.json"))["cells"]
    assert {c["type"] for c in cells} == {"elliptic", "hyperbolic", "parabolic",
                                          "band", None}
    errors = {c["error"].split(" of ")[0] for c in cells if "error" in c}
    assert errors == {"ln", "sqrt"}


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in CASES.items():
        code, text = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        with open(os.path.join(GOLDEN, name), "w", newline="") as handle:
            handle.write(text)
