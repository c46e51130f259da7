"""Byte-identity of `macontact rmanifold` output against committed goldens.

``rmanifold_zero.json`` and the export were written by the point-by-point
evaluator of ``L_{k,l}``, which computed each power ``s^m`` with its own
``ZetaNum`` product chain.  ``rmanifold_plus.json`` and
``rmanifold_minus_overflow.json`` were rewritten when the reports moved
from central differences to the exact tangents of the power ladder (each
``det`` moved by at most 5.6e-8 and 2.5e-4 relative, the origin's base
derivative became 0, every flag stayed).  They cover a double-number
report with directions excluded around the null cone, a dual-number report,
a report whose unread rows overflow and a point-cloud export, so any change
in the order of the float operations, in the tangents or in formatting
shows up as a byte difference.  ``rmanifold_export_minus.csv`` (columns
that are negations of others, and a copy of a copy) and
``rmanifold_export_zero.csv`` (signed zeros) were written by the writer
that formatted every value of a row, before it formatted each distinct
column once.

To rewrite the goldens after a deliberate output change, run
``PYTHONPATH=src python tests/test_rmanifold_golden.py``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from macontact.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

REPORTS = {
    "rmanifold_plus.json": ["--k", "5", "--l", "3", "--kind", "plus",
                            "--samples", "12", "--radius", "0.4"],
    "rmanifold_zero.json": ["--k", "4", "--l", "2", "--kind", "zero",
                            "--samples", "10", "--radius", "0.9"],
    # the u rows overflow (s^41), the x, y rows the report reads do not
    "rmanifold_minus_overflow.json": ["--k", "8", "--l", "5", "--kind", "minus",
                                      "--samples", "4", "--radius", "1e8"],
}
EXPORTS = {
    "rmanifold_export.csv": ["--k", "6", "--l", "4", "--kind", "plus",
                             "--count", "40", "--param-range", "1.1",
                             "--seed", "9"],
    # negated columns and a copy of a copy (u_{0,4} = -u_{2,2} = u_{4,0})
    "rmanifold_export_minus.csv": ["--k", "6", "--l", "2", "--kind", "minus",
                                   "--count", "40", "--param-range", "1.3",
                                   "--seed", "5"],
    # every q >= 2 column is 0 * value, a +0 or a -0
    "rmanifold_export_zero.csv": ["--k", "5", "--l", "3", "--kind", "zero",
                                  "--count", "30", "--param-range", "0.9",
                                  "--seed", "11"],
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["rmanifold"] + argv)
    return code, out.getvalue()


def _export(directory, name):
    path = os.path.join(directory, name)
    code, _ = _run(EXPORTS[name] + ["--export", path])
    with open(path, newline="") as handle:
        return code, handle.read()


def _golden(name):
    with open(os.path.join(GOLDEN, name), newline="") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_rmanifold_report_matches_golden(name):
    code, text = _run(REPORTS[name])
    assert code == 0
    assert text == _golden(name)


def test_rmanifold_export_matches_golden(tmp_path):
    for name in EXPORTS:
        code, text = _export(str(tmp_path), name)
        assert code == 0, name
        assert text == _golden(name), name


def test_golden_report_covers_the_null_cone_and_the_dual_numbers():
    plus = json.loads(_golden("rmanifold_plus.json"))
    assert plus["excluded_null_cone"] and plus["samples"]
    zero = json.loads(_golden("rmanifold_zero.json"))
    assert not any(s["rank2_ok"] for s in zero["samples"])


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in REPORTS.items():
        code, text = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        with open(os.path.join(GOLDEN, name), "w", newline="") as handle:
            handle.write(text)
    for name in EXPORTS:
        with tempfile.TemporaryDirectory() as tmp:
            code, text = _export(tmp, name)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        with open(os.path.join(GOLDEN, name), "w", newline="") as handle:
            handle.write(text)
