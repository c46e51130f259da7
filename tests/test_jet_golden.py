"""Byte-identity of `verify`, `contact` and `bend` output against goldens.

The goldens in ``tests/golden`` were written by the per-point jet path
(one dict-backed jet and one ``invariance_defect`` call per sample),
before jets became dense lane arrays.  They cover an exact solution, a
perturbed one that fails, a solution through ``sin`` and ``exp``,
coefficients that depend on ``u``, ``p1`` and ``p2``, and ``contact``
and ``bend`` inputs whose jets meet signed zeros and cancellation, so
any change in evaluation order or rounding shows up as a byte
difference.  They are never regenerated to make a change pass; the
``__main__`` block exists only to write them from a reference checkout:
``PYTHONPATH=<reference>/src python tests/test_jet_golden.py``.
"""

import contextlib
import io
import os
import sys

import pytest

from macontact.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    # (argv, exit code)
    "verify_exact.json": (
        ["verify", "--A", "1", "--C", "-0.09",
         "--f", "(x2 - 0.3*x1)^3 + exp(x2 - 0.3*x1) + 0.7*x1*x2 - 0.5*x1",
         "--samples", "12", "--range", "1.5", "--seed", "7"], 0),
    "verify_perturbed.json": (
        ["verify", "--A", "1", "--C", "1", "--f", "x1^2 - x2^2 + 0.3*x1^3*x2",
         "--samples", "12", "--seed", "8"], 1),
    "verify_sin_exp.json": (
        ["verify", "--A", "1", "--C", "-4",
         "--f", "sin(x2 + 2*x1) + 0.5*exp(x2 - 2*x1) - 0.25*(x2 + 2*x1)^3",
         "--samples", "16", "--range", "2", "--seed", "9"], 0),
    "verify_chart_coeffs.json": (
        ["verify", "--N", "0.1*u", "--A", "1 + p1^2", "--B", "p1*p2*sin(x1)",
         "--C", "1 + p2^2 - 0.5*exp(u)", "--D", "0.01*u*p1 - x2/(2 + p2^2)",
         "--f", "x1*x2 - 0.25*x1^2 + 0.1*x2^3 + 0.5",
         "--samples", "20", "--seed", "10", "--tol", "1e-6"], 1),
    "verify_monge_ampere.json": (
        ["verify", "--N", "1", "--D", "-4", "--f", "x1^2 + x2^2 - 0*x1*x2",
         "--samples", "9", "--range", "0.5", "--seed", "11"], 0),
    "verify_ln_sqrt_reciprocal.json": (
        ["verify", "--A", "x1", "--B", "-0.5", "--C", "1",
         "--f", "ln(2 + x1) + sqrt(3 + x2) + 1/(x1 - 5) - x2^-2",
         "--samples", "10", "--range", "0.9", "--seed", "12"], 1),
    "contact_mixed.json": (
        ["contact", "--nu", "u*p1 + x1^2*p2 - sin(x2)*exp(u) + sqrt(1 + p1^2)/x1",
         "--point=0.3,-0.7,1.1,0.25,-2"], 0),
    "contact_signed_zero.json": (
        ["contact", "--nu", "-(x1*p1) + u^3 - 2*x2*p2*u",
         "--point=-0.0,0.0,-0.0,1e-300,-1e300"], 0),
    "bend_elliptic.json": (
        ["bend", "--k", "3", "--q1", "x^3 - 3*x*y^2", "--q2", "3*x^2*y - y^3"], 0),
    "bend_parabolic.json": (
        ["bend", "--k", "2", "--q1", "x^2", "--q2", "x*y"], 0),
    "bend_hyperbolic.json": (
        ["bend", "--k", "5", "--q1", "(0.5*x + 0.75*y)^5 + (0.5*x - 0.75*y)^5",
         "--q2", "(0.5*x + 0.75*y)^5 - (0.5*x - 0.75*y)^5"], 0),
    "bend_none.json": (
        ["bend", "--k", "3", "--q1", "x^3", "--q2", "y^3 + x*y^2"], 0),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _golden(name):
    with open(os.path.join(GOLDEN, name), newline="") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    argv, want_code = CASES[name]
    code, text = _run(argv)
    assert code == want_code
    assert text == _golden(name)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, (argv, want_code) in CASES.items():
        code, text = _run(argv)
        if code != want_code:
            sys.exit(f"{name}: exit {code}, expected {want_code}")
        with open(os.path.join(GOLDEN, name), "w", newline="") as handle:
            handle.write(text)
