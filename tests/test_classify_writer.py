"""The columnar `classify` results and their one-template writer.

The reference is the per-cell path the writer replaced: ``_scalar_region``
classifies cell by cell through the scalar ``discriminant``, and its cells
are rendered as one dict per cell through ``dumps``, or as CSV rows joined
with floats as ``dumps`` prints them.  Both must equal the writer's text
byte for byte.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macontact import expr, monge_ampere
from macontact.cli import _format_float, _region_csv, _region_json, dumps, main
from macontact.contact import CHART_VARIABLES, DarbouxPoint
from macontact.expr import Expr
from macontact.monge_ampere import (ERROR, TYPE_NAMES, GridSpec, MAEquation,
                                    classify_region, delta_type, discriminant, type_codes)
from test_monge_ampere import _scalar_region


def _reference_json(grid, band, cells) -> str:
    entries = []
    for c in cells:
        entry = {"index": list(c.index), "delta": c.delta, "type": c.type}
        if c.error is not None:
            entry["error"] = c.error
        entries.append(entry)
    payload = {"grid": {"axes": {n: list(grid.axes[n]) for n in grid.axis_names()},
                        "fixed": dict(grid.fixed), "band": band},
               "cells": entries}
    return dumps(payload) + "\n"


def _reference_csv(cells) -> str:
    rows = [["index", "delta", "type", "error"]]
    for c in cells:
        rows.append([";".join(str(i) for i in c.index),
                     c.delta if c.delta is not None else "", c.type or "", c.error or ""])
    return "".join(",".join(_format_float(v) if isinstance(v, float) else str(v)
                            for v in row) + "\n" for row in rows)


# error cells (ln, sqrt, 1/x), overflow to inf - inf (exp and 1e200 terms),
# exact zeros, values that land on the band (Delta = -4 x1 with band 1) and
# inexact ones, whose sum shows the operation order in its last bits; the
# compounds of subtrees over different axes fail on differently shaped
# parts of the grid within one coefficient, so the first error of a cell
# comes from the right subtree
COEFFS = ["0", "1", "-1", "0.25", "x1", "x2", "u", "-u", "0*x1", "0.5*x1 - u",
          "ln(x1)", "sqrt(x2)", "1/x1", "x2^-1", "1/(x1 - u)", "exp(700*x1)",
          "1e200*x1*x2", "sin(u)*x1", "ln(u + 0.5)", "0.1*x1 + 0.7", "cos(x2)/3",
          "ln(x1) + sqrt(x2)", "sqrt(u)*ln(x1)", "1/u + ln(x2)"]
BOUNDS = [(-1.0, 1.0), (0.0, 1.0), (-2.0, 0.5), (-0.0, 0.0)]
FIXED = [0.0, -0.0, 0.3, 1.0, -1.5]

equations = st.builds(MAEquation.from_strings, *[st.sampled_from(COEFFS)] * 5)


@st.composite
def grids(draw):
    names = draw(st.lists(st.sampled_from(CHART_VARIABLES), max_size=3, unique=True))
    axes = {n: draw(st.sampled_from(BOUNDS)) + (draw(st.integers(0, 9)),) for n in names}
    rest = [n for n in CHART_VARIABLES if n not in axes]
    fixed = {n: draw(st.sampled_from(FIXED))
             for n in draw(st.lists(st.sampled_from(rest), max_size=3, unique=True))}
    return GridSpec(axes, fixed)


@settings(max_examples=300, deadline=None)
@given(equations, grids(), st.sampled_from([0.0, 1e-9, 0.5, 1.0, 4.0]))
def test_writer_matches_per_cell_rendering(eq, grid, band):
    region = classify_region(eq, grid, band)
    cells = _scalar_region(eq, grid, band)
    assert _region_json(region) == _reference_json(grid, band, cells)
    assert _region_csv(region) == _reference_csv(cells)
    assert region.cells == cells
    errors = sum(1 for c in cells if c.error)
    assert region.error_fraction == (errors / len(cells) if cells else 0.0)


def test_reference_cases_reach_every_kind_of_cell():
    # the strategy above can draw each of these; pin that they mean what they say
    grid = GridSpec({"x1": (-1.0, 1.0, 9)})
    kinds = {c.type for c in _scalar_region(MAEquation.from_strings(A="x1", C="1"),
                                            grid, 1.0)}
    assert kinds == {"hyperbolic", "band", "parabolic", "elliptic"}
    overflow = MAEquation.from_strings(A="exp(700*x1)", B="exp(700*x1)", C="exp(700*x1)")
    errors = {c.error for c in _scalar_region(overflow, grid, 1.0)}
    assert "non-finite discriminant nan" in errors


def test_type_codes_are_the_rule_of_delta_type():
    deltas = [-1.0, -0.5, -0.25, 0.0, -0.0, 0.25, 0.5, 1.0, math.inf, -math.inf, math.nan]
    codes = type_codes(np.array(deltas), 0.5).tolist()
    for delta, code in zip(deltas, codes):
        if code == ERROR:
            assert not math.isfinite(delta)
        else:
            assert delta_type(delta, 0.5) == TYPE_NAMES[code]
    assert [TYPE_NAMES[c] for c in codes[:8]] == [
        "elliptic", "band", "band", "parabolic", "parabolic", "band", "band", "hyperbolic"]


# --- no per-cell Python objects on the sweep path -------------------------------

def _count_calls(monkeypatch, owner, name, counter):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counter[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)


@pytest.fixture
def counter(monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, monge_ampere, "CellResult", calls)
    _count_calls(monkeypatch, monge_ampere, "delta_type", calls)
    _count_calls(monkeypatch, Expr, "eval", calls)
    return calls


COEFF_FLAGS = ["--N", "0.01*x1*u", "--A", "1 + x1^2", "--B", "sin(x2) + 0.5",
               "--C", "exp(0.3*x1)*(u - 0.1)", "--D", "cos(x1*x2)"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_error_free_sweep_builds_no_cell_objects(counter, fmt, tmp_path):
    out = tmp_path / "out"
    code = main(["classify"] + COEFF_FLAGS + ["--grid", "x1=-1:1:100,x2=-1:1:101",
                                              "--fixed", "u=0.4", "--format", fmt,
                                              "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == (10101 if fmt == "csv" else 1)
    assert counter == Counter()


def test_error_cells_are_never_evaluated_again(counter, tmp_path):
    # A leaves its domain for x1 <= 0 and D for x2 < 0: the column pass
    # records each cell's first error, and no cell is walked again by Expr.eval
    argv = ["--A", "ln(x1) + x2", "--C", "1", "--D", "sqrt(x2)*x1",
            "--grid", "x1=-1:1:40,x2=-1:1:30"]
    out = tmp_path / "out"
    code = main(["classify"] + argv + ["--max-error-fraction", "1", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert '"error": "ln of nonpositive value' in text
    assert '"error": "sqrt of negative value' in text
    assert counter["CellResult"] == counter["delta_type"] == 0
    assert counter["eval"] == 0


def test_cells_view_is_built_once_and_only_when_read(counter):
    region = classify_region(MAEquation.from_strings(A="1", C="u"),
                             GridSpec({"u": (-1.0, 1.0, 5)}), band=2.0)
    assert counter["CellResult"] == 0
    assert region.cells is region.cells
    assert counter["CellResult"] == 5
    assert [c.type for c in region.cells] == [
        "hyperbolic", "band", "parabolic", "band", "elliptic"]
    assert region.codes.tolist() == type_codes(region.deltas, 2.0).tolist()


def test_an_axis_subexpression_is_evaluated_once_per_value_of_its_axis(monkeypatch):
    # sin(x1) over a 1000x1000 grid reads one axis: 1,000 math.sin calls,
    # not one per cell
    calls = Counter()
    sin, outside, text = expr._FUNCS["sin"]

    def counting(x):
        calls["sin"] += 1
        return sin(x)
    monkeypatch.setitem(expr._FUNCS, "sin", (counting, outside, text))
    eq = MAEquation.from_strings(A="sin(x1)", C="1")
    grid = GridSpec({"x1": (-1.0, 1.0, 1000), "x2": (-1.0, 1.0, 1000)})
    region = classify_region(eq, grid)
    assert calls["sin"] == 1000
    assert not region.errors and region.deltas.shape == (1_000_000,)
    rows = [discriminant(eq, DarbouxPoint(x, 0.0, 0.0, 0.0, 0.0))
            for x in grid.axis_values("x1").tolist()]
    assert np.array_equal(region.deltas.reshape(1000, 1000),
                          np.broadcast_to(np.array(rows)[:, None], (1000, 1000)))
