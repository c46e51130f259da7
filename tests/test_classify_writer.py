"""The columnar `classify` results and their one-template writer.

The reference is the per-cell path the writer replaced: ``_scalar_region``
classifies cell by cell through the scalar ``discriminant``, and its cells
are rendered as one dict per cell through ``dumps``, or as CSV rows joined
with floats as ``dumps`` prints them.  Both must equal the writer's text
byte for byte.
"""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macontact import cli, expr, monge_ampere
from macontact.cli import _format_float, _region_csv, _region_json, dumps, main
from macontact.contact import CHART_VARIABLES, DarbouxPoint
from macontact.expr import Expr
from macontact.monge_ampere import (ERROR, TYPE_NAMES, GridSpec, MAEquation,
                                    RegionClassification, classify_region, delta_type,
                                    discriminant, type_codes)
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


def _first_difference(text, reference):
    """None, or where the texts part (pytest's own diff of megabyte texts takes minutes)."""
    if text == reference:
        return None
    i = next((i for i, (a, b) in enumerate(zip(text, reference)) if a != b),
             min(len(text), len(reference)))
    return i, text[max(i - 60, 0):i + 60], reference[max(i - 60, 0):i + 60]


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
    assert _first_difference("".join(_region_json(region)),
                             _reference_json(grid, band, cells)) is None
    assert _first_difference("".join(_region_csv(region)), _reference_csv(cells)) is None
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


# --- line templates and blocks ---------------------------------------------------
#
# The writer formats one template per line of the last axis and yields blocks
# of whole lines, patching a line's error cells in.  These regions are built
# from arrays, so error cells can sit anywhere and carry any message; the
# reference renders their ``cells`` view one cell at a time.

MESSAGES = ["ln of nonpositive value -0.5", "100% of %s and %(x)s %%", "nul \x00 and \x01 here",
            "a newline\nin the text", 'quote " and \\ backslash {} {0}', "tab\tand \x1f"]


def _region(shape, errors=(), band=0.5, seed=0):
    """A region of ``shape`` whose flat cells ``errors`` are error cells,
    with the ``MESSAGES`` in turn; the other Deltas span the float range,
    with exact zeros of both signs."""
    grid = GridSpec({n: (-1.0, 1.0, c) for n, c in zip(("x1", "x2", "u"), shape)})
    rng = np.random.default_rng(seed)
    deltas = rng.standard_normal(grid.size()) * 10.0 ** rng.integers(-300, 300, grid.size())
    deltas[::7], deltas[3::11] = 0.0, -0.0
    codes = type_codes(deltas, band)
    errors = {int(i): MESSAGES[k % len(MESSAGES)] for k, i in enumerate(errors)}
    deltas[list(errors)], codes[list(errors)] = np.nan, ERROR
    return RegionClassification(grid, band, deltas, codes, errors)


def _check_blocks(region):
    """Both writers against the reference; each block is whole lines, as many
    as fit in _BLOCK_CELLS, or one piece of a longer line."""
    blocks = list(_region_csv(region))
    assert _first_difference("".join(blocks), _reference_csv(region.cells)) is None
    assert _first_difference("".join(_region_json(region)), _reference_json(
        region.grid, region.band, region.cells)) is None
    size, most = region.codes.size, cli._BLOCK_CELLS
    shape = region.grid.shape()
    last = shape[-1] if shape else 1
    if not size:
        sizes = []
    elif last <= most:
        sizes = [min(most // last * last, size - i) for i in range(0, size, most // last * last)]
    else:
        sizes = [min(most, last - j) for _ in range(size // last) for j in range(0, last, most)]
    rows = [len(_reference_csv([c]).partition("\n")[2]) for c in region.cells]
    ends = itertools.accumulate(sizes, initial=0)
    assert [len(b) for b in blocks[1:]] == [sum(rows[a:b]) for a, b in itertools.pairwise(ends)]


@pytest.mark.parametrize("shape", [(), (0,), (5,), (3, 0), (0, 4), (2, 0, 3), (4, 1),
                                   (3, 4, 1), (2, 3), (2, 3, 4)])
@pytest.mark.parametrize("where", ["none", "first", "last", "all"])
def test_blocks_of_small_grids(shape, where):
    size = math.prod(shape)
    errors = {"none": [], "first": [0][:size], "last": [size - 1][:size],
              "all": range(size)}[where]
    _check_blocks(_region(shape, errors))


def test_block_edges_of_a_real_sized_grid():
    # 10,000 cells a block: 10 lines of 1000, so the 35 lines make blocks of
    # 10, 10, 10 and 5; error cells sit at the first and last cell of lines
    # and blocks, and line 15 is all error cells
    assert cli._BLOCK_CELLS == 10_000
    errors = [0, 999, 1000, 9_000, 9_999, 10_000, 10_001, 29_999, 34_999]
    errors += range(15_000, 16_000)
    _check_blocks(_region((35, 1000), errors))


def test_a_line_longer_than_a_block_is_cut_into_pieces():
    # index 10,000 q + r is written q then r in four digits: 12345 is 1 and 2345
    last = 2 * cli._BLOCK_CELLS + 345
    _check_blocks(_region((last,), [0, 1, 9_999, 10_000, 10_345, last - 1]))
    _check_blocks(_region((2, last), [last - 1, last, last + 10_000, 2 * last - 1]
                          + list(range(20_000, last))))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(()), st.tuples(st.lists(st.integers(0, 4), max_size=2),
                                         st.integers(0, 250)).map(lambda s: (*s[0], s[1]))),
       st.sampled_from([10, 100]), st.data())
def test_blocks_at_any_block_size(shape, block, data):
    # _BLOCK_CELLS must be a power of ten: a long line's pieces are read by their digits
    size = math.prod(shape)
    errors = data.draw(st.lists(st.integers(0, max(size - 1, 0)), unique=True,
                                max_size=min(size, 50)))
    if size and data.draw(st.booleans()):  # every cell of some line is an error cell
        line = data.draw(st.integers(0, size // shape[-1] - 1)) if shape else 0
        errors = sorted(set(errors) | set(range(line * (shape[-1] if shape else 1),
                                                 (line + 1) * (shape[-1] if shape else 1))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK_CELLS", block)
        _check_blocks(_region(shape, errors))


@pytest.mark.parametrize("shapes", [[(40, 500), (400, 500)], [(20_000,), (200_000,)]])
@pytest.mark.parametrize("writer", [_region_csv, _region_json])
def test_writer_memory_stays_within_a_block_budget(writer, shapes):
    # the peak above the region is a few blocks' text and templates (at most
    # about 4 and 7 MB for CSV and JSON), whatever the grid size; the larger
    # grid's text alone is above the budget, so a writer that held it fails
    budget = 6 << 20 if writer is _region_csv else 10 << 20
    assert cli._BLOCK_CELLS == 10_000
    for shape in shapes:
        region = _region(shape, range(0, math.prod(shape), 37), seed=len(shape))
        tracemalloc.start()
        try:
            size = sum(len(block) for block in writer(region))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, (shape, peak)
    assert size > budget
