"""`rmanifold` reports as columns, and float arrays with one template a row.

The reference is the payload the writer replaced: ``SingularPointReport``'s
``to_json_dict``, one dict per sample and a list per excluded direction,
rendered through ``dumps``.  ``_report_payload``'s text must equal it byte
for byte, and ``find_nan`` must name the same path in both.
"""

import contextlib
import dataclasses
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macontact import rmanifold
from macontact.cli import NonFiniteError, Rows, _report_payload, dumps, find_nan, main
from macontact.rmanifold import RManifoldSpec, singular_point_report
from macontact.zeta import ZetaKind

# signed zeros, the smallest subnormal, the largest magnitudes, and inexact
# values whose 17 digits differ from their shortest repr
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
         0.1, 1 / 3, -2.5e-10, 123456.789]
floats = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)


def _oracle_payload(report) -> dict:
    """The payload as ``SingularPointReport.to_json_dict`` built it."""
    return {
        "k": report.spec.k,
        "l": report.spec.l,
        "kind": report.spec.kind.value,
        "radius": report.radius,
        "samples": [
            {"params": list(p), "det": d, "sigma_ratio": r, "rank2_ok": ok}
            for p, d, r, ok in report.samples
        ],
        "excluded_null_cone": [list(p) for p in report.excluded_null_cone],
        "origin_base_derivative": report.origin_base_derivative,
        "origin_rank0_ok": report.origin_rank0_ok,
        "bend_angle": report.bend_angle,
        "bend_angle_swapped": report.bend_angle_swapped,
        "bend_ok": report.bend_ok,
        "unique_singular_point": report.unique_singular_point,
    }


# --- reports ------------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(ZetaKind))
@pytest.mark.parametrize("k", range(2, 10))
@pytest.mark.parametrize("l", range(2, 6))
def test_report_payload_prints_the_bytes_of_the_dict_payload(kind, k, l):
    # the double numbers exclude the directions near the null cone at every
    # radius; the radii move the determinants across many magnitudes
    radii = (0.5, 0.01, 7.5) if kind is ZetaKind.PLUS else (0.5,)
    for samples in (1, 2, 7, 48, 64):
        for radius in radii:
            report = singular_point_report(RManifoldSpec(k, l, kind), radius, samples)
            if kind is ZetaKind.PLUS and samples >= 48:
                assert report.excluded_null_cone
            assert dumps(_report_payload(report)) == dumps(_oracle_payload(report))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _argv(k, l, kind, samples, *extra):
    return ["rmanifold", "--k", str(k), "--l", str(l), "--kind", kind,
            "--samples", str(samples), *extra]


@pytest.mark.parametrize("k, l, kind, samples", [(3, 5, "plus", 64), (4, 3, "minus", 48),
                                                 (2, 2, "zero", 1), (9, 2, "plus", 7)])
def test_rmanifold_prints_and_writes_the_bytes_of_the_dict_payload(k, l, kind, samples,
                                                                  tmp_path):
    report = singular_point_report(RManifoldSpec(k, l, ZetaKind(kind)), 0.5, samples)
    expected = dumps(_oracle_payload(report)) + "\n"
    assert _run(_argv(k, l, kind, samples)) == (0, expected, "")
    out = tmp_path / "report.json"
    assert _run(_argv(k, l, kind, samples, "--out", str(out))) == (0, "", "")
    assert out.read_bytes() == expected.encode()


def _poisoned(field, value, index=None):
    """``singular_point_report`` with one value of its result replaced."""
    exact = singular_point_report

    def report(spec, radius, samples):
        result = exact(spec, radius, samples)
        if index is None:
            return dataclasses.replace(result, **{field: value})
        rows = [list(row) for row in getattr(result, field)]
        rows[index[0]][index[1]] = value
        return dataclasses.replace(result, **{field: tuple(map(tuple, rows))})
    return mock.patch.object(rmanifold, "singular_point_report", report)


@pytest.mark.parametrize("field, index, path", [
    ("samples", (5, 1), "$.samples[5].det"),
    ("samples", (0, 2), "$.samples[0].sigma_ratio"),
    ("excluded_null_cone", (3, 1), "$.excluded_null_cone[3][1]"),
    ("bend_angle", None, "$.bend_angle"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rmanifold_names_a_non_finite_value_and_exits_3(field, index, path, bad, tmp_path):
    out = tmp_path / "report.json"
    with _poisoned(field, bad, index):
        assert _run(_argv(3, 5, "plus", 64)) == (3, "", f"error: non-finite value at {path}\n")
        assert _run(_argv(3, 5, "plus", 64, "--out", str(out)))[0] == 3
    assert not out.exists()


# --- Rows with bool and 2-D columns ---------------------------------------------------------

KEYS = ("params", "det", "sigma_ratio", "rank2_ok", "wéird \"key\"\n")


@st.composite
def row_columns(draw):
    """Up to 40 rows of float and bool columns, 1-D or 2-D, in a drawn key order."""
    rows = draw(st.integers(0, 40))
    keys = draw(st.permutations(KEYS))[:draw(st.integers(1, len(KEYS)))]
    columns = {}
    for key in keys:
        width = draw(st.sampled_from([None, 1, 2, 3]))
        shape = (rows,) if width is None else (rows, width)
        if draw(st.booleans()):
            values = draw(st.lists(st.booleans(), min_size=math.prod(shape),
                                   max_size=math.prod(shape)))
            columns[key] = np.array(values, dtype=bool).reshape(shape)
        else:
            values = draw(st.lists(floats, min_size=math.prod(shape),
                                   max_size=math.prod(shape)))
            columns[key] = np.array(values, dtype=float).reshape(shape)
    return columns


def _dicts(columns) -> list:
    """One dict per row, read entry by entry."""
    rows = len(next(iter(columns.values())))
    return [{key: column[i].tolist() for key, column in columns.items()}
            for i in range(rows)]


@settings(max_examples=150, deadline=None)
@given(columns=row_columns())
def test_rows_with_bool_and_2d_columns_render_as_the_dicts_they_stand_for(columns):
    rows = Rows(**columns)
    assert rows.dicts() == _dicts(columns)
    assert dumps({"samples": rows, "n": 1}) == dumps({"samples": _dicts(columns), "n": 1})


@settings(max_examples=150, deadline=None)
@given(columns=row_columns(), excluded=st.lists(st.tuples(floats, floats), max_size=6),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), where=st.integers(0, 10**6))
def test_find_nan_names_the_place_in_rows_and_in_an_array(columns, excluded, bad, where):
    cone = np.array(excluded, dtype=float).reshape(-1, 2)
    float_keys = [key for key, column in columns.items() if column.dtype == float]
    spots = [(key, i) for key in float_keys for i in range(columns[key].size)]
    spots += [("cone", i) for i in range(cone.size)]
    if not spots:
        return
    key, flat = spots[where % len(spots)]
    if key == "cone":
        row, col = divmod(flat, 2)
        cone[row, col] = bad
        path = f"$.excluded_null_cone[{row}][{col}]"
    else:
        column = columns[key]
        column.reshape(-1)[flat] = bad
        row, col = divmod(flat, column.shape[1]) if column.ndim == 2 else (flat, None)
        path = f"$.samples[{row}].{key}" + ("" if col is None else f"[{col}]")
    payload = {"samples": Rows(**columns), "excluded_null_cone": cone}
    reference = {"samples": _dicts(columns), "excluded_null_cone": cone.tolist()}
    # the first non-finite value in payload order is the one planted
    assert find_nan(payload) == find_nan(reference) == path
    with pytest.raises(NonFiniteError):
        dumps(payload)


# --- float64 arrays ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(values=st.lists(floats, max_size=24), width=st.sampled_from([None, 1, 2, 3, 4]))
def test_a_float_array_prints_as_its_list(values, width):
    array = np.array(values, dtype=float)
    if width is not None:
        array = array[:len(values) // width * width].reshape(-1, width)
    assert dumps(array) == dumps(array.tolist())
    assert dumps({"a": [array, array.T]}) == dumps({"a": [array.tolist(), array.T.tolist()]})


@pytest.mark.parametrize("array, text", [
    (np.zeros(0), "[]"), (np.zeros((0, 2)), "[]"), (np.zeros((2, 0)), "[[], []]"),
    (np.array([-0.0, 0.1, 5e-324]), "[-0, 0.10000000000000001, 4.9406564584124654e-324]"),
    (np.array([[1.0, -2.5], [1e308, 3.0]]), "[[1, -2.5], [1e+308, 3]]"),
    (np.array([3, -1, 0]), "[3, -1, 0]"), (np.array([[1, 2]], dtype=np.int32), "[[1, 2]]"),
    (np.array([True, False]), "[true, false]"), (np.array([[False]]), "[[false]]"),
    (np.zeros((1, 2, 2)), "[[[0, 0], [0, 0]]]"),
])
def test_array_text(array, text):
    assert dumps(array) == text


@pytest.mark.parametrize("shape", [(5,), (3, 2), (2, 3)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_array_entry_raises(shape, bad):
    for flat in range(math.prod(shape)):
        array = np.arange(math.prod(shape), dtype=float).reshape(shape)
        array.reshape(-1)[flat] = bad
        with pytest.raises(NonFiniteError):
            dumps({"x": [array]})
        index = np.unravel_index(flat, shape)
        assert find_nan({"x": [array]}) == "$.x[0]" + "".join(f"[{i}]" for i in index)
