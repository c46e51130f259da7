"""`verify`'s samples as ``Rows``: one template per row inside ``dumps``.

The reference is the payload the writer replaced, one dict per sample
rendered through ``dumps``; the ``Rows`` text must equal it byte for
byte, and ``find_nan`` must name the same path in both.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macontact import cli, monge_ampere
from macontact.cli import NonFiniteError, Rows, dumps, find_nan, main
from macontact.expr import parse

KEYS = ("base", "residual", "defect", "decomposition_deviation")

# signed zeros, the smallest subnormal, the largest magnitudes, and inexact
# values whose 17 digits differ from their shortest repr
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
         0.1, 1 / 3, -2.5e-10, 123456.789]
floats = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)


def _columns(value, rows) -> dict:
    return {"base": np.array([[value(), value()] for _ in range(rows)]),
            **{key: np.array([value() for _ in range(rows)]) for key in KEYS[1:]}}


def _dicts(columns) -> list:
    """The payload entries as the writer built them before ``Rows``."""
    return [{"base": base, "residual": res, "defect": defect, "decomposition_deviation": dev}
            for base, res, defect, dev in zip(*(columns[key].tolist() for key in KEYS))]


@st.composite
def sample_columns(draw):
    if draw(st.booleans()):
        return _columns(lambda: draw(floats), 1)
    # 600 rows from a drawn palette, so that the draw stays small
    palette = draw(st.lists(floats, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _columns(lambda: palette[rng.integers(len(palette))], 600)


@settings(max_examples=60, deadline=None)
@given(columns=sample_columns())
def test_rows_render_as_the_dicts_they_stand_for(columns):
    rows = Rows(**columns)
    assert rows.dicts() == _dicts(columns)
    assert dumps({"samples": rows, "n": 1}) == dumps({"samples": _dicts(columns), "n": 1})


@settings(max_examples=60, deadline=None)
@given(columns=sample_columns(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       row=st.integers(0, 599), col=st.integers(0, 4))
def test_a_non_finite_entry_raises_and_find_nan_names_it(columns, bad, row, col):
    row %= len(columns["residual"])
    if col < 2:
        columns["base"][row, col] = bad
        path = f"$.samples[{row}].base[{col}]"
    else:
        columns[KEYS[col - 1]][row] = bad
        path = f"$.samples[{row}].{KEYS[col - 1]}"
    with pytest.raises(NonFiniteError):
        dumps({"samples": Rows(**columns)})
    assert find_nan({"samples": Rows(**columns)}) == find_nan({"samples": _dicts(columns)}) == path


def _argv(samples, *extra):
    return ["verify", "--A", "1.5", "--B", "-0.7", "--C", "2", "--D", "-2.09",
            "--f", "0.5*x1^2 + 0.3*x1*x2 + 0.2*x2^2 + 0.1*x1 - 0.3*x2",
            "--samples", str(samples), "--seed", "7", *extra]


def _reference_stdout(argv) -> str:
    """``cmd_verify``'s output built as it was before ``Rows``."""
    args = cli.build_parser().parse_args(argv)
    eq = cli._equation_from_args(args)
    bases = np.random.default_rng(args.seed).uniform(-args.range, args.range,
                                                     size=(args.samples, 2))
    report = monge_ampere.invariance_defects(eq, parse(args.f, ("x1", "x2")), bases)
    entries = _dicts({"base": bases, "residual": report.residual, "defect": report.defect,
                      "decomposition_deviation": report.decomposition_deviation})
    max_res = max(abs(e["residual"]) for e in entries)
    max_defect = max(e["defect"] for e in entries)
    return dumps({
        "equation": {name: getattr(args, name) for name in "NABCD"},
        "solution": args.f,
        "samples": entries,
        "max_residual": max_res,
        "max_defect": max_defect,
        "max_decomposition_deviation": max(e["decomposition_deviation"] for e in entries),
        "passed": max_res <= 1e-9 and max_defect <= 1e-8,
    }) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("samples", [1, 600])
def test_verify_prints_and_writes_the_bytes_of_the_dict_payload(samples, tmp_path):
    expected = _reference_stdout(_argv(samples))
    assert _run(_argv(samples)) == (0, expected, "")
    out = tmp_path / "verify.json"
    assert _run(_argv(samples, "--out", str(out))) == (0, "", "")
    assert out.read_bytes() == expected.encode()


@settings(max_examples=30, deadline=None)
@given(samples=st.sampled_from([1, 600]), row=st.integers(0, 599),
       key=st.sampled_from(KEYS[1:]), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_verify_names_a_non_finite_sample_in_one_line_and_exits_3(samples, row, key, bad):
    row %= samples
    exact = monge_ampere.invariance_defects

    def poisoned(eq, f, bases):
        report = exact(eq, f, bases)
        getattr(report, key)[row] = bad
        return report

    line = f"error: non-finite value at $.samples[{row}].{key}\n"
    with mock.patch.object(monge_ampere, "invariance_defects", poisoned), \
            tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "verify.json")
        assert _run(_argv(samples)) == (3, "", line)
        assert _run(_argv(samples, "--out", out)) == (3, "", line)
        assert not os.path.exists(out)


# --- Rows stream in blocks of rows ----------------------------------------------------

def _collect_emit(monkeypatch, payload) -> tuple:
    """``_emit``'s exit code and the texts it hands to one write call."""
    written = []
    monkeypatch.setattr(cli, "_write", lambda texts, args: written.append(list(texts)))
    code = cli._emit(payload, cli.build_parser().parse_args(_argv(1)))
    return code, written


@pytest.mark.parametrize("block", [1, 2, 3, 10_000])
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 7])
def test_emit_streams_rows_in_blocks_with_the_bytes_of_dumps(monkeypatch, block, rows):
    monkeypatch.setattr(cli, "_BLOCK_CELLS", block)
    columns = _columns(iter(np.random.default_rng(rows).uniform(-9, 9, 9 * rows)).__next__, rows)
    payload = {"samples": Rows(**columns), "n": 1,
               "more": Rows(params=columns["base"], ok=columns["defect"] > 0)}
    code, written = _collect_emit(monkeypatch, payload)
    oracle = {"samples": _dicts(columns), "n": 1,
              "more": [{"params": p, "ok": ok} for p, ok in
                       zip(columns["base"].tolist(), (columns["defect"] > 0).tolist())]}
    assert code == 0 and len(written) == 1
    assert "".join(written[0]) == dumps(payload) + "\n" == dumps(oracle) + "\n"
    # each text holds at most one block of rows
    assert max(t.count('"residual"') for t in written[0]) <= block
    assert max(t.count('"params"') for t in written[0]) <= block


def test_emit_writes_a_payload_without_rows_as_one_text(monkeypatch):
    payload = {"a": 1.5, "b": [np.array([0.25, -0.0])], "c": "x"}
    assert _collect_emit(monkeypatch, payload) == (0, [[dumps(payload) + "\n"]])


def test_emit_checks_every_block_before_the_first_byte(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 2)
    columns = _columns(iter(np.linspace(-1, 1, 9 * 7)).__next__, 7)
    columns["defect"][6] = np.nan  # in the last block
    assert _collect_emit(monkeypatch, {"samples": Rows(**columns)}) == (3, [])
    assert capsys.readouterr().err == "error: non-finite value at $.samples[6].defect\n"
