"""Command-line front end.

Subcommands: classify, verify, bend, contact, rmanifold, selfadjoint.
All numeric output is JSON (CSV where it is tabular) with floats printed
to 17 significant digits, so identical inputs and seed produce
byte-identical files.  Exit codes: 0 success, 1 verification failed,
2 bad input, 3 numeric failure (including any NaN); 4 is reserved and
no code path returns it.
"""

import argparse
import itertools
import math
import os
import sys
from collections import defaultdict
from functools import lru_cache, partial

import numpy as np

from . import bends, monge_ampere, rmanifold, symplectic
from .contact import ContactChart, DarbouxPoint, contact_field, contact_form_value
from .expr import EvalDomainError, ParseError, parse
from .gates import GATES, passes
from .monge_ampere import GridSpec, MAEquation
from .rmanifold import RManifoldSpec
from .zeta import ZetaKind

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

DEFAULT_GRID = "x1=-1:1:5,x2=-1:1:5"
MAX_POLY_DEGREE = 32  # largest jet order of a `bend` input (README)
MAX_GRID_CELLS = 1_000_000  # largest `classify` grid (README)
MAX_CLOUD_POINTS = 100_000  # largest `rmanifold --export` cloud (README)
MAX_VERIFY_SAMPLES = 100_000  # largest `verify --samples` (README)
MAX_REPORT_SAMPLES = 10_000  # largest `rmanifold --samples` (README)
MAX_HALF_FLOAT = sys.float_info.max / 2  # largest x with 2x finite


# --- deterministic serialization ----------------------------------------------

class NonFiniteError(ValueError):
    """A NaN or infinity reached the writer; JSON and the CSV have no spelling for it."""


# JSON must escape every control character below U+0020, besides \ and "
_STRING_ESCAPES = str.maketrans(
    {**{chr(i): f"\\u{i:04x}" for i in range(0x20)},
     "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t",
     "\\": "\\\\", '"': '\\"'})


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise NonFiniteError(value)
    return format(value, ".17g")


@lru_cache(maxsize=4096)
def _quote(text: str) -> str:
    return '"' + text.translate(_STRING_ESCAPES) + '"'


_BOOL_TEXT = np.array(["false", "true"], dtype=object)


def _require_finite(values: np.ndarray) -> None:
    """Raise NonFiniteError on the first NaN or infinity of ``values``."""
    finite = np.isfinite(values)
    if not finite.all():
        raise NonFiniteError(values[~finite][0])


_BLOCK_CELLS = 10_000  # cells or rows per written block (README)


class Rows:
    """A list of dicts with the same keys, held as columns: each column is
    float64 or bool, and 1-D (a value per row) or 2-D (a list per row).

    ``blocks`` writes it with one ``%`` template per row, ``%.17g`` being
    ``_format_float``'s text for a finite float and a bool written
    ``true``/``false``, ``_BLOCK_CELLS`` rows at a time; ``require_finite``
    checks the float columns beforehand.  ``find_nan`` reads it as the
    list of dicts it stands for.
    """

    __slots__ = ("columns",)

    def __init__(self, **columns):
        self.columns = columns

    def dicts(self) -> list:
        keys = list(self.columns)
        return [dict(zip(keys, row))
                for row in zip(*(column.tolist() for column in self.columns.values()))]

    def require_finite(self) -> None:
        """Raise NonFiniteError on the first NaN or infinity of a float column."""
        for column in self.columns.values():
            if column.dtype != bool:
                _require_finite(column)

    def blocks(self):
        """The JSON array of the rows as texts of up to ``_BLOCK_CELLS`` rows."""
        fields, cells = [], []
        for key, column in self.columns.items():
            spec = "%.17g"
            if column.dtype == bool:
                spec, column = "%s", _BOOL_TEXT[column.view(np.uint8)]
            if column.ndim > 1:
                spec = "[" + ", ".join([spec] * column.shape[1]) + "]"
            fields.append(f"{_quote(key)}: {spec}")
            cells.append(column)
        template = "{" + ", ".join(fields) + "}"
        yield "["
        for start in range(0, len(cells[0]), _BLOCK_CELLS):
            rows = np.column_stack([c[start:start + _BLOCK_CELLS] for c in cells]).tolist()
            yield (", " if start else "") + ", ".join([template % tuple(row) for row in rows])
        yield "]"


def _json_parts(obj) -> tuple:
    """The JSON of ``obj`` as a list of texts with each ``Rows`` left in
    place, its float columns checked, and the positions of the ``Rows``.

    Raises NonFiniteError on a NaN or infinity; ``find_nan`` names where.
    """
    parts, rows_at = [], []
    append = parts.append

    def walk(obj):
        kind = type(obj)
        if kind is float:
            append(_format_float(obj))
        elif kind is str:
            append(_quote(obj))
        elif kind is int:
            append(str(obj))
        elif kind is dict:
            append("{")
            sep = ""
            for key, value in obj.items():
                append(sep)
                append(_quote(str(key)))
                append(": ")
                walk(value)
                sep = ", "
            append("}")
        elif kind is np.ndarray and obj.dtype == np.float64 and 0 < obj.ndim < 3:
            row = "[" + ", ".join(["%.17g"] * obj.shape[-1]) + "]"
            text = (row % tuple(obj.tolist()) if obj.ndim == 1
                    else "[" + ", ".join([row % tuple(r) for r in obj.tolist()]) + "]")
            if "n" in text:  # %.17g spells only inf and nan with letters other than e
                _require_finite(obj)
            append(text)
        elif kind is list or kind is tuple or kind is np.ndarray:
            append("[")
            sep = ""
            for value in (obj.tolist() if kind is np.ndarray else obj):
                append(sep)
                walk(value)
                sep = ", "
            append("]")
        elif kind is Rows:
            obj.require_finite()
            rows_at.append(len(parts))
            append(obj)
        elif obj is None:
            append("null")
        elif kind is bool:
            append("true" if obj else "false")
        else:
            raise TypeError(f"cannot serialize {type(obj)!r}")

    walk(obj)
    return parts, rows_at


def _texts(parts, rows_at):
    """The texts of ``_json_parts``: each run of texts joined into one, each
    ``Rows`` as its blocks."""
    lo = 0
    for i in rows_at:
        yield "".join(parts[lo:i])
        yield from parts[i].blocks()
        lo = i + 1
    yield "".join(parts[lo:])


def dumps(obj) -> str:
    """JSON with floats at 17 significant digits (bitwise reproducible).

    Raises NonFiniteError on a NaN or infinity; ``find_nan`` names where.
    """
    return "".join(_texts(*_json_parts(obj)))


def find_nan(obj, path="$"):
    """Path to the first non-finite float in the structure, or None."""
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(float(obj)):
            return path
    elif isinstance(obj, dict):
        for key, value in obj.items():
            hit = find_nan(value, f"{path}.{key}")
            if hit:
                return hit
    elif isinstance(obj, Rows):
        return find_nan(obj.dicts(), path)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, value in enumerate(seq):
            hit = find_nan(value, f"{path}[{i}]")
            if hit:
                return hit
    return None


def _emit(payload, args) -> int:
    """Write ``payload`` as JSON to --out or stdout, in one write, or one
    per block of a ``Rows`` in it.

    One walk over the payload renders it and checks the ``Rows`` columns
    before anything is written; if it meets a non-finite float, nothing is
    written, ``find_nan`` names the place and the exit code is 3.
    """
    try:
        parts, rows_at = _json_parts(payload)
    except NonFiniteError:
        print(f"error: non-finite value at {find_nan(payload)}", file=sys.stderr)
        return EXIT_NUMERIC
    parts.append("\n")
    _write(_texts(parts, rows_at), args)
    return EXIT_OK


def _write(texts, args):
    if args.out:
        with open(args.out, "w") as handle:
            handle.writelines(texts)
    else:
        sys.stdout.writelines(texts)


# --- classify and report output: one `%` template per line of the last axis --
#
# A line is the cells that share every leading index.  Its template holds the
# last-axis indices as text and \x00 for the leading-index label; %.17g is
# _format_float's text, a non-error Delta being finite.  An error cell's row
# takes its message in the Delta's place and drops its type text (%.0s).  A
# line over _BLOCK_CELLS, a power of ten, is cut into pieces that long: index
# q*_BLOCK_CELLS + r reads q, put in with the label, then r.

_JSON_TYPES = np.array([_quote(t) if t else "null" for t in monge_ampere.TYPE_NAMES], dtype=object)
_CSV_TYPES = np.array([t or "" for t in monge_ampere.TYPE_NAMES], dtype=object)


def _region_blocks(region, sep, row, error_row, joiner, quote, types):
    """The cells as text in blocks of whole lines or of one piece of a long line,
    each block but the first led by ``joiner``; rows have ``{}`` for the index."""
    shape, codes, deltas, errors = region.grid.shape(), region.codes, region.deltas, region.errors
    if not codes.size:
        return
    last, lead = (shape[-1] if shape else 1), (sep if len(shape) > 1 else "")
    seg, width = min(last, _BLOCK_CELLS), len(str(_BLOCK_CELLS)) - 1

    def templates(padded, n):
        tails = [f"\x00{j:0{width}d}" if padded else "\x00" + lead + str(j) * bool(shape)
                 for j in range(n)]
        rows = [row.format(t) for t in tails]
        return joiner.join(rows), rows, [error_row.format(t) + "%.0s" for t in tails]
    kinds = {k: templates(*k) for k in {(False, seg), (last > seg, seg), (True, last % seg)}}

    def pieces():  # (label, kind) of each line, or of each piece of a long line
        digits = ([str(i) for i in range(n)] for n in shape[:-1])
        for head in map(sep.join, itertools.product(*digits)):
            for j in range(0, last, seg):
                yield (head + lead + str(j // seg) if j else head), (j > 0, min(seg, last - j))

    lo, parts = 0, pieces()
    while block := list(itertools.islice(parts, max(1, _BLOCK_CELLS // last))):
        line, rows, error_rows = kinds[block[0][1]]  # a block's pieces are all of one kind
        n = len(rows)
        hi = lo + len(block) * n
        values = np.stack([deltas[lo:hi].astype(object), types[codes[lo:hi]]], 1).ravel().tolist()
        patched = defaultdict(rows.copy)  # line of the block -> its rows, error rows put in
        for i in np.flatnonzero(codes[lo:hi] == monge_ampere.ERROR).tolist():
            values[2 * i] = quote(errors[lo + i])
            patched[i // n][i % n] = error_rows[i % n]
        out = [""] if lo else []  # joiner.join(out) then leads with the joiner
        for k, (head, _) in enumerate(block):
            out.append((joiner.join(patched[k]) if k in patched else line).replace("\x00", head))
        yield joiner.join(out) % tuple(values)
        lo = hi


def _region_json(region):
    """The JSON of a region plus a newline, in blocks: its grid, then one
    object per cell in row-major order with the cell's index, delta and
    type (both null on an error cell, which adds its error text)."""
    yield f'{{"grid": {dumps(region.grid_json_dict())}, "cells": ['
    yield from _region_blocks(region, ", ", '{{"index": [{}], "delta": %.17g, "type": %s}}',
                              '{{"index": [{}], "delta": null, "type": null, "error": %s}}',
                              ", ", _quote, _JSON_TYPES)
    yield "]}\n"


def _region_csv(region):
    """One line per cell, index,delta,type,error, in blocks; error text is written raw."""
    yield "index,delta,type,error\n"
    yield from _region_blocks(region, ";", "{},%.17g,%s,\n", "{},,,%s\n", "", str, _CSV_TYPES)


def _report_payload(report) -> dict:
    """A singular-point report's payload: samples as ``Rows``, excluded directions as an array."""
    params, dets, ratios, oks = zip(*report.samples)
    return {"k": report.spec.k, "l": report.spec.l, "kind": report.spec.kind.value,
            "radius": report.radius,
            "samples": Rows(params=np.array(params), det=np.array(dets),
                            sigma_ratio=np.array(ratios), rank2_ok=np.array(oks)),
            "excluded_null_cone": np.array(report.excluded_null_cone).reshape(-1, 2),
            "origin_base_derivative": report.origin_base_derivative,
            "origin_rank0_ok": report.origin_rank0_ok, "bend_angle": report.bend_angle,
            "bend_angle_swapped": report.bend_angle_swapped, "bend_ok": report.bend_ok,
            "unique_singular_point": report.unique_singular_point}


# --- argument helpers ----------------------------------------------------------

def _convert(kind, text: str):
    """``kind(text)``, or the ArgumentTypeError argparse reports for it."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def _positive_int(text: str, cap=None) -> int:
    """An int of at least 1 and, if ``cap`` is given, at most ``cap``: a
    count that would exhaust memory exits 2 before anything is allocated."""
    value = _convert(int, text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if cap is not None and value > cap:
        raise argparse.ArgumentTypeError(f"{value} is above the cap {cap}")
    return value


def _positive_float(text: str) -> float:
    """A positive float whose double is finite: the flags that take it
    sample [-x, x] or a circle of radius 2x."""
    value = _convert(float, text)
    if not 0 < value <= MAX_HALF_FLOAT:
        raise argparse.ArgumentTypeError(f"must be positive and at most "
                                         f"{MAX_HALF_FLOAT!r}, got {value!r}")
    return value


def _nonneg_float(text: str) -> float:
    """A finite float of at least 0: every tolerance and band takes it, so
    no comparison against it turns vacuous (``x > nan`` is always false)."""
    value = _convert(float, text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {value!r}")
    return value


def _parse_grid(text: str) -> dict:
    """Axes var -> (lo, hi, count) of a --grid value."""
    if text == "default":
        text = DEFAULT_GRID
    axes = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, rng = chunk.partition("=")
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise ValueError(f"grid axis {chunk!r} is not var=lo:hi:count")
        name = name.strip()
        if name in axes:
            raise ValueError(f"grid axis {name!r} is given twice")
        axes[name] = (float(pieces[0]), float(pieces[1]), int(pieces[2]))
    return axes


def _parse_fixed(text: str) -> dict:
    fixed = {}
    if not text:
        return fixed
    for chunk in text.split(","):
        name, _, value = chunk.partition("=")
        name = name.strip()
        if name in fixed:
            raise ValueError(f"fixed variable {name!r} is given twice")
        fixed[name] = float(value)
    return fixed


def _floats(text: str, count: int, name: str, items: str) -> list:
    """Exactly ``count`` comma-separated floats, the value of --``name``."""
    values = [float(v) for v in text.split(",")]
    if len(values) != count:
        raise ValueError(f"{name} needs {count} comma-separated {items}")
    return values


def _homogeneous_poly(text: str, degree: int) -> bends.HomPoly:
    """The polynomial as a form of the given degree, rejecting any other term.

    The jet is taken to order max(degree, degree bound of the input), so
    every term of the input is seen; an order above MAX_POLY_DEGREE, which
    would make that jet costly, is refused.  Every coefficient must be
    finite, and one of another degree must pass the ``poly_homogeneous``
    gate (at most 1e-12 times the largest coefficient).
    """
    expr = parse(text, ("x", "y"))
    bound = expr.degree_bound()
    if bound is None:
        raise ValueError(f"{text!r} is not a polynomial in x, y")
    order = max(degree, bound)
    if order > MAX_POLY_DEGREE:
        raise ValueError(f"{text!r} at --k {degree} needs a jet of order "
                         f"{order}, above the cap {MAX_POLY_DEGREE}")
    jet = expr.eval_jet((0.0, 0.0), order).coeffs
    if not all(map(math.isfinite, jet.values())):
        raise ValueError(f"{text!r} has a non-finite coefficient")
    scale = max(map(abs, jet.values()), default=0.0)
    coeffs = np.zeros(degree + 1)
    for alpha, value in jet.items():
        if sum(alpha) == degree:
            coeffs[alpha[0]] = value
        elif not passes("poly_homogeneous", abs(value), scale):
            raise ValueError(f"{text!r} is not homogeneous of degree {degree}")
    return bends.HomPoly(degree, coeffs)


def _equation_from_args(args) -> MAEquation:
    return MAEquation.from_strings(N=args.N, A=args.A, B=args.B,
                                   C=args.C, D=args.D)


def _add_coefficient_flags(sub):
    for name in "NABCD":
        sub.add_argument(f"--{name}", default="0",
                         help=f"coefficient {name} as an expression in "
                              "x1, x2, u, p1, p2 (default 0)")


# --- subcommands ----------------------------------------------------------------

def cmd_classify(args) -> int:
    eq = _equation_from_args(args)
    grid = GridSpec(_parse_grid(args.grid), _parse_fixed(args.fixed))
    if grid.size() > MAX_GRID_CELLS:
        raise ValueError(f"grid has {grid.size()} cells, above the cap {MAX_GRID_CELLS}")
    region = monge_ampere.classify_region(eq, grid, band=args.band)
    if not passes("error_fraction", region.error_fraction, threshold=args.max_error_fraction):
        print(f"error: {region.error_fraction:.2%} of cells failed to "
              "evaluate", file=sys.stderr)
        return EXIT_NUMERIC
    _write(_region_csv(region) if args.format == "csv" else _region_json(region), args)
    return EXIT_OK


def _given(args, names) -> list:
    """The flags among ``names`` that the command line sets (their
    defaults are None), spelled as options."""
    return ["--" + n.replace("_", "-") for n in names if getattr(args, n) is not None]


def cmd_verify(args) -> int:
    if args.tol is not None:
        own = _given(args, ("residual_tol", "defect_tol"))
        if own:
            raise ValueError(f"--tol sets both tolerances; drop {' and '.join(own)}")
        args.residual_tol = args.defect_tol = args.tol
    eq = _equation_from_args(args)
    f = parse(args.f, ("x1", "x2"))
    rng = np.random.default_rng(args.seed)
    bases = rng.uniform(-args.range, args.range, size=(args.samples, 2))
    report = monge_ampere.invariance_defects(eq, f, bases)
    max_res = max(map(abs, report.residual.tolist()))
    max_defect = max(report.defect.tolist())
    max_dev = max(report.decomposition_deviation.tolist())
    passed = (passes("verify_residual", max_res, threshold=args.residual_tol)
              and passes("verify_defect", max_defect, threshold=args.defect_tol))
    payload = {
        "equation": {name: getattr(args, name) for name in "NABCD"},
        "solution": args.f,
        "samples": Rows(base=bases, residual=report.residual, defect=report.defect,
                        decomposition_deviation=report.decomposition_deviation),
        "max_residual": max_res,
        "max_defect": max_defect,
        "max_decomposition_deviation": max_dev,
        "passed": passed,
    }
    code = _emit(payload, args)
    if code != EXIT_OK:
        return code
    return EXIT_OK if passed else EXIT_FAILED


def cmd_bend(args) -> int:
    q1 = _homogeneous_poly(args.q1, args.k)
    q2 = _homogeneous_poly(args.q2, args.k)
    ok, witness = bends.is_bend(args.k, q1, q2)
    payload = {"k": args.k, "is_bend": ok}
    if ok:
        matrix = bends.structure_matrix(*witness)
        kind, generator = bends.classify_bend(matrix)
        payload["kind"] = kind.value
        payload["matrix"] = list(matrix)
        payload["generator"] = generator
        payload["witness"] = {"f": witness[0].coeffs, "g": witness[1].coeffs}
    return _emit(payload, args)


def cmd_contact(args) -> int:
    nu = parse(args.nu, ("x1", "x2", "u", "p1", "p2"))
    pt = DarbouxPoint(*_floats(args.point, 5, "point", "values (x1, x2, u, p1, p2)"))
    field = contact_field(ContactChart(), nu, pt)
    payload = {
        "nu": args.nu,
        "point": list(pt.as_tuple()),
        "components": list(field.components),
        "omega": float(contact_form_value(pt, field)),
    }
    return _emit(payload, args)


# rmanifold flags that act only with --export, and only without it
_CLOUD_DEFAULTS = {"count": 100, "param_range": 1.0, "seed": 42}
_REPORT_DEFAULTS = {"radius": 0.5, "samples": 16}


def cmd_rmanifold(args) -> int:
    spec = RManifoldSpec(args.k, args.l, ZetaKind(args.kind))
    idle = _given(args, _REPORT_DEFAULTS if args.export else _CLOUD_DEFAULTS)
    if idle:
        raise ValueError(f"{idle[0]} acts only {'without' if args.export else 'with'} "
                         "--export")
    for name, value in (_CLOUD_DEFAULTS if args.export else _REPORT_DEFAULTS).items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    if args.export:
        if args.out and os.path.realpath(args.out) == os.path.realpath(args.export):
            raise ValueError("--out and --export name the same file")
        if args.count > MAX_CLOUD_POINTS:
            raise ValueError(f"point cloud has {args.count} points, "
                             f"above the cap {MAX_CLOUD_POINTS}")
        rng = np.random.default_rng(args.seed)
        params = rng.uniform(-args.param_range, args.param_range,
                             size=(args.count, 2))
        rmanifold.write_point_cloud(spec, params, args.export)
        try:
            return _emit({"exported": args.export, "count": args.count}, args)
        except OSError:  # --out cannot be written: leave no cloud behind
            os.remove(args.export)
            raise
    report = rmanifold.singular_point_report(
        spec, radius=args.radius, samples=args.samples)
    return _emit(_report_payload(report), args)


def cmd_selfadjoint(args) -> int:
    matrix = np.array(_floats(args.matrix, 16, "matrix", "entries (row-major)")).reshape(4, 4)
    space = (monge_ampere.darboux_space() if args.space == "darboux"
             else symplectic.standard_space(2))
    result = symplectic.classify_dim4(space, symplectic.Operator(matrix, space),
                                      tol=args.tol)
    payload = {
        "type": result.type.value,
        "minimal_polynomial": list(result.minimal_polynomial),
        "eigenvalues": [[complex(v).real, complex(v).imag]
                        for v in result.eigenvalues],
    }
    if result.complex_structure is not None:
        payload["complex_structure"] = result.complex_structure
    if result.eigenplanes is not None:
        payload["eigenplanes"] = [p for p in result.eigenplanes]
    if result.lagrangian_plane is not None:
        payload["lagrangian_plane"] = result.lagrangian_plane
    return _emit(payload, args)


# --- parser ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never changes
    it, and each ``parse_args`` call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="macontact",
        description="Monge-Ampere equations through contact geometry")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="type map of an equation over a grid")
    _add_coefficient_flags(p)
    p.add_argument("--grid", default="default",
                   help="axes as var=lo:hi:count, comma separated; "
                        f"'default' means {DEFAULT_GRID}")
    p.add_argument("--fixed", default="",
                   help="fixed values for non-axis variables, var=value pairs")
    p.add_argument("--band", type=_nonneg_float, default=GATES["type_band"].threshold,
                   help="parabolic band half-width on the discriminant")
    p.add_argument("--max-error-fraction", type=_nonneg_float,
                   default=GATES["error_fraction"].threshold)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="check a candidate solution")
    _add_coefficient_flags(p)
    p.add_argument("--f", required=True,
                   help="candidate solution as an expression in x1, x2")
    p.add_argument("--samples", type=partial(_positive_int, cap=MAX_VERIFY_SAMPLES), default=50,
                   help=f"base points drawn (default 50, at most {MAX_VERIFY_SAMPLES})")
    p.add_argument("--range", type=_positive_float, default=1.0,
                   help="base points drawn uniformly from [-range, range]^2")
    p.add_argument("--residual-tol", type=_nonneg_float, default=None,
                   help="largest |E| that passes (default 1e-9)")
    p.add_argument("--defect-tol", type=_nonneg_float, default=None,
                   help="largest invariance defect that passes (default 1e-8)")
    p.add_argument("--tol", type=_nonneg_float, default=None,
                   help="set both --residual-tol and --defect-tol (not with them)")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bend", help="bend test for a polynomial pair")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--q1", required=True, help="polynomial in x, y")
    p.add_argument("--q2", required=True, help="polynomial in x, y")
    p.set_defaults(func=cmd_bend)

    p = sub.add_parser("contact", help="contact field of a generating function")
    p.add_argument("--nu", required=True,
                   help="generating function in x1, x2, u, p1, p2")
    p.add_argument("--point", default="0,0,0,0,0",
                   help="chart point, 5 comma-separated values")
    p.set_defaults(func=cmd_contact)

    p = sub.add_parser("rmanifold", help="singular solution family reports")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--kind", choices=("minus", "zero", "plus"), required=True)
    p.add_argument("--radius", type=_positive_float, default=None,
                   help="report only (default 0.5)")
    p.add_argument("--samples", type=partial(_positive_int, cap=MAX_REPORT_SAMPLES), default=None,
                   help=f"report only (default 16, at most {MAX_REPORT_SAMPLES})")
    p.add_argument("--export", default=None,
                   help="write a CSV point cloud to this path instead")
    p.add_argument("--count", type=_positive_int, default=None,
                   help="with --export only (default 100)")
    p.add_argument("--param-range", type=_positive_float, default=None,
                   help="with --export only (default 1.0)")
    p.add_argument("--seed", type=int, default=None, help="with --export only (default 42)")
    p.set_defaults(func=cmd_rmanifold)

    p = sub.add_parser("selfadjoint", help="classify a 4x4 operator")
    p.add_argument("--matrix", required=True,
                   help="16 comma-separated entries, row-major")
    p.add_argument("--space", choices=("standard", "darboux"),
                   default="standard")
    p.add_argument("--tol", type=_nonneg_float, default=GATES["dim4_scalar"].threshold,
                   help="residual tolerance of the classification")
    p.set_defaults(func=cmd_selfadjoint)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write output to a file")
    return parser


@lru_cache(maxsize=None)
def _options() -> dict:
    """Subcommand -> (all its option strings, those that take a value)."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: (frozenset(o for action in p._actions for o in action.option_strings),
                   frozenset(o for action in p._actions if action.nargs is None
                             for o in action.option_strings))
            for name, p in sub.choices.items()}


def _attach_values(argv: list) -> list:
    """``--D -x1`` as ``--D=-x1``: each value-taking option, or a prefix
    that argparse resolves to exactly one (``--poin`` for ``--point``),
    gets the next token as its value, which argparse would read as an
    option if it starts with ``-`` and is no plain negative number."""
    options, values = _options().get(argv[0], ((), ())) if argv else ((), ())
    out, tokens = argv[:1], iter(argv[1:])
    for token in tokens:
        if token.startswith("--") and token not in options:
            matches = [o for o in options if o.startswith(token)]
            option = matches[0] if len(matches) == 1 else None
        else:
            option = token
        value = next(tokens, None) if option in values else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_values(argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EvalDomainError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # --out or --export cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
