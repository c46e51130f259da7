"""One value walker in two modes: over numpy lanes (``Expr._columns``)
against Python floats at a point (``Expr.eval``, the reference).  A lane
fails exactly where ``eval`` raises, with its text, and every other lane
holds the bits ``eval`` returns, finite or not."""

import math
import operator
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import binary, column_values, leaf_expressions
from macontact.expr import FUNCTIONS, EvalDomainError, Expr, _call, _Lanes, _pow, parse
from macontact.monge_ampere import GridSpec, MAEquation, classify_region

VARS = ("x", "y", "z")

numbers = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, 1e300]),
                    st.floats(-5, 5, allow_nan=False))
leaves = leaf_expressions(numbers, VARS)


def _extend(children):
    return st.one_of(
        children.map(operator.neg),
        st.builds(binary, st.sampled_from("+-*/"), children, children),
        st.builds(operator.pow, children, st.integers(-3, 4)),
        st.builds(Expr.apply, children, st.sampled_from(FUNCTIONS)),
    )


trees = st.recursive(leaves, _extend, max_leaves=12)
lanes = st.lists(st.tuples(numbers, numbers, numbers), min_size=1, max_size=8)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _same_bits(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or _bits(a) == _bits(b)


@settings(max_examples=300, deadline=None)
@given(trees, lanes)
def test_columns_match_scalar_eval_bitwise(expr, points):
    columns = [np.array(c) for c in zip(*points)]
    values, flagged = column_values(expr, columns)
    assert values.shape == flagged.shape == (len(points),)
    for lane, point in enumerate(points):
        try:
            expected = expr.eval(point)
        except (EvalDomainError, ValueError):
            assert flagged[lane], (expr.to_string(), point)
            continue
        assert not flagged[lane], (expr.to_string(), point)
        assert _same_bits(values[lane], expected), (expr.to_string(), point)


@settings(max_examples=300, deadline=None)
@given(trees, st.tuples(numbers, numbers, numbers))
def test_eval_returns_a_python_float(expr, point):
    # cli.dumps writes only an exact float: no numpy scalar may leak from the walk
    try:
        value = expr.eval(point)
    except EvalDomainError:
        return
    assert type(value) is float, (expr.to_string(), point)


def _columns(text, *columns):
    expr = parse(text, VARS[:len(columns)])
    values, flagged = column_values(expr, [np.array(c, dtype=float) for c in columns])
    return values.tolist(), flagged.tolist()


def test_division_by_zero_flags_only_its_lane():
    values, flagged = _columns("1/x", [2.0, 0.0, -0.0, 4.0])
    assert flagged == [False, True, True, False]
    assert values[0] == 0.5 and values[3] == 0.25


def test_zero_to_negative_power_is_flagged():
    assert _columns("x^-2", [0.0, 2.0])[1] == [True, False]


def test_ln_and_sqrt_domains_are_flagged():
    assert _columns("ln(x)", [0.0, -1.0, 1.0])[1] == [True, True, False]
    assert _columns("sqrt(x)", [0.0, -1e-300, 4.0]) == ([0.0, 0.0, 2.0], [False, True, False])


def test_math_overflow_is_flagged_and_non_finite_intermediates_are_not():
    assert _columns("exp(x)", [1000.0, 1.0])[1] == [True, False]
    # x*x overflows to inf and 1/inf is a finite 0.0: no lane raises
    values, flagged = _columns("1/(x*x)", [1e200, 2.0])
    assert flagged == [False, False]
    expr = parse("1/(x*x)", VARS[:1])
    assert all(_same_bits(v, expr.eval((x,))) for v, x in zip(values, [1e200, 2.0]))


def test_transcendental_lanes_use_math():
    xs = np.linspace(-3, 3, 101)
    for func in ("sin", "cos", "exp"):
        values, flagged = _columns(f"{func}(x)", xs)
        assert not any(flagged)
        assert values == [getattr(math, func)(x) for x in xs.tolist()]


def test_constant_expression_fills_every_lane():
    values, flagged = _columns("2^3 - 1/4", [0.0, 1.0, 2.0])
    assert values == [7.75] * 3 and flagged == [False] * 3
    assert _columns("1/0 + x", [1.0, 2.0])[1] == [True, True]


def test_column_count_must_match_variables():
    with pytest.raises(ValueError, match="2 variables"):
        column_values(parse("x + y", VARS[:2]), [np.zeros(3)])


# --- error texts from the column pass ---------------------------------------------

# leaves that overflow, are infinite or NaN, so that lanes raise in every
# way and carry non-finite intermediates that Expr.eval keeps
wide_numbers = st.one_of(numbers, st.sampled_from([math.inf, -math.inf, math.nan, 1e308]))
wide_leaves = leaf_expressions(wide_numbers, VARS)
wide_trees = st.recursive(wide_leaves, _extend, max_leaves=12)
wide_lanes = st.lists(st.tuples(wide_numbers, wide_numbers, wide_numbers),
                      min_size=1, max_size=8)


@settings(max_examples=400, deadline=None)
@given(wide_trees, wide_lanes)
def test_column_errors_and_values_match_scalar_eval(expr, points):
    lanes = _Lanes(len(points))
    values = expr._columns([np.array(c) for c in zip(*points)], lanes)
    flagged, errors = lanes.raised, lanes.errors
    for lane, point in enumerate(points):
        try:
            expected = expr.eval(point)
        except EvalDomainError as exc:
            assert errors.get(lane) == str(exc), (expr.to_string(), point)
            assert flagged[lane]
            continue
        assert lane not in errors and not flagged[lane], (expr.to_string(), point)
        assert _same_bits(values[lane], expected), (expr.to_string(), point)


def _errors(text, *columns):
    expr = parse(text, VARS[:len(columns)])
    lanes = _Lanes(len(columns[0]))
    values = expr._columns([np.array(c, dtype=float) for c in columns], lanes)
    return values.tolist(), lanes.errors


def test_exp_overflow_gives_the_scalar_text():
    values, errors = _errors("exp(x)", [1.0, 1000.0, 2.0])
    assert errors == {1: "evaluation overflow: math range error"}
    assert values[0] == math.exp(1.0) and values[2] == math.exp(2.0)


def test_non_finite_intermediate_keeps_the_scalar_value():
    # x*x overflows to inf and 1/inf is 0.0, as Expr.eval gives
    assert _errors("1/(x*x)", [1e200, 2.0]) == ([0.0, 0.25], {})


def test_first_error_in_depth_first_order_wins():
    assert _errors("ln(x) + sqrt(x)", [-1.0, 4.0])[1] == {0: "ln of nonpositive value -1.0"}


def test_constant_error_is_broadcast_to_every_lane():
    assert _errors("1/0 + x", [1.0, 2.0, 3.0])[1] == dict.fromkeys(range(3), "division by zero")


def test_zero_power_of_a_lane_is_a_float64_that_fails_as_eval_raises():
    # x^0 is 1.0 in every lane; a difference of two is a zero divisor
    assert _errors("x^0/(x^0 - x^0)", [1.0, 2.0])[1] == dict.fromkeys(range(2), "division by zero")
    assert (_errors("(x^0 - x^0)^-1", [1.0, 2.0])[1]
            == dict.fromkeys(range(2), "zero raised to a negative power"))
    with pytest.raises(EvalDomainError, match="division by zero"):
        parse("x^0/(x^0 - x^0)", VARS[:1]).eval((1.0,))


class _CountingText(str):
    """An error text that counts the calls of its ``format``."""

    def format(self, *args):
        self.calls = getattr(self, "calls", 0) + 1
        return super().format(*args)


def test_failing_lanes_format_each_distinct_value_once():
    values = np.array([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 1e-300,
                       -5e-324, 0.1 + 0.2] * 40)
    np.random.default_rng(5).shuffle(values)
    mask = np.arange(len(values)) % 7 != 3
    lanes = _Lanes(len(values))
    lanes.fail(values == 1e-300, "first")  # the first error wins
    text = _CountingText("bad value {}")
    lanes.fail(mask, text, values)
    assert text.calls <= len(set(values[mask & (values != 1e-300)].view(np.int64).tolist()))
    assert lanes.errors == {i: "first" if v == 1e-300 else f"bad value {v}"
                            for i, v in enumerate(values.tolist()) if mask[i] or v == 1e-300}
    assert lanes.raised.tolist() == (mask | (values == 1e-300)).tolist()
    assert {"bad value -0.0", "bad value 0.0"} <= set(lanes.errors.values())


# --- broadcast lanes: each subtree at the shape of the variables it reads ----------

grid_axes = st.lists(wide_numbers, min_size=1, max_size=4)


@settings(max_examples=400, deadline=None)
@given(wide_trees, grid_axes, grid_axes, wide_numbers)
def test_broadcast_columns_match_scalar_eval(expr, xs, ys, z):
    # x runs along the first lane axis, y along the second and z is 0-d, as
    # GridSpec.axis_columns lays out a grid
    lanes = _Lanes((len(xs), len(ys)))
    columns = (np.array(xs)[:, None], np.array(ys)[None, :], np.array(z))
    values = expr._columns(columns, lanes)
    assert values.shape == lanes.raised.shape
    for lane, point in enumerate((x, y, z) for x in xs for y in ys):
        try:
            expected = expr.eval(point)
        except EvalDomainError as exc:
            assert lanes.errors.get(lane) == str(exc), (expr.to_string(), point)
            assert lanes.raised.flat[lane]
            continue
        assert lane not in lanes.errors and not lanes.raised.flat[lane], (expr.to_string(), point)
        assert _same_bits(values.flat[lane], expected), (expr.to_string(), point)


def test_call_on_a_broadcast_argument_fails_each_lane_with_its_own_value():
    # a 2x3 grid of lanes: ln's argument runs along rows, sqrt's along columns
    lanes = _Lanes((2, 3))
    logs = _call("ln", np.array([[-1.0], [4.0]]), lanes)
    roots = _call("sqrt", np.array([[0.25, -2.0, -3.0]]), lanes)
    assert logs.shape == (2, 1) and roots.shape == (1, 3)
    assert logs.tolist() == [[0.0], [math.log(4.0)]]  # out of the domain reads 0.0
    assert roots.tolist() == [[0.5, 0.0, 0.0]]
    assert lanes.errors == {0: "ln of nonpositive value -1.0",
                            1: "ln of nonpositive value -1.0",
                            2: "ln of nonpositive value -1.0",
                            4: "sqrt of negative value -2.0",
                            5: "sqrt of negative value -3.0"}
    assert lanes.raised.tolist() == [[True, True, True], [False, True, True]]


def test_pow_on_a_broadcast_argument_fails_where_it_overflows():
    try:
        1e200 ** 2
    except OverflowError as exc:
        text = f"evaluation overflow: {exc}"
    lanes = _Lanes((2, 3))
    lanes.fail(np.array([[True], [False]]), "first")  # the first error wins
    out = _pow(np.array([[1e200, 3.0, -1e200]]), 2, lanes)
    assert out.shape == (1, 3) and out.tolist() == [[math.inf, 9.0, math.inf]]
    assert lanes.errors == {0: "first", 1: "first", 2: "first", 3: text, 5: text}


def test_classify_keeps_the_first_coefficient_error():
    # both A and D raise on the first cell; the scalar discriminant stops at A
    eq = MAEquation.from_strings(A="ln(x1) + 1", C="1", D="1/x1")
    region = classify_region(eq, GridSpec({"x1": (0.0, 1.0, 2)}))
    assert region.errors == {0: "ln of nonpositive value 0.0"}
    assert region.deltas[1] == -4.0
