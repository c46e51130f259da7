"""The jet walk over coefficient arrays against the ``Jet``-object walk it
replaced, kept here as the oracle: one ``Jet`` per tape entry, a power by
repeated multiplication from the constant 1.0, a function by Horner's rule
from a constant jet, and every product a ``Jet * Jet``.

Every comparison is bitwise on the int64 views, every NaN read as one
pattern: numpy's add returns either operand's NaN depending on its loop,
so the sign of a NaN is not part of a result (README).
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macontact import expr as expr_module
from conftest import BINARY, leaf_expressions
from macontact.expr import EvalDomainError, Expr, Jet, _Lanes, _series_for, parse
from test_expr_columns import VARS, _extend, wide_numbers

# --- the oracle ---------------------------------------------------------------------


def _oracle_compose(jet, series):
    t = jet - jet.value
    out = jet._constant(series[jet.order])
    for m in range(jet.order - 1, -1, -1):
        out = out * t + series[m]
    return out


def _oracle_power(jet, k, lanes):
    if k < 0:
        recip = _oracle_compose(jet, _series_for("1/x", jet.value, jet.order, lanes))
        return _oracle_power(recip, -k, lanes)
    out = jet._constant(1.0)
    for _ in range(k):
        out = out * jet
    return out


def _oracle_divide(a, b, lanes):
    if a.order == 0:
        _series_for("1/x", b.value, 0, lanes)  # fails where b is 0
        return a._constant(a.value / b.value)
    return a * _oracle_compose(b, _series_for("1/x", b.value, b.order, lanes))


def _oracle(expr, base, order, lanes=None):
    """Jet of ``expr`` at the base point and order, one ``Jet`` per tape
    entry, each from the ``Jet`` objects of its operands."""
    zero = Jet.constant(0.0, base, order)
    stack = []
    with np.errstate(all="ignore"):
        for op, arg in expr.tape:
            if op == "num":
                stack.append(zero._constant(arg))
            elif op == "var":
                out = zero._constant(zero.base[arg])
                if zero.order >= 1:
                    out.data[zero.n - arg] = 1.0  # degree-1 rows run from e_(n-1) to e_0
                stack.append(out)
            elif op == "neg":
                stack.append(-stack.pop())
            elif op in BINARY:
                b, a = stack.pop(), stack.pop()
                stack.append(_oracle_divide(a, b, lanes) if op == "/" else BINARY[op](a, b))
            elif op == "^":
                stack.append(_oracle_power(stack.pop(), arg, lanes))
            else:
                a = stack.pop()
                stack.append(_oracle_compose(a, _series_for(op, a.value, a.order, lanes)))
    return stack.pop()


def _bits(data):
    data = np.asarray(data, dtype=float)
    return np.where(np.isnan(data), np.nan, data).view(np.int64)


# --- strategies ---------------------------------------------------------------------

# a number or a negated number as a factor of a product, on either side
numbers = wide_numbers.map(lambda v: Expr.const(v, VARS))
factors = st.one_of(numbers, numbers.map(operator.neg))


def _more(children):
    return st.one_of(
        _extend(children),
        st.builds(operator.mul, factors, children),
        st.builds(operator.mul, children, factors),
    )


trees = st.recursive(leaf_expressions(wide_numbers, VARS), _more, max_leaves=10)
bases = st.tuples(wide_numbers, wide_numbers, wide_numbers)
orders = st.integers(0, 3)


# --- one point ----------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(trees, bases, orders)
def test_point_walk_matches_the_jet_object_walk(expr, base, order):
    try:
        expected = _oracle(expr, base, order)
    except EvalDomainError as exc:
        with pytest.raises(EvalDomainError) as got:
            expr.eval_jet(base, order)
        assert str(got.value) == str(exc), expr.to_string()
        return
    jet = expr.eval_jet(base, order)
    assert jet.data.shape == expected.data.shape and jet.base == expected.base
    assert np.array_equal(_bits(jet.data), _bits(expected.data)), (expr.to_string(), base)


# --- lanes --------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(trees, st.lists(bases, min_size=1, max_size=6), orders)
def test_lane_walk_matches_the_jet_object_walk(expr, points, order):
    columns = [np.array(c) for c in zip(*points)]
    lanes, expected_lanes = _Lanes(len(points)), _Lanes(len(points))
    jet = expr._jets(columns, order, lanes)
    expected = _oracle(expr, tuple(columns), order, expected_lanes)
    assert lanes.raised.tolist() == expected_lanes.raised.tolist(), expr.to_string()
    assert lanes.errors == expected_lanes.errors, expr.to_string()
    assert np.array_equal(_bits(jet.data), _bits(expected.data)), (expr.to_string(), points)
    first = [None, None]
    for k, channel in enumerate((lanes, expected_lanes)):
        try:
            channel.raise_first()
        except EvalDomainError as exc:
            first[k] = str(exc)
    assert first[0] == first[1]


X = Expr.var("x", ("x",))
EDGE_EXPRESSIONS = [parse(text, ("x",)) for text in (
    "-0.0*x", "x*-2.5", "(-0.0)*(1/x)", "0*exp(800*x)", "x^-2*-1e308", "(x - x)^-1",
    "1e308*x*x^3", "sqrt(x)*-0.0", "ln(x)/(x^0 - 1)", "-(2*x)^2*-(x^-1)")] + [
    math.inf * X, X * -Expr.const(math.nan, ("x",)), (-math.inf + X) ** -2, math.nan / X]
EDGE_POINTS = [0.0, -0.0, 1e-200, 5e-324, math.inf, -math.inf, math.nan, 2.0]


@pytest.mark.parametrize("node", EDGE_EXPRESSIONS)  # the name keeps the test ids
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_walk_edge_cases_match_the_oracle(node, order):
    expr = node
    column = np.array(EDGE_POINTS)
    lanes, expected_lanes = _Lanes(len(column)), _Lanes(len(column))
    jet = expr._jets([column], order, lanes)
    expected = _oracle(expr, (column,), order, expected_lanes)
    assert lanes.errors == expected_lanes.errors
    assert np.array_equal(_bits(jet.data), _bits(expected.data))
    for point in EDGE_POINTS:
        try:
            want = _oracle(expr, (point,), order).data
        except EvalDomainError as exc:
            with pytest.raises(EvalDomainError) as got:
                expr.eval_jet((point,), order)
            assert str(got.value) == str(exc)
            continue
        assert np.array_equal(_bits(expr.eval_jet((point,), order).data), _bits(want))


def test_the_walk_makes_no_jet_products(monkeypatch):
    # the tracer's ``expr.jet_mul`` counts Jet.__mul__, which the walk no longer calls
    def refuse(self, other):
        raise AssertionError("Jet.__mul__ called")

    monkeypatch.setattr(expr_module.Jet, "__mul__", refuse)
    expr = parse("(2*x1 - x2)^3 * sin(x1*x2) / (1 + x2^2)", ("x1", "x2"))
    assert expr.eval_jet((0.5, -0.25), 3).order == 3
    lanes = _Lanes(2)
    expr._jets([np.array([0.5, 1.0]), np.array([-0.25, 2.0])], 3, lanes)
    assert not lanes.raised.any()
