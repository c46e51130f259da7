"""The jet walk at one point, on Python floats (``expr._PointKernels``),
against the walk over numpy lanes (``Expr._jets``) and the numpy kernels.

A point jet is a dict from row to float, whose key -1 holds the fill of
the rows it leaves out; a product that would pair more rows than the size
cut goes to the numpy kernel.  Every comparison is bitwise on the int64
views, every NaN read as one pattern (numpy's add may return either NaN
operand, README).
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import leaf_expressions
from macontact import expr as expr_module
from macontact.expr import (EvalDomainError, Expr, _Lanes, _PointKernels, _point_product,
                            _product, _scale, multi_indices, parse)
from test_expr_columns import VARS, _extend, wide_numbers


def _bits(data):
    data = np.asarray(data, dtype=float)
    return np.where(np.isnan(data), np.nan, data).view(np.int64).tolist()


# --- the walk at a point against lane k of the lane walk ----------------------------

# the column strategies' leaves with subnormals and -1e308 besides, and a
# number or a negated number as a factor of a product on either side
values = st.one_of(wide_numbers, st.sampled_from([5e-324, -5e-324, 2.2e-308, -1e308]))
factors = values.map(lambda v: Expr.const(v, VARS))


def _more(children):
    return st.one_of(
        _extend(children),
        st.builds(operator.mul, st.one_of(factors, factors.map(operator.neg)), children),
        st.builds(operator.mul, children, factors),
    )


trees = st.recursive(leaf_expressions(values, VARS), _more, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(trees, st.lists(st.tuples(values, values, values), min_size=1, max_size=5),
       st.integers(0, 5))
def test_point_walk_is_its_lane_of_the_lane_walk(expr, points, order):
    lanes = _Lanes(len(points))
    jet = expr._jets([np.array(c) for c in zip(*points)], order, lanes)
    for k, point in enumerate(points):
        try:
            got = expr.eval_jet(point, order)
        except EvalDomainError as exc:
            assert lanes.errors.get(k) == str(exc), (expr.to_string(), point)
            continue
        assert not lanes.raised[k], (expr.to_string(), point)
        assert _bits(got.data) == _bits(jet.data[:, k]), (expr.to_string(), point, order)


# --- the kernels on both sides of the size cut --------------------------------------

SHAPES = [(1, 4), (2, 2), (2, 5), (3, 3), (5, 1), (5, 2), (5, 3)]
# products that underflow to -0.0 (1e-300 * -1e-300), overflow, 0 * inf and NaN
entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, -1e-300, 5e-324, 1e300,
                                     -1e300, math.inf, -math.inf, math.nan]),
                    st.floats(-10, 10, allow_nan=False))


@st.composite
def point_jets(draw, rows):
    """A point jet over ``rows`` rows: a signed-zero fill and some rows."""
    kept = draw(st.lists(st.integers(0, rows - 1), unique=True, max_size=rows))
    jet = {-1: draw(st.sampled_from([0.0, -0.0]))}
    jet.update((r, draw(entries)) for r in kept)
    return jet


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SHAPES), st.data())
def test_point_kernels_have_the_bits_of_the_array_kernels(shape, data):
    n, order = shape
    kernels = _PointKernels((0.0,) * n, order)
    a, b = (data.draw(point_jets(kernels.rows)) for _ in range(2))
    c = data.draw(entries)
    da, db = kernels.dense(a).copy(), kernels.dense(b).copy()
    with np.errstate(all="ignore"):  # the numpy kernels run under their caller's
        pairs = [
            (_point_product(a, b, kernels.pairs), _product(da, db, n, order)),
            (kernels.add(a, b), da + db),
            (kernels.sub(a, b), da - db),
            (kernels.neg(a), -da),
            (kernels.scale(c, a), _scale(c, da)),
            (kernels.shift(dict(a), c), kernels.shift(da.copy(), c)),
        ]
        for point, array in pairs:
            assert type(point) is dict and type(array) is np.ndarray
            assert _bits(kernels.dense(point)) == _bits(array), (a, b, c)
            assert _bits(kernels.value(point)) == _bits(kernels.value(array))


def test_the_size_cut_sends_large_products_to_numpy():
    kernels = _PointKernels((0.5, -0.25), 6)
    x, y = kernels.coordinate(0), kernels.coordinate(1)
    assert type(kernels.product(x, y)) is dict  # two rows a side
    full = {-1: 0.0, **{r: 1.0 + r for r in range(kernels.rows)}}
    assert (kernels.rows - 1) ** 2 > kernels.cut
    assert type(kernels.product(full, full)) is np.ndarray
    # once a jet is an array, every kernel on it is numpy's
    dense = kernels.product(full, full)
    for result in (kernels.product(dense, x), kernels.add(x, dense), kernels.sub(dense, x),
                   kernels.scale(2.0, dense), kernels.neg(dense)):
        assert type(result) is np.ndarray


# --- dense jets of high order -------------------------------------------------------

CHART = ("x1", "x2", "u", "p1", "p2")
BEND = "0.37*x^32 - 11.84*x^17*y^15 + 3.5*x*y^31 + y^32"


# (text, variables, point, order, whether a product takes the numpy kernel:
# those of a sum of the five chart variables at order 6 outgrow the cut, the
# bend polynomial's products of monomials stay in Python floats)
DENSE = [(text, CHART, (0.31, -0.52, 0.27, 0.73, -0.41), order, True if order == 6 else None)
         for text in ("sin(x1+x2+u+p1+p2)", "(x1+x2+u+p1+p2)^6",
                      "sin(x1+x2+u+p1+p2)*cos(x1-x2)")
         for order in (2, 4, 6)]
DENSE += [("exp(x1*x2)*cos(u*p1)", CHART, (0.31, -0.52, 0.27, 0.73, -0.41), order, None)
          for order in (2, 4, 6)] + [(BEND, ("x", "y"), (0.0, 0.0), 32, False)]


@pytest.mark.parametrize("text, names, point, order, large", DENSE,
                         ids=[f"{case[0][:30]}-{case[3]}" for case in DENSE])
def test_dense_point_jets_keep_the_lane_bits(text, names, point, order, large, monkeypatch):
    calls = []

    def counted(a, b, n, order):
        calls.append(a.ndim)
        return _product(a, b, n, order)

    monkeypatch.setattr(expr_module, "_product", counted)
    expr = parse(text, names)
    got = expr.eval_jet(point, order)
    lanes = _Lanes(2)
    jet = expr._jets([np.array([p, 1.0]) for p in point], order, lanes)
    assert not lanes.raised.any()
    assert got.data.shape == (len(multi_indices(len(names), order)),)
    assert _bits(got.data) == _bits(jet.data[:, 0])
    if large is not None:
        assert (1 in calls) == large, calls
