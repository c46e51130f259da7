"""Jet coefficients against symbolic differentiation by sympy.

For random expressions in the mini-language, every coefficient of the jet
(lane jets included) must equal the sympy partial derivative divided by
``alpha!``, evaluated at 30 digits, up to a roundoff tolerance.  Function
arguments are shaped to stay inside their domains.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macontact.contact import CHART_VARIABLES
from macontact.expr import BinOp, Call, Expr, Neg, Num, Pow, Var, multi_indices

sympy = pytest.importorskip("sympy")


def _to_sympy(node, symbols):
    if isinstance(node, Num):
        return sympy.Rational(node.value)
    if isinstance(node, Var):
        return symbols[node.index]
    if isinstance(node, Neg):
        return -_to_sympy(node.child, symbols)
    if isinstance(node, BinOp):
        a, b = _to_sympy(node.left, symbols), _to_sympy(node.right, symbols)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        return a * b if node.op == "*" else a / b
    if isinstance(node, Pow):
        return _to_sympy(node.child, symbols) ** node.exponent
    funcs = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp,
             "ln": sympy.log, "sqrt": sympy.sqrt}
    return funcs[node.func](_to_sympy(node.arg, symbols))


def _positive(node):
    """2 + node^2: an argument safely inside the domain of ln, sqrt and 1/x."""
    return BinOp("+", Num(2.0), Pow(node, 2))


def _trees(names):
    leaves = st.one_of(st.sampled_from([0.5, -1.25, 2.0, 3.0]).map(Num),
                       st.sampled_from([Var(i, v) for i, v in enumerate(names)]))
    return st.recursive(leaves, lambda children: st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*"), children, children),
        st.builds(lambda a, b: BinOp("/", a, _positive(b)), children, children),
        st.builds(Pow, children, st.integers(0, 3)),
        st.builds(lambda f, a: Call(f, a), st.sampled_from(["sin", "cos"]), children),
        st.builds(lambda a: Call("exp", BinOp("*", Num(0.25), a)), children),
        st.builds(lambda f, a: Call(f, _positive(a)), st.sampled_from(["ln", "sqrt"]),
                  children),
    ), max_leaves=6)


def _check(node, names, point, order):
    expr = Expr(node, names)
    symbols = sympy.symbols(names)
    target = _to_sympy(node, symbols)
    at = dict(zip(symbols, (sympy.Rational(p) for p in point)))
    jet = expr.eval_jet(point, order)
    lanes, flagged = expr.eval_jet_columns([np.array([p, p]) for p in point], order)
    assert not flagged.any()
    wants = []
    for alpha in multi_indices(len(names), order):
        spec = [v for s, a in zip(symbols, alpha) for v in (s, a) if a]
        deriv = sympy.diff(target, *spec) if spec else target
        wants.append(float(deriv.subs(at).evalf(30)))
    scale = 1.0 + max(abs(w) for w in wants)
    for alpha, want in zip(multi_indices(len(names), order), wants):
        got = jet.derivative(alpha)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9 * scale), (
            expr.to_string(), point, alpha, got, want)
        assert lanes.derivative(alpha).tolist() == [got, got]


coords = st.sampled_from([-1.5, -0.75, -0.25, 0.0, 0.5, 1.0, 1.25])


@settings(max_examples=40, deadline=None)
@given(_trees(("x", "y")), st.tuples(coords, coords), st.integers(0, 3))
def test_jet_coefficients_match_sympy_in_two_variables(node, point, order):
    _check(node, ("x", "y"), point, order)


@settings(max_examples=15, deadline=None)
@given(_trees(CHART_VARIABLES), st.tuples(*[coords] * 5))
def test_jet_coefficients_match_sympy_on_the_chart(node, point):
    _check(node, CHART_VARIABLES, point, 2)
