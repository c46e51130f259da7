"""Jet coefficients against symbolic differentiation by sympy.

For random expressions in the mini-language, every coefficient of the jet
(lane jets included) must equal the sympy partial derivative divided by
``alpha!``, evaluated at 30 digits, up to a roundoff tolerance.  Function
arguments are shaped to stay inside their domains.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BINARY, binary, column_jets, leaf_expressions
from macontact.contact import CHART_VARIABLES
from macontact.expr import Expr, multi_indices

sympy = pytest.importorskip("sympy")


FUNCS = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp, "ln": sympy.log,
         "sqrt": sympy.sqrt}


def _to_sympy(expr, symbols):
    """The sympy expression of an ``Expr``, one tape entry at a time."""
    stack = []
    for op, arg in expr.tape:
        if op == "num":
            stack.append(sympy.Rational(arg))
        elif op == "var":
            stack.append(symbols[arg])
        elif op == "neg":
            stack.append(-stack.pop())
        elif op == "^":
            stack.append(stack.pop() ** arg)
        elif op in BINARY:
            b, a = stack.pop(), stack.pop()
            stack.append(BINARY[op](a, b))
        else:
            stack.append(FUNCS[op](stack.pop()))
    return stack.pop()


def _positive(expr):
    """2 + expr^2: an argument safely inside the domain of ln, sqrt and 1/x."""
    return 2.0 + expr ** 2


def _trees(names):
    numbers = st.sampled_from([0.5, -1.25, 2.0, 3.0])
    return st.recursive(leaf_expressions(numbers, names), lambda children: st.one_of(
        children.map(operator.neg),
        st.builds(binary, st.sampled_from("+-*"), children, children),
        st.builds(lambda a, b: a / _positive(b), children, children),
        st.builds(operator.pow, children, st.integers(0, 3)),
        st.builds(Expr.apply, children, st.sampled_from(["sin", "cos"])),
        st.builds(lambda a: (0.25 * a).apply("exp"), children),
        st.builds(lambda f, a: _positive(a).apply(f), st.sampled_from(["ln", "sqrt"]),
                  children),
    ), max_leaves=6)


def _check(expr, names, point, order):
    symbols = sympy.symbols(names)
    target = _to_sympy(expr, symbols)
    at = dict(zip(symbols, (sympy.Rational(p) for p in point)))
    jet = expr.eval_jet(point, order)
    lanes, flagged = column_jets(expr, [np.array([p, p]) for p in point], order)
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
def test_jet_coefficients_match_sympy_in_two_variables(expr, point, order):
    _check(expr, ("x", "y"), point, order)


@settings(max_examples=15, deadline=None)
@given(_trees(CHART_VARIABLES), st.tuples(*[coords] * 5))
def test_jet_coefficients_match_sympy_on_the_chart(expr, point):
    _check(expr, CHART_VARIABLES, point, 2)
