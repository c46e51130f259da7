"""Shared builders for the test suite."""

import math
import operator

from hypothesis import strategies as st

from macontact.contact import CHART_VARIABLES
from macontact.expr import Expr, _Lanes, multi_indices

BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def poly_from_monomials(variables, monomials) -> Expr:
    """Expression sum(coeff * prod(var^power)) from (coeff, powers) pairs."""
    variables = tuple(variables)
    total = Expr.const(0.0, variables)
    for coeff, powers in monomials:
        term = Expr.const(coeff, variables)
        for name, power in zip(variables, powers):
            if power:
                term = term * (Expr.var(name, variables) ** int(power))
        total = total + term
    return total


def random_monomials(rng, nvars, degree=3, terms=6) -> list:
    monomials = []
    for _ in range(terms):
        powers = rng.integers(0, degree + 1, size=nvars)
        while powers.sum() > degree:
            powers = rng.integers(0, degree + 1, size=nvars)
        coeff = float(rng.integers(-3, 4))
        monomials.append((coeff, tuple(int(p) for p in powers)))
    return monomials


def derivative_monomials(monomials, i) -> list:
    """Partial derivative of a monomial list with respect to variable i."""
    out = []
    for coeff, powers in monomials:
        if powers[i] > 0:
            lowered = tuple(p - 1 if j == i else p for j, p in enumerate(powers))
            out.append((coeff * powers[i], lowered))
    return out


def random_poly_expr(rng, variables, degree=3, terms=6) -> Expr:
    """Random polynomial with integer-ish coefficients, deterministic in rng."""
    variables = tuple(variables)
    return poly_from_monomials(variables, random_monomials(rng, len(variables),
                                                           degree, terms))


def harmonic_pair(k: int) -> tuple:
    """Re and Im of (x1 + i x2)^k as expressions in (x1, x2)."""
    variables = ("x1", "x2")
    re_terms, im_terms = [], []
    for j in range(k + 1):
        coeff = math.comb(k, j)
        # i^j cycles 1, i, -1, -i
        if j % 4 == 0:
            re_terms.append((coeff, (k - j, j)))
        elif j % 4 == 1:
            im_terms.append((coeff, (k - j, j)))
        elif j % 4 == 2:
            re_terms.append((-coeff, (k - j, j)))
        else:
            im_terms.append((-coeff, (k - j, j)))
    return (poly_from_monomials(variables, re_terms),
            poly_from_monomials(variables, im_terms))


def random_darboux_points(rng, count, scale=1.0):
    from macontact.contact import DarbouxPoint
    pts = rng.uniform(-scale, scale, size=(count, 5))
    return [DarbouxPoint(*p) for p in pts]


def chart_poly(rng, degree=3, terms=6) -> Expr:
    return random_poly_expr(rng, CHART_VARIABLES, degree, terms)


def column_values(expr, columns) -> tuple:
    """``expr._columns`` over a new failure channel: the values and the
    lanes that raised."""
    lanes = _Lanes(len(columns[0]))
    return expr._columns(columns, lanes), lanes.raised


def column_jets(expr, columns, order) -> tuple:
    """``expr._jets`` over a new failure channel: the lane jet and the
    lanes that raised."""
    lanes = _Lanes(len(columns[0]))
    return expr._jets(columns, order, lanes), lanes.raised


def quintic_terms(variables) -> list:
    """A term, with a coefficient, for each of the 252 monomials of degree at
    most 5 in five variables: a general quintic is their sum."""
    return ["*".join([repr((k % 7 - 3) / 4 or 0.5)]
                     + [f"{name}^{e}" for name, e in zip(variables, alpha) if e])
            for k, alpha in enumerate(multi_indices(5, 5))]


def leaf_expressions(numbers, variables):
    """Hypothesis leaves: a number of the strategy ``numbers`` or a declared
    variable, as an ``Expr`` over ``variables``."""
    return st.one_of(numbers.map(lambda v: Expr.const(v, variables)),
                     st.sampled_from([Expr.var(name, variables) for name in variables]))


def binary(op: str, a: Expr, b: Expr) -> Expr:
    """``a op b`` through the ``Expr`` operator of the character ``op``."""
    return BINARY[op](a, b)
