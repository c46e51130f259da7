import functools
import inspect
import itertools
import math
import operator
import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import column_jets, column_values, quintic_terms, random_poly_expr
from macontact.expr import EvalDomainError, Expr, ParseError, _Lanes, multi_indices, parse
from macontact.monge_ampere import MAEquation

XY = ("x1", "x2")
ALL5 = ("x1", "x2", "u", "p1", "p2")


# --- parsing ------------------------------------------------------------------

def test_parse_sum_of_square_and_product():
    e = parse("p1^2 + x1*x2", ALL5)
    assert e.tape[-1] == ("+", None)
    assert e.eval((1, 2, 0, 3, 0)) == 11


def test_parse_empty_is_syntax_error():
    with pytest.raises(ParseError):
        parse("", XY)
    with pytest.raises(ParseError):
        parse("   ", XY)


def test_parse_difference_of_squares():
    e = parse("x1^2 - x2^2", XY)
    assert e.eval((3, 1)) == 8


def test_parse_unknown_identifier_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("x1 + bogus", XY)
    assert err.value.offset == 5


def test_parse_non_integer_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x1^2.5", XY)


def test_parse_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("x1 + 1 )", XY)


def test_parse_scientific_notation():
    assert parse("1e-05 + 2.5e+2", XY).eval((0, 0)) == pytest.approx(250.00001)


def test_unary_minus_binds_inside_power():
    # grammar: factor := base ('^' int)?, base := '-' base, so -x1^2 = (-x1)^2
    assert parse("-x1^2", XY).eval((2, 0)) == 4.0
    assert parse("-(x1^2)", XY).eval((2, 0)) == -4.0


def test_functions_parse_and_unknown_function_rejected():
    assert parse("sin(x1)^2 + cos(x1)^2", XY).eval((0.3, 0)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ParseError):
        parse("tan(x1)", XY)


@pytest.mark.parametrize("text, message, offset", [
    ("x1 + foo   * 2", "unknown identifier 'foo'", 5),
    ("x1 + sin  * 2", "function 'sin' used without arguments", 5),
    ("tan(x1)", "unknown function 'tan'", 0),
    ("x1 * tan (x2)", "unknown function 'tan'", 5),
])
def test_name_errors_point_at_the_name(text, message, offset):
    with pytest.raises(ParseError) as err:
        parse(text, XY)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


@pytest.mark.parametrize("text, offset", [
    ("٣", 0), ("²", 0), ("x1^٣", 3), ("x1 + x²", 5), ("éx1", 0),
    ("x1 + 1٣", 6),
])
def test_grammar_is_ascii(text, offset):
    # str.isdigit and str.isalpha accept these; the grammar does not
    with pytest.raises(ParseError) as err:
        parse(text, XY)
    assert err.value.offset == offset


_NAME_ERROR = re.compile(r"^(?:unknown identifier|unknown function|function) '(\w+)'")


@given(st.text(alphabet=st.sampled_from("x12 sin(+-*/^).5e_٣²ab\t"), max_size=30)
       | st.text(max_size=12))
def test_parse_returns_or_raises_a_parse_error(text):
    try:
        parse(text, XY)
    except ParseError as exc:
        name = _NAME_ERROR.match(str(exc))
        if name:
            assert text[exc.offset:].startswith(name.group(1)), (text, str(exc))


# --- evaluation -----------------------------------------------------------------

def test_eval_product():
    assert parse("x1*x2", XY).eval((2, 3)) == 6


def test_eval_ln_domain_error():
    with pytest.raises(EvalDomainError):
        parse("ln(x1)", XY).eval((0, 1))
    with pytest.raises(EvalDomainError):
        parse("ln(x1)", XY).eval((-1, 1))


def test_eval_division_by_zero_is_reported():
    with pytest.raises(EvalDomainError):
        parse("x1 / x2", XY).eval((1, 0))


def test_eval_sqrt_domain():
    assert parse("sqrt(x1)", XY).eval((4, 0)) == 2
    with pytest.raises(EvalDomainError):
        parse("sqrt(x1)", XY).eval((-1, 0))


@given(st.floats(-10, 10))
def test_pythagorean_identity(x):
    assert parse("sin(x1)^2 + cos(x1)^2", XY).eval((x, 0)) == pytest.approx(1.0, abs=1e-15)


def test_point_length_checked():
    with pytest.raises(ValueError):
        parse("x1", XY).eval((1,))


# --- jets -----------------------------------------------------------------------

def test_jet_difference_of_squares():
    jet = parse("x1^2 - x2^2", XY).eval_jet((0, 0), 2)
    expected = {(2, 0): 1.0, (0, 2): -1.0}
    for alpha in multi_indices(2, 2):
        assert jet.coefficient(alpha) == expected.get(alpha, 0.0)


def test_constant_over_no_variables_has_a_jet():
    # multi_indices(0, order) used to recurse without end
    assert multi_indices(0, 0) == multi_indices(0, 3) == ((),)
    expr = parse("2*ln(3) - 1/4", ())
    for order in (0, 2):
        jet = expr.eval_jet((), order)
        assert jet.value == expr.eval(())
        assert jet.coeffs == {(): expr.eval(())}


def _graded_lex(n, order):
    """Every multi-index of |alpha| <= order, by degree and then as tuples."""
    return tuple(sorted((alpha for alpha in itertools.product(range(order + 1), repeat=n)
                         if sum(alpha) <= order), key=lambda alpha: (sum(alpha), alpha)))


def test_multi_indices_match_a_filter_of_every_exponent_tuple():
    for n in range(7):
        every = _graded_lex(n, 11)
        for order in range(12):
            assert multi_indices(n, order) == tuple(a for a in every if sum(a) <= order)
    assert multi_indices(2, 32) == _graded_lex(2, 32)


def test_jet_order_zero_equals_eval():
    rng = np.random.default_rng(7)
    for _ in range(20):
        e = random_poly_expr(rng, XY)
        pt = tuple(rng.uniform(-1, 1, 2))
        assert e.eval_jet(pt, 0).value == e.eval(pt)


def test_exp_jet_coefficients_exact():
    jet = parse("exp(x1)", ("x1",)).eval_jet((0,), 3)
    expected = [1.0, 1.0, 0.5, 1.0 / 6.0]
    for m, want in enumerate(expected):
        assert jet.coefficient((m,)) == pytest.approx(want, abs=1e-14)


def test_exp_jet_matches_finite_differences():
    e = parse("exp(x1)", ("x1",))
    jet = e.eval_jet((0,), 3)
    fd1 = (e.eval((1e-5,)) - e.eval((-1e-5,))) / 2e-5
    # second difference needs a larger step to stay above roundoff
    h = 1e-3
    fd2 = (e.eval((h,)) - 2 * e.eval((0,)) + e.eval((-h,))) / h ** 2
    assert jet.derivative((1,)) == pytest.approx(fd1, rel=1e-6)
    assert jet.derivative((2,)) == pytest.approx(fd2, rel=1e-6)


def test_jet_derivatives_match_central_differences():
    # first and second partials of random smooth expressions
    rng = np.random.default_rng(11)
    h = 1e-4
    for _ in range(10):
        e = random_poly_expr(rng, XY, degree=4)
        x, y = rng.uniform(-0.8, 0.8, 2)
        jet = e.eval_jet((x, y), 2)
        fd_x = (e.eval((x + h, y)) - e.eval((x - h, y))) / (2 * h)
        fd_xy = (e.eval((x + h, y + h)) - e.eval((x + h, y - h))
                 - e.eval((x - h, y + h)) + e.eval((x - h, y - h))) / (4 * h * h)
        assert jet.derivative((1, 0)) == pytest.approx(fd_x, rel=1e-6, abs=1e-6)
        assert jet.derivative((1, 1)) == pytest.approx(fd_xy, rel=1e-6, abs=1e-5)


def test_jet_ring_identities():
    # both sides of each identity are expressions, compared by their jets
    rng = np.random.default_rng(13)
    pt = (0.4, -0.7)
    a, b, c = (random_poly_expr(rng, XY) for _ in range(3))
    for left, right, rel, tol in ((a * b, b * a, 1e-13, 1e-14),
                                  ((a * b) * c, a * (b * c), 1e-12, 1e-13),
                                  ((a + b) + c, a + (b + c), None, 1e-14)):
        left, right = left.eval_jet(pt, 3), right.eval_jet(pt, 3)
        for alpha in multi_indices(2, 3):
            assert left.coefficient(alpha) == pytest.approx(
                right.coefficient(alpha), rel=rel, abs=tol)


def test_jet_division_by_zero_constant_term():
    with pytest.raises(EvalDomainError):
        parse("1 / x1", XY).eval_jet((0, 1), 2)


def test_jet_composition_with_functions():
    # d/dx sin(x^2) = 2x cos(x^2)
    e = parse("sin(x1^2)", ("x1",))
    jet = e.eval_jet((0.7,), 1)
    assert jet.derivative((1,)) == pytest.approx(2 * 0.7 * math.cos(0.49), rel=1e-12)


def test_jet_repr_names_the_point_or_the_lanes():
    j = parse("x1^2 + x2 + 1", XY).eval_jet((0.5, 2.0), 3)
    assert repr(j) == "Jet(order=3, base=(0.5, 2.0))"
    lanes, _ = column_jets(parse("x1", XY), [np.array([1.0, 2.0]), np.array([3.0, 4.0])], 2)
    assert repr(lanes) == "Jet(order=2, n=2, lanes=2)"


def test_reflected_expr_operators_match_their_forward_forms():
    e = parse("x1*x2 - 0.5", XY)
    two = Expr.const(2.0, XY)
    for reflected, forward in ((2.0 + e, two + e), (2.0 - e, two - e),
                               (2.0 * e, two * e), (2.0 / e, two / e)):
        assert reflected == forward
        assert reflected.eval((0.75, -1.5)) == forward.eval((0.75, -1.5))
    assert str(2.0 / e) == "(2.0 / ((x1 * x2) - 0.5))"
    assert str(e) == e.to_string() == "((x1 * x2) - 0.5)"


# --- printing / round trip -------------------------------------------------------

def _random_node_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Expr.const(float(rng.integers(0, 5)), XY)
        return Expr.var(XY[int(rng.integers(0, 2))], XY)
    pick = rng.integers(0, 7)
    a = _random_node_expr(rng, depth - 1)
    b = _random_node_expr(rng, depth - 1)
    if pick == 0:
        return a + b
    if pick == 1:
        return a - b
    if pick == 2:
        return a * b
    if pick == 3:
        return a / b
    if pick == 4:
        return -a
    if pick == 5:
        return a ** int(rng.integers(0, 4))
    return a.apply(("sin", "cos", "exp")[int(rng.integers(0, 3))])


def test_print_parse_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(60):
        e = _random_node_expr(rng)
        assert parse(e.to_string(), XY) == e


def test_round_trip_keeps_float_literals():
    e = Expr.const(0.1, XY) * Expr.var("x1", XY)
    again = parse(e.to_string(), XY)
    assert again == e


def test_power_of_power_round_trip():
    e = (Expr.var("x1", XY) ** 2) ** 3
    assert e.tape[-2:] == (("^", 2), ("^", 3))
    assert parse(e.to_string(), XY) == e


def test_substitution():
    e = parse("x1^2 + x2", XY)
    sub = e.subs({"x1": parse("x2 + 1", XY)})
    assert sub.eval((0, 2)) == 9 + 2


@pytest.mark.parametrize("func", ["sin", "cos"])
def test_sin_cos_of_infinity_is_a_domain_error(func):
    # x * 1e308 * 10 overflows to inf; math.sin(inf) raises a bare ValueError
    expr = parse(f"{func}(x1 * 1e308 * 10)", XY)
    with pytest.raises(EvalDomainError, match="non-finite"):
        expr.eval((1.0, 0.0))
    with pytest.raises(EvalDomainError, match="non-finite"):
        expr.eval_jet((1.0, 0.0), 2)
    assert expr.eval((0.0, 0.0)) == (0.0 if func == "sin" else 1.0)


@pytest.mark.parametrize("text, bound", [
    ("3", 0), ("x1", 1), ("-x1*x2^2", 3), ("x1^2 + x1^6 - x1^6", 6),
    ("(x1 + x2)^3 * x2", 4), ("x1^2/2 + sqrt(2)*x2", 2), ("2^-1*x1", 1),
    ("(x1^2)^3", 6), ("sin(1)*x1^0", 0),
])
def test_degree_bound_of_polynomials(text, bound):
    assert parse(text, XY).degree_bound() == bound


@pytest.mark.parametrize("text", ["sin(x1)", "1/x1", "x1^-2", "x1/(x2 + 1)",
                                  "exp(x1 - x1)", "x1*sqrt(x2)"])
def test_degree_bound_rejects_non_polynomials(text):
    assert parse(text, XY).degree_bound() is None


def _nested(shape, depth):
    """An expression of exactly ``depth`` levels in x1."""
    n = depth - 1
    return {"chain": "+".join(["x1"] * depth),
            "minus": "-" * n + "x1",
            "calls": "sin(" * n + "x1" + ")" * n,
            "parens": "(" * n + "x1" + ")" * n,
            "right": "x1*(" * (n // 2) + "x1" + ")" * (n // 2) + "^1" * (n % 2)}[shape]


@pytest.mark.parametrize("shape", ["chain", "minus", "calls", "parens", "right"])
def test_nesting_up_to_the_cap_reaches_every_tree_walker(shape):
    # no cap is left: at 10,000 levels, with the recursion limit about 100
    # frames above this test, a walk spending a frame a level would fail
    text = _nested(shape, 10_000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        expr = parse(text, XY)
        value = expr.eval((0.5, 0.0))
        values, flagged = column_values(expr, [np.array([0.5, 0.25]), np.zeros(2)])
        assert values[0] == value and not flagged.any()
        assert expr.eval_jet((0.5, 0.0), 2).value == value
        assert expr.degree_bound() is not None or shape == "calls"
        printed = expr.to_string()
        assert printed.count("x1") == text.count("x1")
        assert parse(printed, XY).to_string() == printed
        assert expr.subs({"x1": parse("x2", XY)}).eval((0.0, 0.5)) == value
    finally:
        sys.setrecursionlimit(limit)


def _flat_terms() -> list:
    """10,000 terms of a flat sum over ALL5."""
    return [f"{(k % 13 - 6) / 8!r}*{ALL5[k % 5]}" for k in range(10_000)]


@pytest.mark.parametrize("terms", [quintic_terms(ALL5), _flat_terms()], ids=["quintic", "flat"])
def test_a_long_sum_is_the_left_fold_of_its_terms(terms):
    # a general quintic coefficient, and a sum far past any nesting the
    # recursive walks could take: values, lanes and jets bit for bit
    expr = parse(" + ".join(terms), ALL5)
    parts = [parse(t, ALL5) for t in terms]
    point = (0.3, -0.7, 1.1, 0.4, -0.2)
    columns = [np.linspace(-1.0, 1.0, 7) * (i + 1) for i in range(5)]
    assert len(terms) in (252, 10_000)
    assert expr.eval(point).hex() == functools.reduce(
        operator.add, [p.eval(point) for p in parts]).hex()
    assert column_values(expr, columns)[0].tobytes() == functools.reduce(
        operator.add, [column_values(p, columns)[0] for p in parts]).tobytes()
    assert expr.eval_jet(point, 2).data.tobytes() == functools.reduce(
        operator.add, [p.eval_jet(point, 2).data for p in parts]).tobytes()


def test_long_sums_compare_hash_and_print_without_recursion():
    # equality, hashing and repr are those of the flat tape, so two parsed
    # 10,000-term sums, and equations holding them, need no Python frame a
    # term at CPython's default recursion limit
    text = " + ".join(_flat_terms())
    a, b = parse(text, ALL5), parse(text, ALL5)
    other = parse(text + " + x1", ALL5)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert a == b and a != other and hash(a) == hash(b)
        assert repr(a) == repr(b) and repr(a).count("'num'") == 10_000
        eq_a, eq_b = MAEquation(a, a, a, a, a), MAEquation(b, b, b, b, b)
        assert eq_a == eq_b and hash(eq_a) == hash(eq_b)
    finally:
        sys.setrecursionlimit(limit)


# exp(709.782712893384) is the largest finite exp of a double; the next double
# overflows in every evaluation path, with one error text
EXP_EDGE = 709.782712893384
EXP_OVER = math.nextafter(EXP_EDGE, math.inf)


def test_exp_at_the_overflow_threshold_in_every_path():
    expr = parse("exp(x)", ("x",))
    edge = math.exp(EXP_EDGE)
    assert math.isfinite(edge)
    assert expr.eval((EXP_EDGE,)) == edge
    assert expr.eval_jet((EXP_EDGE,), 2).data.tolist() == [edge, edge, edge / 2]
    lanes = _Lanes(2)
    values = expr._columns([np.array([EXP_EDGE, EXP_OVER])], lanes)
    flagged, errors = lanes.raised, lanes.errors
    assert values[0] == edge and flagged.tolist() == [False, True]
    text = "evaluation overflow: math range error"
    assert errors == {1: text}
    with pytest.raises(EvalDomainError, match=f"^{text}$"):
        expr.eval((EXP_OVER,))
    with pytest.raises(EvalDomainError, match=f"^{text}$"):
        expr.eval_jet((EXP_OVER,), 2)
    with pytest.raises(OverflowError):
        math.exp(EXP_OVER)


def test_exp_of_infinities_and_nan_is_not_an_error():
    expr = parse("exp(x)", ("x",))
    points = [math.inf, -math.inf, math.nan]
    lanes = _Lanes(len(points))
    values, errors = expr._columns([np.array(points)], lanes), lanes.errors
    assert errors == {}
    for x, got in zip(points, values.tolist()):
        expected = expr.eval((x,))
        assert got == expected or (math.isnan(got) and math.isnan(expected))


@pytest.mark.parametrize("text, exponent", [
    ("x^1000", 1000), ("x^-1000", -1000), ("x^0001000", 1000), ("x^-0", 0),
])
def test_exponents_up_to_the_cap_parse(text, exponent):
    assert parse(text, ("x",)).tape == (("var", 0), ("^", exponent))


@pytest.mark.parametrize("text", ["x^1001", "x^-1001", "x^" + "9" * 5000, "2*x^00010000"])
def test_exponents_above_the_cap_are_parse_errors(text):
    with pytest.raises(ParseError, match="exponent above the cap 1000 in absolute value"):
        parse(text, ("x",))
