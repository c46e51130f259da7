import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chart_poly, random_darboux_points
from macontact import contact as contact_module
from macontact import expr as expr_module
from macontact.contact import (CHART_VARIABLES, ContactChart, DarbouxPoint,
                               bracket_fields, contact_field,
                               contact_field_jets, contact_form_value,
                               curvature_gram, field_jets_from_exprs,
                               is_contact_field, lagrange_bracket,
                               omega_of_field)
from macontact.expr import Expr, Jet, _Lanes, multi_indices

CHART = ContactChart()
ORIGIN = DarbouxPoint(0, 0, 0, 0, 0)


def test_chart_variables():
    assert CHART.variables == CHART_VARIABLES == ("x1", "x2", "u", "p1", "p2")


def _const(v):
    return Expr.const(v, CHART_VARIABLES)


def _var(name):
    return Expr.var(name, CHART_VARIABLES)


# frame fields as expressions, for oracle computations
E1 = (_const(1), _const(0), _var("p1"), _const(0), _const(0))
E2 = (_const(0), _const(1), _var("p2"), _const(0), _const(0))
E3 = (_const(0), _const(0), _const(0), _const(1), _const(0))
E4 = (_const(0), _const(0), _const(0), _const(0), _const(1))
FRAME_EXPRS = (E1, E2, E3, E4)

DU = (_const(0), _const(0), _const(1), _const(0), _const(0))


# --- contact form ------------------------------------------------------------

def test_contact_form_on_du():
    pt = DarbouxPoint(1.0, -2.0, 0.5, 3.0, 4.0)
    assert contact_form_value(pt, (0, 0, 1, 0, 0)) == 1.0


def test_contact_form_annihilates_frame():
    rng = np.random.default_rng(0)
    for pt in random_darboux_points(rng, 10):
        for e in FRAME_EXPRS:
            value = [c.eval(pt.as_tuple()) for c in e]
            assert contact_form_value(pt, value) == 0.0


def test_contact_form_on_dx1():
    pt = DarbouxPoint(0, 0, 0, 3.0, 0)
    assert contact_form_value(pt, (1, 0, 0, 0, 0)) == -3.0


# --- curvature ----------------------------------------------------------------

def _omega_expr(field):
    # omega(Z) = Z_u - p1 Z_x1 - p2 Z_x2 as an expression
    return field[2] - _var("p1") * field[0] - _var("p2") * field[1]


def _directional_derivative(field, scalar, pt):
    jet = scalar.eval_jet(pt.as_tuple(), 1)
    return sum(field[i].eval(pt.as_tuple()) * jet.partial(i).value
               for i in range(5))


def test_curvature_gram_matches_exterior_derivative_oracle():
    # R(X, Y) = -d(omega)(X, Y) with
    # d(omega)(X, Y) = X(omega(Y)) - Y(omega(X)) - omega([X, Y])
    rng = np.random.default_rng(1)
    for pt in random_darboux_points(rng, 5):
        gram = curvature_gram(CHART, pt)
        for i, ei in enumerate(FRAME_EXPRS):
            for j, ej in enumerate(FRAME_EXPRS):
                x_of_wy = _directional_derivative(ei, _omega_expr(ej), pt)
                y_of_wx = _directional_derivative(ej, _omega_expr(ei), pt)
                xi = field_jets_from_exprs(ei, pt, 1)
                xj = field_jets_from_exprs(ej, pt, 1)
                w_bracket = omega_of_field(pt, bracket_fields(xi, xj))
                d_omega = x_of_wy - y_of_wx - w_bracket
                assert gram[i, j] == pytest.approx(-d_omega, abs=1e-12)


def test_curvature_gram_entries():
    gram = curvature_gram(CHART, ORIGIN)
    assert gram[0, 2] == -1.0
    assert gram[1, 3] == -1.0
    assert gram[0, 1] == 0.0
    assert np.array_equal(gram.T, -gram)
    assert abs(np.linalg.det(gram)) == 1.0


# --- contact fields -------------------------------------------------------------

def test_contact_field_of_one_is_du():
    rng = np.random.default_rng(2)
    for pt in random_darboux_points(rng, 5):
        x = contact_field(CHART, _const(1), pt)
        assert x.components == (0.0, 0.0, 1.0, 0.0, 0.0)
        assert contact_form_value(pt, x) == 1.0


def test_contact_field_of_p1_is_minus_dx1():
    pt = DarbouxPoint(0.2, 0.4, -0.1, 0.7, 1.3)
    x = contact_field(CHART, _var("p1"), pt)
    assert x.components == (-1.0, 0.0, 0.0, 0.0, 0.0)
    assert contact_form_value(pt, x) == pytest.approx(pt.p1)


def test_contact_field_of_u():
    pt = DarbouxPoint(0.2, 0.4, -0.1, 0.7, 1.3)
    x = contact_field(CHART, _var("u"), pt)
    assert x.components == (0.0, 0.0, pt.u, pt.p1, pt.p2)


def _symbolic_contact_field(monomials):
    """X_nu as five expressions, for nu given by a monomial list."""
    from conftest import derivative_monomials, poly_from_monomials

    def build(mono):
        return poly_from_monomials(CHART_VARIABLES, mono)

    nu = build(monomials)
    d = [build(derivative_monomials(monomials, i)) for i in range(5)]
    p1, p2 = _var("p1"), _var("p2")
    return (-d[3], -d[4], nu - p1 * d[3] - p2 * d[4],
            d[0] + p1 * d[2], d[1] + p2 * d[2])


def test_contact_field_satisfies_both_postconditions():
    from conftest import poly_from_monomials, random_monomials
    rng = np.random.default_rng(3)
    for _ in range(10):
        monomials = random_monomials(rng, 5, degree=3, terms=5)
        nu = poly_from_monomials(CHART_VARIABLES, monomials)
        pts = random_darboux_points(rng, 4)
        for pt in pts:
            x = contact_field(CHART, nu, pt)
            assert contact_form_value(pt, x) == pytest.approx(
                nu.eval(pt.as_tuple()), abs=1e-10)
        field_exprs = _symbolic_contact_field(monomials)
        assert is_contact_field(CHART, field_exprs, pts, tol=1e-9)


def test_is_contact_field_du_true():
    rng = np.random.default_rng(4)
    assert is_contact_field(CHART, DU, random_darboux_points(rng, 6))


def test_is_contact_field_dp1_false():
    rng = np.random.default_rng(5)
    assert not is_contact_field(CHART, E3, random_darboux_points(rng, 6))


@pytest.mark.parametrize("points", [[], (), iter([])], ids=["list", "tuple", "exhausted"])
def test_is_contact_field_refuses_an_empty_point_set(points):
    # no sample checks nothing: that is an error, not a pass
    x1_field = (_var("x1"), _const(0), _const(0), _const(0), _const(0))
    # [e1, x1 d/dx1] = d/dx1, and omega(d/dx1) = -p1
    assert not is_contact_field(CHART, x1_field, [DarbouxPoint(0.1, 0.2, 0.3, 0.4, 0.5)])
    with pytest.raises(ValueError, match="point set is empty"):
        is_contact_field(CHART, x1_field, points)
    with pytest.raises(ValueError, match="point set is empty"):
        is_contact_field(CHART, DU, points)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("coordinate", CHART_VARIABLES)
def test_is_contact_field_refuses_a_non_finite_sample_point(coordinate, value):
    # X_u = u d/du + p1 d/dp1 + p2 d/dp2 is a contact field, but a sample
    # point with a NaN or infinite coordinate gives no number to decide from
    field = (_const(0), _const(0), _var("u"), _var("p1"), _var("p2"))
    coords = dict(zip(CHART_VARIABLES, (0.1, 0.2, 0.3, 0.4, 0.5)), **{coordinate: value})
    points = [DarbouxPoint(0.1, 0.2, 0.3, 0.4, 0.5), DarbouxPoint(**coords)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^sample point coordinate {coordinate} "
                                             f"must be finite, not {value!r}$"):
            is_contact_field(CHART, field, points)


# --- Lagrange bracket -------------------------------------------------------------

def test_bracket_of_one_and_u_is_one():
    rng = np.random.default_rng(6)
    for pt in random_darboux_points(rng, 10):
        assert lagrange_bracket(CHART, _const(1), _var("u"), pt) == pytest.approx(
            1.0, abs=1e-12)


def test_bracket_is_alternating():
    rng = np.random.default_rng(7)
    for _ in range(5):
        mu = chart_poly(rng)
        for pt in random_darboux_points(rng, 3):
            assert lagrange_bracket(CHART, mu, mu, pt) == pytest.approx(0.0, abs=1e-10)


def test_bracket_x1_p1_value():
    # convention-dependent value, frozen from this implementation's
    # commutator orientation: {x1, p1}(0) = omega([X_x1, X_p1]) = +1
    assert lagrange_bracket(CHART, _var("x1"), _var("p1"), ORIGIN) == pytest.approx(1.0)


def test_bracket_antisymmetry_and_linearity():
    rng = np.random.default_rng(8)
    for _ in range(5):
        mu, n1, n2 = chart_poly(rng), chart_poly(rng), chart_poly(rng)
        a, b = rng.uniform(-2, 2, 2)
        combo = Expr.const(a, CHART_VARIABLES) * n1 + Expr.const(b, CHART_VARIABLES) * n2
        for pt in random_darboux_points(rng, 3):
            left = lagrange_bracket(CHART, mu, n1, pt)
            assert lagrange_bracket(CHART, n1, mu, pt) == pytest.approx(
                -left, abs=1e-10)
            assert lagrange_bracket(CHART, mu, combo, pt) == pytest.approx(
                a * left + b * lagrange_bracket(CHART, mu, n2, pt),
                rel=1e-10, abs=1e-10)


def test_jacobi_identity():
    rng = np.random.default_rng(9)
    for _ in range(4):
        mu, nu, lam = (chart_poly(rng, degree=2, terms=4) for _ in range(3))
        for pt in random_darboux_points(rng, 2):
            total = 0.0
            for f, g, h in ((mu, nu, lam), (nu, lam, mu), (lam, mu, nu)):
                inner = bracket_fields(contact_field_jets(g, pt, 2),
                                       contact_field_jets(h, pt, 2))
                outer = bracket_fields(contact_field_jets(f, pt, 1), inner)
                total += omega_of_field(pt, outer)
            assert total == pytest.approx(0.0, abs=1e-8)


def test_function_multiple_stays_in_distribution():
    # X_{h nu} - h X_nu lies in the distribution
    rng = np.random.default_rng(10)
    for _ in range(10):
        h, nu = chart_poly(rng, degree=2, terms=4), chart_poly(rng, degree=2, terms=4)
        prod = h * nu
        for pt in random_darboux_points(rng, 3):
            xp = contact_field(CHART, prod, pt).as_array()
            xn = contact_field(CHART, nu, pt).as_array()
            diff = xp - h.eval(pt.as_tuple()) * xn
            assert abs(contact_form_value(pt, diff)) <= 1e-10 * (
                1 + np.abs(diff).max())


def test_generating_function_recovered_from_field():
    # omega(X_nu) = nu pointwise on 100 random (nu, pt) pairs
    rng = np.random.default_rng(11)
    for _ in range(100):
        nu = chart_poly(rng, degree=3, terms=5)
        pt = random_darboux_points(rng, 1)[0]
        x = contact_field(CHART, nu, pt)
        assert contact_form_value(pt, x) == pytest.approx(
            nu.eval(pt.as_tuple()), abs=1e-10 * (1 + abs(nu.eval(pt.as_tuple()))))


def test_overflowing_bracket_is_quiet():
    # jet products overflow to inf and inf - inf; numpy must not warn
    mu = _var("u") * _var("p1") ** 3 + _var("x1") * _var("p2")
    nu = _var("p1") * _var("p2") * _var("u") + _var("x2") ** 2
    pt = DarbouxPoint(1e200, -1e200, 1e200, 1e150, -1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(lagrange_bracket(CHART, mu, nu, pt))


# --- the stacked bracket against the jet arithmetic it replaced -----------------

def _bracket_oracle(x_field, y_field):
    """[X, Y] by jet arithmetic: 50 products, each summed into its component
    in the order acc + X_j d_j Y_i - Y_j d_j X_i, j = 0..4."""
    order = x_field[0].order
    out = []
    with np.errstate(all="ignore"):
        for i in range(5):
            acc = Jet.constant(0.0, x_field[0].base, order - 1)
            for j in range(5):
                acc = acc + x_field[j].truncate(order - 1) * y_field[i].partial(j)
                acc = acc - y_field[j].truncate(order - 1) * x_field[i].partial(j)
            out.append(acc)
    return out


def _bits(field):
    """Order, shape and bits of each component, every NaN as one pattern:
    numpy's add returns either operand's NaN, depending on its loop, so a
    NaN's sign is not part of a result."""
    return [(jet.order, jet.data.shape,
             np.where(np.isnan(jet.data), np.nan, jet.data).tobytes()) for jet in field]


# exact zeros of both signs, overflow (1e200 squared) and 0 * inf, underflow
# (1e-200 squared, subnormals), and inexact values whose sums show the order
SPECIALS = [0.0, -0.0, 1e200, -1e200, 1e-200, 5e-324, math.inf, -math.inf, 1.0, -3.0]


def _random_field(rng, base, order, lanes, special_frac):
    rows = len(multi_indices(5, order))
    field = []
    for _ in range(5):
        data = rng.standard_normal((rows,) + lanes) * 10.0 ** rng.integers(-3, 4, (rows,) + lanes)
        special = rng.random((rows,) + lanes) < special_frac
        field.append(Jet(base, order, np.where(special, rng.choice(SPECIALS, (rows,) + lanes), data)))
    return field


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 3), lanes=st.sampled_from([(), (1,), (3,)]),
       special_frac=st.sampled_from([0.0, 0.1, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_bracket_fields_has_the_bits_of_the_jet_arithmetic(order, lanes, special_frac, seed):
    rng = np.random.default_rng(seed)
    base = tuple(rng.uniform(-1, 1, lanes) if lanes else float(rng.uniform(-1, 1))
                 for _ in range(5))
    x = _random_field(rng, base, order, lanes, special_frac)
    y = _random_field(rng, base, order, lanes, special_frac)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bracket_fields(x, y)
    assert _bits(got) == _bits(_bracket_oracle(x, y))


def test_bracket_fields_keeps_the_summation_order():
    # component 0 has the terms X_0 d_0 Y_0 = 1e16, Y_0 d_0 X_0 = 1e16 and
    # X_1 d_1 Y_0 = 1: the jet arithmetic gives ((0 + 1e16) - 1e16) + 1 = 1,
    # where summing each product stack first gives (1e16 + 1) - 1e16 = 0
    base = (0.0,) * 5
    zero = Jet.constant(0.0, base, 1)
    x = [zero + 1e16 + 1e16 * Jet.variable(0, base, 1), zero + 1.0, zero, zero, zero]
    y = [zero + 1.0 + Jet.variable(0, base, 1) + Jet.variable(1, base, 1),
         zero, zero, zero, zero]
    got = bracket_fields(x, y)
    assert got[0].value == 1.0
    assert _bits(got) == _bits(_bracket_oracle(x, y))


def test_bracket_fields_at_lanes_is_the_bracket_at_each_point():
    rng = np.random.default_rng(12)
    mu, nu = chart_poly(rng), chart_poly(rng)
    pts = random_darboux_points(rng, 4)
    columns = tuple(np.array(c) for c in zip(*(p.as_tuple() for p in pts)))
    for order in (1, 2):
        fields = []
        for g in (mu, nu):
            jet = g._jets(columns, order + 1, _Lanes(len(pts)))
            d = [jet.partial(k) for k in range(5)]
            p1, p2 = Jet.variable(3, jet.base, order), Jet.variable(4, jet.base, order)
            fields.append([-d[3], -d[4], jet.truncate(order) - p1 * d[3] - p2 * d[4],
                           d[0] + p1 * d[2], d[1] + p2 * d[2]])
        lanes = bracket_fields(*fields)
        for k, pt in enumerate(pts):
            one = bracket_fields(contact_field_jets(mu, pt, order),
                                 contact_field_jets(nu, pt, order))
            assert [jet.data[:, k].tobytes() for jet in lanes] == [
                jet.data.tobytes() for jet in one]


def _unit_field(base, order):
    return [Jet.constant(1.0, base, order) for _ in range(5)]


@pytest.mark.parametrize("which", range(10))
def test_bracket_fields_refuses_a_component_at_another_base_or_order(which):
    base = (0.1, 0.2, 0.3, 0.4, 0.5)
    for other in (Jet.constant(1.0, (0.0,) * 5, 2), Jet.constant(1.0, base, 1),
                  Jet.constant(1.0, base, 3)):
        x, y = _unit_field(base, 2), _unit_field(base, 2)
        (x if which < 5 else y)[which % 5] = other
        with pytest.raises(ValueError, match="jet base point / order mismatch"):
            bracket_fields(x, y)


def test_bracket_fields_refuses_order_0_fields():
    base = (0.1, 0.2, 0.3, 0.4, 0.5)
    with pytest.raises(ValueError, match="order-0 jet cannot be differentiated"):
        bracket_fields(_unit_field(base, 0), _unit_field(base, 0))


def test_bracket_fields_makes_two_product_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return kernel(*args)

    kernel = expr_module._product
    monkeypatch.setattr(expr_module, "_product", counted)
    monkeypatch.setattr(contact_module, "_product", counted)
    pt = DarbouxPoint(0.1, -0.2, 0.3, 0.4, -0.5)
    rng = np.random.default_rng(13)
    x = contact_field_jets(chart_poly(rng), pt, 2)
    y = contact_field_jets(chart_poly(rng), pt, 2)
    calls.clear()
    bracket_fields(x, y)
    assert len(calls) == 2
    Jet.constant(2.0, pt.as_tuple(), 1) * Jet.variable(0, pt.as_tuple(), 1)
    assert len(calls) == 3  # Jet.__mul__ runs the same kernel
