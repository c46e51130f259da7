"""Lane jets and the batched invariance defect against the per-point paths.

Every comparison is bitwise.  The references are the one-point jet
(``Expr.eval_jet``), a dictionary product written as the coefficient loop
of truncated Taylor arithmetic (Griewank and Walther, *Evaluating
Derivatives*, ch. 13), per-matrix ``m @ z``, and the invariance defect
computed point by point with 4x4 numpy arithmetic.
"""

import math
import operator
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import binary, column_jets, leaf_expressions
from macontact import monge_ampere
from macontact.contact import CHART_VARIABLES
from macontact.expr import (FUNCTIONS, EvalDomainError, Expr, Jet, _Lanes, _product,
                            _product_table, _scale, multi_indices, parse)
from macontact.monge_ampere import (MAEquation, invariance_defect, invariance_defects,
                                    residual, structure_operator)
from macontact.contact import DarbouxPoint

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300,
           math.inf, -math.inf, math.nan]


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _same(x: float, y: float) -> bool:
    return (math.isnan(x) and math.isnan(y)) or _bits(x) == _bits(y)


# --- the product ------------------------------------------------------------------

def _dict_product(n, order, left, right):
    """Coefficient-loop product: each coefficient is 0.0 plus, in index
    order, every term whose factors are both nonzero."""
    idx = multi_indices(n, order)
    out = {a: 0.0 for a in idx}
    for a, ca in zip(idx, left):
        if ca == 0.0:
            continue
        for b, cb in zip(idx, right):
            if cb == 0.0 or sum(a) + sum(b) > order:
                continue
            out[tuple(x + y for x, y in zip(a, b))] += ca * cb
    return [out[a] for a in idx]


coefficients = st.one_of(st.sampled_from(SPECIAL),
                         st.floats(-10, 10, allow_nan=False))
shapes = st.sampled_from([(1, 3), (2, 2), (2, 4), (2, 6), (3, 2), (5, 1), (5, 2)])


@settings(max_examples=300, deadline=None)
@given(shapes, st.data())
def test_product_matches_coefficient_loop_bitwise(shape, data):
    n, order = shape
    rows = len(multi_indices(n, order))
    lanes = data.draw(st.integers(1, 4))
    vectors = st.lists(coefficients, min_size=rows, max_size=rows)
    lefts = [data.draw(vectors) for _ in range(lanes)]
    rights = [data.draw(vectors) for _ in range(lanes)]
    base = (0.0,) * n
    with np.errstate(all="ignore"):
        lane_jet = (Jet(tuple(np.zeros(lanes) for _ in range(n)), order, np.array(lefts).T)
                    * Jet(tuple(np.zeros(lanes) for _ in range(n)), order, np.array(rights).T))
        for lane, (left, right) in enumerate(zip(lefts, rights)):
            expected = _dict_product(n, order, left, right)
            one = Jet(base, order, left) * Jet(base, order, right)
            assert all(map(_same, one.data.tolist(), expected))
            assert all(map(_same, lane_jet.data[:, lane].tolist(), expected))


def test_product_skips_zero_factors_of_infinite_terms():
    base = (0.0, 0.0)
    inf_jet = Jet(base, 1, [math.inf, 0.0, 1.0])
    zero_jet = Jet(base, 1, [0.0, -0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0 * inf is ever formed
        product = inf_jet * zero_jet
    assert [_bits(c) for c in product.data.tolist()] == [_bits(0.0)] * 3


def _masked_product(a, b, n, order):
    """The product with every zero-factor term -0.0 and never formed: each
    coefficient is 0.0 plus its terms in table order."""
    rows = len(a)
    left, right, target = _product_table(n, order)
    a, b = a[left], b[right]
    terms = np.full_like(a, -0.0)
    np.multiply(a, b, out=terms, where=(a != 0.0) & (b != 0.0))
    lanes = terms[0].size
    flat = (target[:, None] * lanes + np.arange(lanes)).ravel() if terms.ndim > 1 else target
    data = np.bincount(flat, terms.ravel(), minlength=rows * lanes)
    return data.reshape((rows,) + terms.shape[1:])


def _int64(data):
    """Bits of the data, every NaN as one pattern (numpy's add may return
    either NaN operand, README)."""
    return np.where(np.isnan(data), np.nan, data).view(np.int64).tolist()


# signed zeros, infinities and NaN make every case of the unmasked-first sum:
# 0 * inf and 0 * NaN terms, inf - inf sums, and zero factors of finite terms
kernel_entries = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                                            1e200, -1e-200, 5e-324]),
                           st.floats(-10, 10, allow_nan=False))
lane_shapes = st.sampled_from([(), (1,), (3,), (2, 3)])


def _draw_data(data, shape):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(kernel_entries, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(shapes, lane_shapes, st.data())
def test_unmasked_first_product_has_the_masked_bits(shape, lanes, data):
    n, order = shape
    size = (len(multi_indices(n, order)),) + lanes
    a, b = _draw_data(data, size), _draw_data(data, size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning outside np.errstate
        got = _product(a, b, n, order)
    with np.errstate(all="ignore"):
        expected = _masked_product(a, b, n, order)
    assert got.shape == expected.shape
    assert _int64(got) == _int64(expected)


@settings(max_examples=200, deadline=None)
@given(shapes, lane_shapes, st.data())
def test_scale_is_the_product_by_a_constant_jet(shape, lanes, data):
    n, order = shape
    size = (len(multi_indices(n, order)),) + lanes
    b = _draw_data(data, size)
    c = _draw_data(data, lanes)  # one constant per lane
    constant = np.zeros(size)
    constant[0] = c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _scale(c if lanes else float(c), b)
    with np.errstate(all="ignore"):
        expected = _masked_product(constant, b, n, order)
    assert _int64(got) == _int64(expected)
    assert _int64(got) == _int64(_product(constant, b, n, order))


@pytest.mark.parametrize("c", [0.0, -0.0, 1.0, -2.5, math.inf, math.nan])
@pytest.mark.parametrize("lanes", [None, 4])
def test_numeric_factor_is_the_constant_jet_product(c, lanes):
    n, order = 2, 3
    rows = len(multi_indices(n, order))
    values = np.resize([0.0, -0.0, 1.5, -1e200, math.inf, -math.inf, math.nan, 5e-324],
                       rows * (lanes or 1))
    data = values.reshape((rows, lanes) if lanes else rows)
    base = tuple(np.zeros(lanes) for _ in range(n)) if lanes else (0.0,) * n
    jet = Jet(base, order, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _scale(c, data)
        expected = (Jet.constant(c, base, order) * jet).data
    assert _int64(got) == _int64(expected)
    assert not np.signbit(got[got == 0.0]).any()  # 0.0 plus the term is never -0.0


# --- lane jets against the one-point jet -------------------------------------------

numbers = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, 1e300, 1e-300]),
                    st.floats(-5, 5, allow_nan=False))
points = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 1e300, math.inf]),
                   st.floats(-3, 3, allow_nan=False))


def _trees(names):
    return st.recursive(leaf_expressions(numbers, names), lambda children: st.one_of(
        children.map(operator.neg),
        st.builds(binary, st.sampled_from("+-*/"), children, children),
        st.builds(operator.pow, children, st.integers(-3, 4)),
        st.builds(Expr.apply, children, st.sampled_from(FUNCTIONS)),
    ), max_leaves=10)


# (variables, order) pairs the library evaluates: verify lifts (2, 2), lift_point
# and the zeta residuals (2, 1) and (2, 2), contact fields (5, 1), brackets (5, 2),
# bend inputs (2, k); the benchmark's eval_jet runs (5, 3..6).
JET_SHAPES = [(2, 0), (2, 1), (2, 2), (2, 3), (2, 5), (5, 1), (5, 2), (5, 3)]


def _check_lanes(expr, order, lanes):
    columns = [np.array(c) for c in zip(*lanes)]
    channel = _Lanes(len(lanes))
    jet = expr._jets(columns, order, channel)
    flagged, errors = channel.raised, channel.errors
    assert jet.data.shape == (len(multi_indices(len(expr.variables), order)), len(lanes))
    for lane, point in enumerate(lanes):
        try:
            expected = expr.eval_jet(point, order).data.tolist()
        except EvalDomainError as exc:
            assert flagged[lane], (expr.to_string(), point)
            assert errors.get(lane) == str(exc), (expr.to_string(), point)
            continue
        assert lane not in errors and not flagged[lane], (expr.to_string(), point)
        got = jet.data[:, lane].tolist()
        assert all(map(_same, got, expected)), (expr.to_string(), point)


@pytest.mark.parametrize("n, order", JET_SHAPES)
def test_lane_jets_match_point_jets_bitwise(n, order):
    names = ("x", "y") if n == 2 else CHART_VARIABLES

    @settings(max_examples=60 if n == 2 else 25, deadline=None)
    @given(_trees(names), st.lists(st.tuples(*[points] * n), min_size=1, max_size=6))
    def check(expr, lanes):
        _check_lanes(expr, order, lanes)

    check()


# numpy's power differs from Python's x ** m on these (m = 2 and 3), found
# by a seeded search; the lanes must keep Python's bits
POWER_EDGES = [(1.8903560604397107,), (0.8652184011534257,), (1.7497633501454266,),
               (1.4554425309821815,), (1.9958149036838164,)]


@pytest.mark.parametrize("text, lanes", [
    ("1/x", [(0.0,), (-0.0,), (1e-300,), (5e-324,), (2.0,)]),
    ("0*(1/x)", [(0.0,), (1.0,)]),       # the zero factor must not hide the error
    ("0/x", [(0.0,), (3.0,)]),
    ("x^-2", [(0.0,), (1e-200,), (4.0,)]),
    ("ln(x)", [(0.0,), (-0.0,), (-1e-300,), (5e-324,), (1.0,)]),
    ("sqrt(x)", [(0.0,), (-0.0,), (-5e-324,), (5e-324,), (4.0,)]),
    ("exp(700*x) + exp(800*x)", [(1.0,), (0.5,), (-1.0,)]),
    ("0*exp(800*x)", [(1.0,), (0.0,)]),
    ("sin(x*1e308*10)", [(1.0,), (0.0,), (-0.0,)]),
    ("x*1e308*10 - x*1e308*10", [(1.0,), (0.0,)]),
    ("1/(x*1e308*10)", [(1.0,), (-1.0,), (0.0,)]),
    # x ** m overflows (1e200, 1e308) or underflows to a zero divisor (1e-200)
    ("ln(x)", [(1e200,), (1e-200,), (1e308,), (2.0,)]),
    ("1/x", [(1e200,), (1e-200,), (1e308,), (-1e200,), (-1e-200,), (2.0,)]),
    ("x^-2", [(1e200,), (1e-200,), (1e308,)]),
    ("ln(x) + 1/x", [(1e-200,), (1e200,), (3.0,)]),
    ("ln(x)", POWER_EDGES),
    ("1/x", POWER_EDGES),
])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_lane_jets_on_domain_edges(text, lanes, order):
    _check_lanes(parse(text, ("x",)), order, lanes)


@pytest.mark.parametrize("text", ["exp(x)", "sin(x)", "cos(x)", "exp(x) + cos(x)"])
@pytest.mark.parametrize("order", [170, 171])
def test_lane_jets_past_the_largest_float_factorial(text, order):
    # float(171!) overflows: every lane raises, unless its argument did first
    lanes = [(1.0,), (-2.0,), (800.0,), (math.inf,), (math.nan,)]
    _check_lanes(parse(text, ("x",)), order, lanes)
    _, flagged = column_jets(parse(text, ("x",)), [np.array([1.0, 2.0])], order)
    assert flagged.all() == (order == 171)


def _pow_overflow_text():
    try:
        1e200 ** 2
    except OverflowError as exc:
        return f"evaluation overflow: {exc}"


@pytest.mark.parametrize("text, point, order, message", [
    ("cos(x)", math.inf, 1, "sin of non-finite value inf"),   # cos tests sin first
    ("cos(x)", math.inf, 171, "sin of non-finite value inf"),
    ("sqrt(x)", -1.0, 0, "sqrt at -1.0 is not smooth"),
    ("sqrt(x)", -0.0, 2, "sqrt at -0.0 is not smooth"),
    ("ln(x)", 1e200, 2, _pow_overflow_text()),
    ("ln(x)", 1e308, 2, _pow_overflow_text()),
    ("ln(x)", 1e-200, 2, "evaluation overflow: float division by zero"),
    ("1/x", 1e200, 1, _pow_overflow_text()),
    ("1/x", -1e-200, 3, "evaluation overflow: float division by zero"),
    ("x^-2", 1e-170, 1, "evaluation overflow: float division by zero"),
    ("1/x", 0.0, 2, "division by a jet with zero constant term"),
    ("exp(x)", 1.0, 171, "evaluation overflow: int too large to convert to float"),
    ("sin(x)", 1.0, 171, "evaluation overflow: int too large to convert to float"),
    ("exp(x)", 710.0, 171, "evaluation overflow: math range error"),
])
def test_series_errors_keep_their_texts(text, point, order, message):
    expr = parse(text, ("x",))
    with pytest.raises(EvalDomainError) as exc:
        expr.eval_jet((point,), order)
    assert str(exc.value) == message
    lanes = _Lanes(2)
    expr._jets([np.array([point, 2.0])], order, lanes)
    errors = lanes.errors
    assert errors[0] == message
    assert (1 in errors) == (order > 170)  # float(171!) overflows on every lane


def test_lane_jet_accessors_return_lane_arrays():
    expr = parse("x1^2*x2 + sin(x2)", ("x1", "x2"))
    jet, flagged = column_jets(expr, [np.array([0.5, -1.0]), np.array([2.0, 0.25])], 2)
    assert not flagged.any()
    for lane, point in enumerate([(0.5, 2.0), (-1.0, 0.25)]):
        one = expr.eval_jet(point, 2)
        assert type(one.value) is float and type(one.derivative((1, 1))) is float
        assert jet.value[lane] == one.value
        assert jet.derivative((1, 1))[lane] == one.derivative((1, 1))
        assert [c[lane] for c in jet.coeffs.values()] == list(one.coeffs.values())
        assert jet.partial(0).data[:, lane].tolist() == one.partial(0).data.tolist()
        assert jet.truncate(1).data[:, lane].tolist() == one.truncate(1).data.tolist()


def test_lane_jet_without_flags_raises_the_point_error():
    jet, _ = column_jets(parse("x", ("x",)), [np.array([1.0, 0.0])], 1)
    with pytest.raises(EvalDomainError, match="zero constant term"):
        jet.reciprocal()


# --- stacked matmul ----------------------------------------------------------------

entries = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, width=64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(entries, min_size=16, max_size=16),
                          st.lists(entries, min_size=4, max_size=4)),
                min_size=1, max_size=5))
def test_stacked_matmul_matches_single_products_bitwise(pairs):
    ms = np.array([m for m, _ in pairs]).reshape(-1, 4, 4)
    zs = np.array([z for _, z in pairs])
    with np.errstate(all="ignore"):
        stacked = np.matmul(ms, zs[..., None])[..., 0]
        for m, z, got in zip(ms, zs, stacked):
            assert all(map(_same, got.tolist(), (m @ z).tolist()))


def test_stacked_matmul_matches_single_products_on_random_operators():
    rng = np.random.default_rng(3)
    count = 20000
    ms = rng.standard_normal((count, 4, 4)) * 10.0 ** rng.integers(-8, 8, (count, 1, 1))
    ms[rng.random((count, 4, 4)) < 0.2] = 0.0
    zs = np.stack([np.ones(count), np.zeros(count),
                   rng.standard_normal(count), rng.standard_normal(count)], axis=-1)
    stacked = np.matmul(ms, zs[..., None])[..., 0]
    single = np.array([m @ z for m, z in zip(ms, zs)])
    assert np.array_equal(stacked.view(np.int64), single.view(np.int64))


# --- the batched invariance defect --------------------------------------------------

def _reference_defect(eq, f, base):
    """The invariance defect at one point with 4x4 numpy arithmetic."""
    jet = f.eval_jet(base, 2)
    pt = DarbouxPoint(base[0], base[1], jet.value,
                      jet.derivative((1, 0)), jet.derivative((0, 1)))
    f11, f12, f22 = (jet.derivative(a) for a in ((2, 0), (1, 1), (0, 2)))
    n, a, b, c, d = eq.coefficients_at(pt)
    e_val = n * (f11 * f22 - f12 * f12) + a * f11 + b * f12 + c * f22 + d
    m = np.array([[b, -2 * a, 0, -2 * n], [2 * c, -b, 2 * n, 0],
                  [0, 2 * d, b, 2 * c], [-2 * d, 0, -2 * a, -b]], dtype=float)
    z1 = np.array([1.0, 0.0, f11, f12])
    z2 = np.array([0.0, 1.0, f12, f22])
    defect = 0.0
    for z in (z1, z2):
        image = m @ z
        rem = image - image[0] * z1 - image[1] * z2
        defect = max(defect, float(np.hypot(rem[2], rem[3])))
    predicted = ((b - 2 * f12 * n) * z1 + 2 * (c + f11 * n) * z2
                 - 2 * e_val * np.array([0.0, 0.0, 0.0, 1.0]))
    deviation = float(np.abs(m @ z1 - predicted).max())
    return defect, deviation, e_val


EQUATIONS = [
    MAEquation.from_strings(A="1", C="1"),
    MAEquation.from_strings(N="1", D="-4"),
    MAEquation.from_strings(N="0.1*u", A="1 + p1^2", B="p1*p2*sin(x1)",
                            C="1 + p2^2 - 0.5*exp(u)", D="0.01*u*p1 - x2/(2 + p2^2)"),
    MAEquation.from_strings(N="u", A="p1", B="p2*u", C="1/p1", D="ln(u)"),
    MAEquation.from_strings(A="1e300", C="1e300", B="-0.0*u"),
    MAEquation.from_strings(A="sqrt(p2)", C="exp(1000*u)"),
    MAEquation.from_strings(A="1e300*1e300", B="x1", C="1", D="u"),  # A is inf
]
base_values = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 1.0, -1.0, 1e150, 1e300]),
                        st.floats(-2, 2, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(EQUATIONS))), _trees(("x1", "x2")),
       st.lists(st.tuples(base_values, base_values), min_size=1, max_size=6))
def test_batched_defects_match_point_defects_bitwise(which, f, bases):
    eq = EQUATIONS[which]
    expected, error = [], None
    for base in bases:
        try:
            with np.errstate(all="ignore"):
                expected.append(_reference_defect(eq, f, base))
        except EvalDomainError as exc:
            error = str(exc)
            break
    if error is not None:
        with pytest.raises(EvalDomainError) as exc:
            invariance_defects(eq, f, bases)
        assert str(exc.value) == error
        # residual is the one-point case: the failing base raises the same text
        with pytest.raises(EvalDomainError) as exc:
            residual(eq, f, base)
        assert str(exc.value) == error
        return
    report = invariance_defects(eq, f, bases)
    for i, (defect, deviation, e_val) in enumerate(expected):
        assert _same(report.defect[i], defect)
        assert _same(report.decomposition_deviation[i], deviation)
        assert _same(report.residual[i], e_val)
        one = invariance_defect(eq, f, bases[i])
        assert (_same(one.defect, defect) and _same(one.decomposition_deviation, deviation)
                and _same(one.residual, e_val))
        assert _same(residual(eq, f, bases[i]), e_val)


def test_batched_defects_match_point_defects_on_generic_equations():
    # dense coefficients and second derivatives make images of three nonzero
    # terms, whose sum BLAS groups differently from a left-to-right sum
    rng = np.random.default_rng(11)
    f = parse("0.3*x1^2 - 1.7*x1*x2 + 0.9*x2^2 + 0.25*x1^3 - x2^3 + sin(x1 - 2*x2)",
              ("x1", "x2"))
    for _ in range(3):
        eq = MAEquation.from_strings(**{name: repr(v) for name, v in
                                        zip("NABCD", rng.standard_normal(5).tolist())})
        bases = rng.uniform(-2, 2, (200, 2))
        report = invariance_defects(eq, f, bases)
        for i, base in enumerate(bases.tolist()):
            defect, deviation, residual = _reference_defect(eq, f, base)
            assert _bits(report.defect[i]) == _bits(defect)
            assert _bits(report.decomposition_deviation[i]) == _bits(deviation)
            assert _bits(report.residual[i]) == _bits(residual)


@pytest.mark.parametrize("coeffs, text", [
    # B f11 overflows: the deviation is max(0, 0, inf - inf, 0), NaN as in numpy
    ({"B": "1e10", "C": "1"}, "1e300*x1^2"),
    ({"A": "1e300*1e300", "C": "1"}, "x1^2 - x2"),
    ({"N": "1", "D": "-1e308"}, "1e200*x1*x2 + x1^2"),
])
def test_batched_defects_keep_non_finite_values(coeffs, text):
    eq, f = MAEquation.from_strings(**coeffs), parse(text, ("x1", "x2"))
    bases = [(0.5, -0.25), (-1.0, 2.0), (0.0, -0.0)]
    report = invariance_defects(eq, f, bases)
    for i, base in enumerate(bases):
        with np.errstate(all="ignore"):
            expected = _reference_defect(eq, f, base)
        got = (report.defect[i], report.decomposition_deviation[i], report.residual[i])
        assert all(map(_same, got, expected)), (got, expected)


def test_structure_operator_keeps_its_matrix():
    eq = MAEquation.from_strings(N="2", A="3", B="5", C="7", D="11")
    m = structure_operator(eq, DarbouxPoint(0, 0, 0, 0, 0)).matrix
    assert m.tolist() == [[5, -6, 0, -4], [14, -5, 4, 0], [0, 22, 5, 14], [-22, 0, -6, -5]]


# --- blocks of base points ------------------------------------------------------------

_BLOCK_EQ = MAEquation.from_strings(N="0.1*u", A="1 + p1^2", B="p1*p2*sin(x1)",
                                    C="1 + p2^2", D="ln(x1 + 2)")
_BLOCK_F = parse("0.3*x1^2 - 1.7*x1*x2 + 0.9*x2^2 + sin(x1 - 2*x2) + 1/x1", ("x1", "x2"))


def _report_bytes(report) -> tuple:
    return tuple(a.tobytes() for a in (report.defect, report.decomposition_deviation,
                                       report.residual))


@pytest.mark.parametrize("block", [1, 2, 3, 4, 11, None])
def test_blocked_defects_equal_one_block(block, monkeypatch):
    count = 11 if block else 2 * monge_ampere._BASE_BLOCK + 3
    bases = np.random.default_rng(3).uniform(0.1, 1.5, (count, 2))
    monkeypatch.setattr(monge_ampere, "_BASE_BLOCK", 10 ** 9)
    whole = invariance_defects(_BLOCK_EQ, _BLOCK_F, bases)
    monkeypatch.undo()
    if block:
        monkeypatch.setattr(monge_ampere, "_BASE_BLOCK", block)
    assert _report_bytes(invariance_defects(_BLOCK_EQ, _BLOCK_F, bases)) == _report_bytes(whole)


@pytest.mark.parametrize("block", [1, 2, 3, 4, 11])
@pytest.mark.parametrize("lift_first", [False, True])
def test_blocked_defects_raise_the_lowest_failing_point(block, lift_first, monkeypatch):
    # sample 5 and 6 fail, one in the lift (1/x1 at x1 = 0) and one in D
    # (ln at x1 + 2 <= 0); blocks of 2 and 3 put them on either side of an edge
    bases = np.random.default_rng(4).uniform(0.1, 1.5, (11, 2))
    bases[[5, 6] if lift_first else [6, 5]] = [(0.0, 0.5), (-2.5, 0.5)]
    message = ("division by a jet with zero constant term" if lift_first
               else "ln of nonpositive value -0.5")
    monkeypatch.setattr(monge_ampere, "_BASE_BLOCK", block)
    with pytest.raises(EvalDomainError) as exc:
        invariance_defects(_BLOCK_EQ, _BLOCK_F, bases)
    assert str(exc.value) == message
    with pytest.raises(EvalDomainError) as point:
        for base in bases:
            _reference_defect(_BLOCK_EQ, _BLOCK_F, base)
    assert str(point.value) == message


# --- one error channel: failing samples are never evaluated again -------------------

@pytest.fixture
def scalar_calls(monkeypatch):
    """Counts calls of the one-point evaluators the batched defect must not use."""
    from macontact import expr as expr_module, monge_ampere
    counts = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(expr_module.Expr, "eval")
    counting(expr_module.Expr, "eval_jet")
    counting(monge_ampere, "invariance_defect")
    counting(MAEquation, "coefficients_at")
    return counts


@pytest.mark.parametrize("coeffs, text, bases, message", [
    # the lift raises at the second sample, N..D at the third
    ({"A": "1/(x1 - 2)", "C": "1"}, "1/x1", [(1.0, 0.0), (0.0, 1.0), (2.0, 1.0)],
     "division by a jet with zero constant term"),
    # C and D raise at the second sample (C first), the lift at the third
    ({"A": "ln(p1)", "C": "sqrt(x2)", "D": "exp(-800*x2*u)"}, "x1 + ln(x1)",
     [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)], "sqrt of negative value -1.0"),
    ({"N": "exp(u)", "C": "1"}, "710*x1^2", [(0.5, 0.0), (1.0, 0.0), (0.0, 1.0)],
     "evaluation overflow: math range error"),
])
def test_batched_defects_raise_the_first_error_without_scalar_reruns(
        coeffs, text, bases, message, scalar_calls):
    eq, f = MAEquation.from_strings(**coeffs), parse(text, ("x1", "x2"))
    with pytest.raises(EvalDomainError) as exc:
        invariance_defects(eq, f, bases)
    assert str(exc.value) == message
    assert scalar_calls == {}
    # the same text as the point loop the batched pass replaces
    with pytest.raises(EvalDomainError) as point:
        for base in bases:
            _reference_defect(eq, f, base)
    assert str(point.value) == message
