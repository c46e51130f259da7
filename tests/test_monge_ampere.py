import itertools
import json

import numpy as np
import pytest

from macontact.cli import _region_json
from macontact.contact import DarbouxPoint, contact_form_value
from macontact.expr import Expr, parse
from macontact.monge_ampere import (EquationType, GridSpec, MAEquation,
                                    basic_algebra, classify, classify_region,
                                    darboux_space, discriminant, structure_operator,
                                    invariance_defect, legendre_swap,
                                    legendre_swap_point, lift_point, residual,
                                    tangent_frame)
from macontact.contact import CHART_VARIABLES
from macontact.expr import EvalDomainError
from macontact.monge_ampere import CellResult, delta_type
from macontact.symplectic import OperatorType, classify_dim4, is_self_adjoint

XY = ("x1", "x2")
ORIGIN = DarbouxPoint(0, 0, 0, 0, 0)

LAPLACE = MAEquation.from_strings(A="1", C="1")
WAVE = MAEquation.from_strings(A="1", C="-1")
HOMOGENEOUS = MAEquation.from_strings(N="1")
DET_ONE = MAEquation.from_strings(N="1", D="1")


def constant_equation(values) -> MAEquation:
    from macontact.contact import CHART_VARIABLES
    return MAEquation(*(Expr.const(v, CHART_VARIABLES) for v in values))


# --- lifts ------------------------------------------------------------------

def test_lift_point_examples():
    f = parse("x1^2 - x2^2", XY)
    assert lift_point(f, (1, 1)) == DarbouxPoint(1, 1, 0, 2, -2)
    zero = Expr.const(0, XY)
    assert lift_point(zero, (0.3, -0.4)) == DarbouxPoint(0.3, -0.4, 0, 0, 0)
    assert lift_point(parse("x1*x2", XY), (2, 3)) == DarbouxPoint(2, 3, 6, 3, 2)


# --- discriminant and type -----------------------------------------------------

def test_discriminant_fixtures():
    assert discriminant(LAPLACE, ORIGIN) == -4.0
    assert discriminant(WAVE, ORIGIN) == 4.0
    assert discriminant(HOMOGENEOUS, ORIGIN) == 0.0


def test_classify_fixtures():
    assert classify(LAPLACE, ORIGIN) is EquationType.ELLIPTIC
    assert classify(WAVE, ORIGIN) is EquationType.HYPERBOLIC
    assert classify(HOMOGENEOUS, ORIGIN) is EquationType.PARABOLIC


# --- structure operator -----------------------------------------------------------

def test_frak_a_laplace_matrix():
    expected = np.array([[0, -2, 0, 0], [2, 0, 0, 0],
                         [0, 0, 0, 2], [0, 0, -2, 0]], dtype=float)
    assert np.array_equal(structure_operator(LAPLACE, ORIGIN).matrix, expected)


def test_frak_a_squares_to_discriminant_on_random_tuples():
    rng = np.random.default_rng(0)
    sp = darboux_space()
    for _ in range(200):
        vals = rng.uniform(-2, 2, 5)
        eq = constant_equation(vals)
        m = structure_operator(eq, ORIGIN).matrix
        delta = discriminant(eq, ORIGIN)
        norm2 = float(np.linalg.norm(m)) ** 2
        assert np.abs(m @ m - delta * np.eye(4)).max() <= 1e-10 * (1 + norm2)
        assert is_self_adjoint(sp, structure_operator(eq, ORIGIN), tol=1e-10)


def test_type_agrees_with_operator_classification():
    rng = np.random.default_rng(1)
    sp = darboux_space()
    checked = 0
    for _ in range(300):
        vals = rng.uniform(-2, 2, 5)
        eq = constant_equation(vals)
        delta = discriminant(eq, ORIGIN)
        if abs(delta) <= 1e-9:
            continue
        result = classify_dim4(sp, structure_operator(eq, ORIGIN))
        if result.type is OperatorType.SCALAR:
            continue
        assert classify(eq, ORIGIN).value == result.type.value
        checked += 1
    assert checked >= 250


# --- residual -----------------------------------------------------------------------

def test_residual_harmonic_is_zero():
    f = parse("x1^2 - x2^2", XY)
    rng = np.random.default_rng(2)
    for base in rng.uniform(-1, 1, size=(10, 2)):
        assert residual(LAPLACE, f, tuple(base)) == 0.0


def test_residual_nonsolution():
    assert residual(LAPLACE, parse("x1^2", XY), (0.5, 0.5)) == 2.0


def test_residual_det_one_fixture():
    # N=1, D=1 with f = x1 x2: E = (0*0 - 1) + 1 = 0
    assert residual(DET_ONE, parse("x1*x2", XY), (0.7, -0.4)) == 0.0


# --- tangent frame ---------------------------------------------------------------------

def test_tangent_frame_flat():
    z1, z2 = tangent_frame(Expr.const(0, XY), (0.2, 0.3))
    assert z1.components == (1, 0, 0, 0, 0)
    assert z2.components == (0, 1, 0, 0, 0)


def test_tangent_frame_parabola():
    z1, _ = tangent_frame(parse("x1^2", XY), (0.5, 0))
    assert z1.components == (1, 0, 1.0, 2.0, 0)  # p1 = 2 x1 = 1


def test_tangent_frame_annihilates_contact_form():
    rng = np.random.default_rng(3)
    f = parse("x1^3 - 2*x1*x2 + x2^2", XY)
    for base in rng.uniform(-1, 1, size=(20, 2)):
        z1, z2 = tangent_frame(f, tuple(base))
        assert contact_form_value(z1.point, z1) == 0.0
        assert contact_form_value(z2.point, z2) == 0.0


# --- invariance ---------------------------------------------------------------------------

def test_invariance_defect_solution():
    f = parse("x1^2 - x2^2", XY)
    rep = invariance_defect(LAPLACE, f, (0.4, 0.9))
    assert rep.defect <= 1e-10
    assert rep.decomposition_deviation <= 1e-10


def test_invariance_defect_nonsolution_value():
    rep = invariance_defect(LAPLACE, parse("x1^2", XY), (0.4, 0.9))
    assert rep.residual == 2.0
    assert rep.defect == pytest.approx(4.0)


def test_invariance_defect_zero_function_no_source():
    eq = MAEquation.from_strings(A="1", C="1", D="0")
    rep = invariance_defect(eq, Expr.const(0, XY), (1.0, 2.0))
    assert rep.defect == 0.0


def test_defect_to_residual_ratio_is_one():
    rng = np.random.default_rng(4)
    for f_text in ("x1^2", "x1^2 + x2^2", "x1^3 + x2^2"):
        f = parse(f_text, XY)
        for base in rng.uniform(-1, 1, size=(10, 2)):
            rep = invariance_defect(LAPLACE, f, tuple(base))
            if abs(rep.residual) < 1e-6:
                continue
            assert rep.defect / abs(2 * rep.residual) == pytest.approx(1.0, abs=1e-12)


def test_decomposition_identity_holds_regardless_of_solution():
    rng = np.random.default_rng(5)
    from conftest import random_poly_expr
    for _ in range(20):
        vals = rng.uniform(-2, 2, 5)
        eq = constant_equation(vals)
        f = random_poly_expr(rng, XY, degree=4)
        base = tuple(rng.uniform(-1, 1, 2))
        rep = invariance_defect(eq, f, base)
        assert rep.decomposition_deviation <= 1e-10 * (1 + abs(rep.residual))


def test_second_tangent_decomposition_identity():
    # companion identity derived by the same frame computation:
    # structure_operator(Z2) = -2(A + N f22) Z1 - (B - 2 N f12) Z2 + 2 E e3
    rng = np.random.default_rng(6)
    from conftest import random_poly_expr
    for _ in range(20):
        vals = rng.uniform(-2, 2, 5)
        eq = constant_equation(vals)
        f = random_poly_expr(rng, XY, degree=4)
        base = tuple(rng.uniform(-1, 1, 2))
        jet = f.eval_jet(base, 2)
        f11 = jet.derivative((2, 0))
        f12 = jet.derivative((1, 1))
        f22 = jet.derivative((0, 2))
        pt = lift_point(f, base)
        n, a, b, c, d = eq.coefficients_at(pt)
        e_val = residual(eq, f, base)
        m = structure_operator(eq, pt).matrix
        z1 = np.array([1.0, 0.0, f11, f12])
        z2 = np.array([0.0, 1.0, f12, f22])
        predicted = (-2 * (a + n * f22) * z1 - (b - 2 * n * f12) * z2
                     + 2 * e_val * np.array([0.0, 0.0, 1.0, 0.0]))
        assert np.abs(m @ z2 - predicted).max() <= 1e-10 * (1 + abs(e_val))


# --- basic algebra ---------------------------------------------------------------------

def test_basic_algebra_fixture_types():
    assert basic_algebra(LAPLACE, ORIGIN).classification.type is OperatorType.ELLIPTIC
    assert basic_algebra(HOMOGENEOUS, ORIGIN).classification.type is OperatorType.PARABOLIC
    assert basic_algebra(WAVE, ORIGIN).classification.type is OperatorType.HYPERBOLIC


def test_basic_algebra_rejects_degenerate_equation():
    zero = MAEquation.from_strings()
    with pytest.raises(ValueError):
        basic_algebra(zero, ORIGIN)


def test_basic_algebra_jordan_closure():
    assert basic_algebra(LAPLACE, ORIGIN).jordan_closure_defect <= 1e-12


@pytest.mark.parametrize("exponent", range(0, 149, 4))
def test_basic_algebra_jordan_closure_is_roundoff_at_every_scale(exponent):
    # frak_A^2 = Delta I is exact, so nothing checks it; up to the
    # ||A||_F <= 1e150 that classify_dim4 admits the defect stays roundoff
    rng = np.random.default_rng(exponent)
    for _ in range(20):
        eq = constant_equation(rng.uniform(-1, 1, 5) * 10.0 ** exponent / 4)
        algebra = basic_algebra(eq, ORIGIN)
        norm = np.linalg.norm(algebra.generator.matrix)
        assert algebra.jordan_closure_defect <= np.finfo(float).eps * norm * norm


# --- region classification ---------------------------------------------------------------

def test_classify_region_laplace_all_elliptic():
    grid = GridSpec({"x1": (-1, 1, 4), "x2": (-1, 1, 4)})
    region = classify_region(LAPLACE, grid)
    assert len(region.cells) == 16
    assert all(c.type == "elliptic" for c in region.cells)


def test_classify_region_sign_change_in_u():
    eq = MAEquation.from_strings(A="1", C="u")
    grid = GridSpec({"u": (-1, 1, 11)})
    region = classify_region(eq, grid, band=1.0)
    types = [c.type for c in region.cells]
    # Delta = -4u: negative u gives hyperbolic, positive elliptic,
    # u = 0 is an exact parabolic cell, 0 < |4u| <= 1 cells sit in the band
    assert types[0] == "hyperbolic"
    assert types[-1] == "elliptic"
    assert "parabolic" in types
    assert "band" in types


def test_classify_region_empty_grid():
    region = classify_region(LAPLACE, GridSpec({"x1": (0, 1, 0)}))
    assert region.cells == ()


def test_classify_region_records_errors_per_cell():
    eq = MAEquation.from_strings(A="ln(u)", C="1")
    grid = GridSpec({"u": (-1, 1, 5)})
    region = classify_region(eq, grid)
    errors = [c for c in region.cells if c.error]
    assert 0 < len(errors) < len(region.cells)
    assert region.error_fraction == pytest.approx(len(errors) / 5)


def test_region_json_shape():
    grid = GridSpec({"x1": (0, 1, 2)}, fixed={"u": 0.5})
    payload = json.loads("".join(_region_json(classify_region(LAPLACE, grid))))
    assert payload["grid"]["axes"] == {"x1": [0, 1, 2]}
    assert payload["grid"]["fixed"] == {"u": 0.5}
    assert payload["cells"][0]["index"] == [0]
    assert payload["cells"][0]["type"] == "elliptic"


# --- Legendre swap -------------------------------------------------------------------------

def test_legendre_swap_preserves_contact_data():
    pt = DarbouxPoint(0.3, -0.7, 0.25, 1.1, -0.2)
    swapped = legendre_swap_point(pt)
    assert swapped == DarbouxPoint(1.1, -0.7, 0.25 - 0.3 * 1.1, -0.3, -0.2)


def test_legendre_swap_preserves_type_and_discriminant():
    rng = np.random.default_rng(7)
    swapped_eq = legendre_swap(LAPLACE)
    for _ in range(20):
        pt = DarbouxPoint(*rng.uniform(-1, 1, 5))
        image = legendre_swap_point(pt)
        assert discriminant(swapped_eq, image) == pytest.approx(
            discriminant(LAPLACE, pt), rel=1e-12)
        assert classify(swapped_eq, image) is EquationType.ELLIPTIC

    # also exercise a non-constant-coefficient equation
    eq = MAEquation.from_strings(A="1", B="x1", C="1 + u^2", D="p2")
    swapped = legendre_swap(eq)
    for _ in range(20):
        pt = DarbouxPoint(*rng.uniform(-0.8, 0.8, 5))
        assert discriminant(swapped, legendre_swap_point(pt)) == pytest.approx(
            discriminant(eq, pt), rel=1e-11, abs=1e-12)


def test_legendre_swap_of_laplace_is_det_equation():
    # the elliptic Laplace fixture maps to -(det Hess) + 1 = 0
    swapped = legendre_swap(LAPLACE)
    vals = swapped.coefficients_at(DarbouxPoint(0.3, 0.4, 0.5, 0.6, 0.7))
    assert vals == (-1.0, 0.0, 0.0, 0.0, 1.0)


# --- column evaluation of regions -------------------------------------------------

def _scalar_region(eq, grid, band):
    """Cell by cell through ``discriminant``, the reference for classify_region."""
    names = grid.axis_names()
    axes = [grid.axis_values(n) for n in names]
    cells = []
    for idx in itertools.product(*(range(len(a)) for a in axes)):
        values = {n: float(a[i]) for n, a, i in zip(names, axes, idx)}
        values.update({n: float(v) for n, v in grid.fixed.items()})
        pt = DarbouxPoint(*(values.get(v, 0.0) for v in CHART_VARIABLES))
        try:
            delta = discriminant(eq, pt)
            cells.append(CellResult(idx, delta, delta_type(delta, band)))
        except EvalDomainError as exc:
            cells.append(CellResult(idx, None, None, str(exc)))
    return tuple(cells)


def test_grid_columns_are_row_major_with_fixed_values():
    # the axis columns spread over the grid list the cells in the order of indices()
    grid = GridSpec({"x1": (0, 1, 2), "u": (-1, 1, 3)}, fixed={"p2": 0.5})
    x1, x2, u, p1, p2 = (np.broadcast_to(c, grid.shape()).ravel() for c in grid.axis_columns())
    assert list(grid.indices()) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert x1.tolist() == [0, 0, 0, 1, 1, 1]
    assert u.tolist() == [-1, 0, 1, -1, 0, 1]
    assert x2.tolist() == p1.tolist() == [0.0] * 6
    assert p2.tolist() == [0.5] * 6


def test_grid_axis_columns_broadcast_to_the_grid_shape():
    # each axis along its own dimension, a fixed or absent variable 0-d
    grid = GridSpec({"x1": (0, 1, 2), "u": (-1, 1, 3)}, fixed={"p2": 0.5})
    x1, x2, u, p1, p2 = grid.axis_columns()
    assert (x1.shape, u.shape, x2.shape, p2.shape) == ((2, 1), (1, 3), (), ())
    assert x1.ravel().tolist() == [0, 1] and u.ravel().tolist() == [-1, 0, 1]
    assert (float(x2), float(p1), float(p2)) == (0.0, 0.0, 0.5)
    assert all(c.dtype == np.float64 for c in grid.axis_columns())


def test_grid_refuses_a_fixed_value_for_an_axis():
    # the axis's values would never act: every cell would sit at the fixed value
    with pytest.raises(ValueError, match="'x1' is both a grid axis and fixed"):
        GridSpec({"x1": (0, 1, 3)}, fixed={"x1": 2.0})


def test_grid_without_axes_is_one_cell():
    grid = GridSpec({}, fixed={"u": 2.0})
    assert list(grid.indices()) == [()]
    assert [c.tolist() for c in grid.axis_columns()] == [0.0, 0.0, 2.0, 0.0, 0.0]


@pytest.mark.parametrize("coeffs", [
    dict(N="x1*x2 - u^2", A="1 + x1^2*p1 - 2*u", B="1.3*sin(0.7*x2 + 0.2)",
         C="x1*x2*u + 3*p2^3", D="-0.8*cos(x1*u) + 0.5*ln(x2 + 0.1)"),
    dict(A="exp(3*x1)/(x2 - 0.25)", B="sqrt(u + 0.5)", C="x1^-1", D="u"),
])
def test_classify_region_matches_scalar_reference(coeffs):
    eq = MAEquation.from_strings(**coeffs)
    grid = GridSpec({"x1": (-1, 1, 9), "x2": (-1, 1, 5), "u": (-1, 1, 7)},
                    fixed={"p1": 0.3, "p2": -0.2})
    region = classify_region(eq, grid, band=0.5)
    assert region.cells == _scalar_region(eq, grid, 0.5)
    assert 0 < region.error_fraction < 1


def test_one_rule_for_point_and_region_types():
    assert [delta_type(d, 0.5) for d in (-1.0, -0.25, 0.0, -0.0, 0.25, 1.0)] == [
        "elliptic", "band", "parabolic", "parabolic", "band", "hyperbolic"]
    eq = MAEquation.from_strings(A="1", C="u")
    for u, expected in ((-1.0, "HYPERBOLIC"), (-0.1, "PARABOLIC"), (0.0, "PARABOLIC"),
                        (0.1, "PARABOLIC"), (1.0, "ELLIPTIC")):
        assert classify(eq, DarbouxPoint(0, 0, u, 0, 0), band=0.5) is EquationType[expected]


OVERFLOW = MAEquation.from_strings(A="exp(700*x1)", B="exp(700*x1)", C="exp(700*x1)")


def test_non_finite_discriminant_is_an_error_cell():
    # B^2 and 4AC both overflow to inf on the last two cells: Delta = inf - inf
    region = classify_region(OVERFLOW, GridSpec({"x1": (0, 1, 5)}))
    assert [c.type for c in region.cells[:3]] == ["elliptic"] * 3
    for cell in region.cells[3:]:
        assert cell.delta is None and cell.type is None
        assert cell.error == "non-finite discriminant nan"
    assert region.error_fraction == pytest.approx(0.4)


def test_classify_rejects_non_finite_discriminant():
    with pytest.raises(EvalDomainError, match="non-finite discriminant"):
        classify(OVERFLOW, DarbouxPoint(1, 0, 0, 0, 0))
