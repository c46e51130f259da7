import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import harmonic_pair, poly_from_monomials, random_poly_expr
from macontact.expr import Expr, parse
from macontact.zeta import (ZetaKind, ZetaNum, cauchy_riemann_residual,
                            frac_factorial, zeta_laplace_residual)

XY = ("x1", "x2")

finite = st.floats(-1, 1, allow_nan=False)
kinds = st.sampled_from(list(ZetaKind))


def test_mul_dual_kills_zeta_squared():
    z = ZetaNum(1, 2, ZetaKind.ZERO)
    assert (z * z) == ZetaNum(1, 4, ZetaKind.ZERO)


def test_mul_imaginary_square_is_minus_one():
    z = ZetaNum(0, 1, ZetaKind.MINUS)
    assert z * z == ZetaNum(-1, 0, ZetaKind.MINUS)


def test_mul_double_cube():
    z = ZetaNum(1, 1, ZetaKind.PLUS)
    assert z ** 3 == ZetaNum(4, 4, ZetaKind.PLUS)


def test_mul_kind_mismatch():
    with pytest.raises(ValueError):
        ZetaNum(1, 0, ZetaKind.PLUS) * ZetaNum(1, 0, ZetaKind.MINUS)


def test_add_sub_neg_conjugate():
    for kind in ZetaKind:
        a, b = ZetaNum(1.5, -2.0, kind), ZetaNum(0.25, 4.0, kind)
        assert a + b == ZetaNum(1.75, 2.0, kind)
        assert a - b == ZetaNum(1.25, -6.0, kind)
        assert -a == ZetaNum(-1.5, 2.0, kind)
        assert a.conjugate() == ZetaNum(1.5, 2.0, kind)
        # z times its conjugate is the real x^2 - zeta^2 y^2
        assert a * a.conjugate() == ZetaNum(2.25 - 4.0 * kind.square, 0.0, kind)
    for op in ("__add__", "__sub__"):
        with pytest.raises(ValueError, match="kind mismatch"):
            getattr(ZetaNum(1, 0, ZetaKind.PLUS), op)(ZetaNum(1, 0, ZetaKind.ZERO))


def test_pow_cube_values():
    # Re z^3 = x^3 - 3xy^2, Im z^3 = 3x^2 y - y^3 at (1, 1) for zeta^2 = -1
    z = ZetaNum(1, 1, ZetaKind.MINUS)
    assert z ** 3 == ZetaNum(-2, 2, ZetaKind.MINUS)
    z0 = ZetaNum(1, 1, ZetaKind.ZERO)
    assert z0 ** 3 == ZetaNum(1, 3, ZetaKind.ZERO)


def test_pow_real_embedding():
    for kind in ZetaKind:
        assert ZetaNum(2, 0, kind) ** 5 == ZetaNum(32, 0, kind)


def test_pow_zero_exponent_is_unit():
    for kind in ZetaKind:
        assert ZetaNum(3, -2, kind) ** 0 == ZetaNum(1, 0, kind)


def test_dual_zeta_is_nilpotent():
    assert ZetaNum(0, 1, ZetaKind.ZERO) ** 2 == ZetaNum(0, 0, ZetaKind.ZERO)


@given(kinds, finite, finite, finite, finite)
def test_mul_commutative(kind, a, b, c, d):
    z, w = ZetaNum(a, b, kind), ZetaNum(c, d, kind)
    assert z * w == w * z


@given(kinds, finite, finite, finite, finite, finite, finite)
def test_mul_associative(kind, a, b, c, d, e, f):
    z, w, v = ZetaNum(a, b, kind), ZetaNum(c, d, kind), ZetaNum(e, f, kind)
    lhs, rhs = (z * w) * v, z * (w * v)
    assert lhs.re == pytest.approx(rhs.re, abs=1e-14)
    assert lhs.im == pytest.approx(rhs.im, abs=1e-14)


@given(kinds, finite, finite)
def test_unit_element(kind, a, b):
    z = ZetaNum(a, b, kind)
    one = ZetaNum(1, 0, kind)
    assert z * one == z
    assert one * z == z


def test_pow_additivity():
    rng = np.random.default_rng(42)
    for kind in ZetaKind:
        for _ in range(50):
            z = ZetaNum(*rng.uniform(-1.4, 1.4, 2), kind)
            a, b = int(rng.integers(0, 7)), int(rng.integers(0, 6))
            whole = z ** (a + b)
            split = (z ** a) * (z ** b)
            scale = 1.0 + max(abs(whole.re), abs(whole.im))
            assert abs(whole.re - split.re) <= 1e-12 * scale
            assert abs(whole.im - split.im) <= 1e-12 * scale


def test_power_components_are_homogeneous():
    rng = np.random.default_rng(3)
    for kind in ZetaKind:
        for k in range(1, 6):
            x, y = rng.uniform(0.2, 1.0, 2)
            t = 1.7
            zk = ZetaNum(x, y, kind) ** k
            ztk = ZetaNum(t * x, t * y, kind) ** k
            assert ztk.re == pytest.approx(t ** k * zk.re, rel=1e-12)
            assert ztk.im == pytest.approx(t ** k * zk.im, rel=1e-12)


# --- fractional factorial --------------------------------------------------------

def test_frac_factorial_empty_product():
    for l in (2, 3, 9):
        assert frac_factorial(0, l) == 1.0


def test_frac_factorial_values():
    assert frac_factorial(2, 2) == pytest.approx(1.5 * 2.5)
    assert frac_factorial(1, 3) == pytest.approx(4.0 / 3.0)


def test_frac_factorial_validation():
    with pytest.raises(ValueError):
        frac_factorial(-1, 2)
    with pytest.raises(ValueError):
        frac_factorial(2, 1)


# --- residual operators ----------------------------------------------------------

def test_laplace_residual_harmonic():
    f = parse("x1^2 - x2^2", XY)
    assert zeta_laplace_residual(f, (0.3, 0.8), ZetaKind.MINUS) == 0.0


def test_laplace_residual_dual():
    f = parse("x1^2", XY)
    assert zeta_laplace_residual(f, (1, 1), ZetaKind.ZERO) == 2.0


def test_laplace_residual_mixed_term_vanishes():
    f = parse("x1*x2", XY)
    for kind in ZetaKind:
        assert zeta_laplace_residual(f, (0.5, -2.0), kind) == 0.0


def test_cauchy_riemann_holomorphic_pair():
    u = parse("x1^2 - x2^2", XY)
    v = parse("2*x1*x2", XY)
    r1, r2 = cauchy_riemann_residual(u, v, (1, 2), ZetaKind.MINUS)
    assert r1 == 0.0 and r2 == 0.0
    rng = np.random.default_rng(5)
    for _ in range(20):
        pt = tuple(rng.uniform(-2, 2, 2))
        assert cauchy_riemann_residual(u, v, pt, ZetaKind.MINUS) == (0.0, 0.0)


def test_cauchy_riemann_constants():
    u = Expr.const(3.0, XY)
    v = Expr.const(-1.0, XY)
    for kind in ZetaKind:
        assert cauchy_riemann_residual(u, v, (0.1, 0.2), kind) == (0.0, 0.0)


def test_cauchy_riemann_dual_detects_nonholomorphic():
    u = parse("x1", XY)
    v = Expr.const(0.0, XY)
    assert cauchy_riemann_residual(u, v, (0, 0), ZetaKind.ZERO) == (1.0, 0.0)


def _laplace_zero_on_grid(u, kind, rng, tol=1e-9):
    for _ in range(100):
        pt = tuple(rng.uniform(-1, 1, 2))
        if abs(zeta_laplace_residual(u, pt, kind)) > tol:
            return False
    return True


def test_cr_pairs_are_harmonic_minus():
    # pairs satisfying the residual system identically, complex case
    rng = np.random.default_rng(9)
    for k in range(2, 6):
        u, v = harmonic_pair(k)
        for _ in range(100):
            pt = tuple(rng.uniform(-1, 1, 2))
            r1, r2 = cauchy_riemann_residual(u, v, pt, ZetaKind.MINUS)
            assert abs(r1) <= 1e-9 and abs(r2) <= 1e-9
        assert _laplace_zero_on_grid(u, ZetaKind.MINUS, rng)


def test_cr_pairs_are_harmonic_zero():
    # for the dual numbers the system forces du = 0, so u is constant
    rng = np.random.default_rng(10)
    u = Expr.const(2.5, XY)
    v = random_poly_expr(rng, XY)
    for _ in range(100):
        pt = tuple(rng.uniform(-1, 1, 2))
        assert cauchy_riemann_residual(u, v, pt, ZetaKind.ZERO) == (0.0, 0.0)
    assert _laplace_zero_on_grid(u, ZetaKind.ZERO, rng)


def test_cr_convention_for_double_numbers_transports_to_harmonicity():
    # The residual convention (u_x = -v_y, u_y = v_x for zeta^2 = 1) is the
    # classical Cauchy-Riemann system on (u, -v): its solutions satisfy the
    # ordinary Laplace equation u_xx + u_yy = 0, not u_xx - u_yy = 0.  This
    # pair witnesses the difference.
    u = poly_from_monomials(XY, [(-0.5, (2, 0)), (0.5, (0, 2))])
    v = poly_from_monomials(XY, [(1.0, (1, 1))])
    rng = np.random.default_rng(12)
    for _ in range(50):
        pt = tuple(rng.uniform(-1, 1, 2))
        assert cauchy_riemann_residual(u, v, pt, ZetaKind.PLUS) == (0.0, 0.0)
    jet = u.eval_jet((0.3, 0.4), 2)
    assert jet.derivative((2, 0)) + jet.derivative((0, 2)) == 0.0
    assert zeta_laplace_residual(u, (0.3, 0.4), ZetaKind.PLUS) == -2.0


def test_powers_satisfy_double_laplace():
    # Re/Im of (x + zeta y)^k do solve the zeta-Laplace equation for
    # zeta^2 = +1; they satisfy the variant system u_x = v_y, u_y = v_x.
    variables = XY
    for k in range(2, 6):
        re_terms, im_terms = [], []
        for j in range(k + 1):
            coeff = float(math.comb(k, j))
            (re_terms if j % 2 == 0 else im_terms).append((coeff, (k - j, j)))
        u = poly_from_monomials(variables, re_terms)
        v = poly_from_monomials(variables, im_terms)
        rng = np.random.default_rng(k)
        for _ in range(20):
            pt = tuple(rng.uniform(-1, 1, 2))
            assert abs(zeta_laplace_residual(u, pt, ZetaKind.PLUS)) <= 1e-12
            assert abs(zeta_laplace_residual(v, pt, ZetaKind.PLUS)) <= 1e-12
