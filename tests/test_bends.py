import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from macontact.bends import (BendSubspace, HomPoly, classify_bend, is_bend,
                             normal_form, poly_from_fiber_vector,
                             prolong_bend, span_angle, structure_matrix)
from macontact.zeta import ZetaKind


def hp(degree, coeffs):
    return HomPoly(degree, np.array(coeffs, dtype=float))


# --- fiber identification -------------------------------------------------------

def test_fiber_vector_unit_mixed():
    comps = {(2, 0): 0.0, (1, 1): 1.0, (0, 2): 0.0}
    poly = poly_from_fiber_vector(2, comps)
    assert np.array_equal(poly.coeffs, [0.0, 1.0, 0.0])  # xy


def test_fiber_vector_unit_pure():
    comps = {(2, 0): 1.0, (1, 1): 0.0, (0, 2): 0.0}
    poly = poly_from_fiber_vector(2, comps)
    assert np.array_equal(poly.coeffs, [0.0, 0.0, 0.5])  # x^2 / 2


def test_fiber_vector_elliptic_cubic():
    comps = {(0, 3): 1.0, (1, 2): 0.0, (2, 1): -1.0, (3, 0): 0.0}
    poly = poly_from_fiber_vector(3, comps)
    # y^3/6 - x^2 y / 2, proportional to the Im part of (x + iy)^3
    assert np.allclose(poly.coeffs, [1 / 6, 0.0, -0.5, 0.0])
    nf = normal_form(3, ZetaKind.MINUS)
    stacked = np.column_stack([poly.coeffs, nf.q2.coeffs])
    assert np.linalg.svd(stacked, compute_uv=False)[1] <= 1e-12


def test_fiber_vector_missing_index():
    with pytest.raises(KeyError):
        poly_from_fiber_vector(2, {(2, 0): 1.0})


# --- derivatives ------------------------------------------------------------------

def test_hompoly_derivatives():
    f = hp(3, [0, 0, 1, 0])  # x^2 y
    assert np.array_equal(f.diff_x().coeffs, [0, 2, 0])  # 2xy
    assert np.array_equal(f.diff_y().coeffs, [0, 0, 1])  # x^2


def test_hompoly_str_lists_the_nonzero_terms():
    assert str(hp(2, [-1, 0, 1])) == "1*x^2 + -1*y^2"
    assert str(hp(3, [0.5, 0, 2.5, 0])) == "2.5*x^2*y + 0.5*y^3"
    assert str(hp(1, [0, 3])) == "3*x"
    assert str(hp(2, [0, 0, 0])) == "0"


def test_hompoly_evaluation_homogeneity():
    rng = np.random.default_rng(0)
    f = hp(4, rng.normal(size=5))
    x, y, t = 0.7, -0.4, 1.9
    assert f(t * x, t * y) == pytest.approx(t ** 4 * f(x, y), rel=1e-12)


# --- bend decision -------------------------------------------------------------------

def test_any_plane_in_degree_two_is_a_bend():
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(200):
        q1 = hp(2, rng.integers(-3, 4, size=3))
        q2 = hp(2, rng.integers(-3, 4, size=3))
        stacked = np.column_stack([q1.coeffs, q2.coeffs])
        s = np.linalg.svd(stacked, compute_uv=False)
        if s[1] <= 1e-10 * max(s[0], 1e-30):
            continue
        ok, witness = is_bend(2, q1, q2)
        assert ok
        kind, _ = classify_bend(structure_matrix(*witness))
        seen.add(kind)
    assert seen == {ZetaKind.MINUS, ZetaKind.ZERO, ZetaKind.PLUS}


def test_parabolic_bend_with_witness_family():
    # span{x^3, x^2 y}: solutions f = a x^4/4 + c x^3 y span the prolongation
    ok, witness = is_bend(3, hp(3, [0, 0, 0, 1]), hp(3, [0, 0, 1, 0]))
    assert ok
    f, g = witness
    # the witness lives in span{x^4, x^3 y}
    assert np.abs(f.coeffs[:2]).max() <= 1e-12
    assert np.abs(g.coeffs[:2]).max() <= 1e-12
    kind, _ = classify_bend(structure_matrix(f, g))
    assert kind is ZetaKind.ZERO


def test_non_bend_pair():
    # span{x^3, x y^2}: the cross-derivative constraints force f_y = 0
    ok, witness = is_bend(3, hp(3, [0, 0, 0, 1]), hp(3, [0, 1, 0, 0]))
    assert not ok and witness is None


def test_is_bend_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        is_bend(3, hp(2, [1, 0, 0]), hp(3, [0, 1, 0, 0]))


def test_is_bend_rejects_dependent_pair():
    with pytest.raises(ValueError):
        is_bend(2, hp(2, [1, 0, 1]), hp(2, [2, 0, 2]))


# --- structure matrices -----------------------------------------------------------------

def test_structure_matrix_parabolic_example():
    f = hp(3, [0, 0, 1, 0])   # x^2 y
    g = hp(3, [0, 0, 0, 1])   # x^3
    assert structure_matrix(f, g) == (0.0, 3.0, 0.0, 0.0)


def test_structure_matrix_hyperbolic_example():
    f = hp(4, [0.25, 0, 0, 0, 0.25])   # x^4/4 + y^4/4
    g = hp(4, [-0.25, 0, 0, 0, 0.25])  # x^4/4 - y^4/4
    assert structure_matrix(f, g) == (1.0, 0.0, 0.0, -1.0)


def test_structure_matrix_identity_is_scalar_for_classify():
    f = hp(3, [0, 0, 1, 0])
    matrix = structure_matrix(f, f)  # g = f gives the identity matrix
    assert matrix == (1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        classify_bend(matrix)


def test_structure_matrix_rejects_foreign_g():
    f = hp(3, [0, 0, 1, 0])      # f_x, f_y span {xy, x^2}
    g = hp(3, [1, 0, 0, 0])      # y^3: derivatives involve y^2
    with pytest.raises(ValueError):
        structure_matrix(f, g)


def test_classify_bend_examples():
    kind, gen = classify_bend((0, 3, 0, 0))
    assert kind is ZetaKind.ZERO
    assert np.array_equal(gen @ gen, np.zeros((2, 2)))
    kind, gen = classify_bend((1, 0, 0, -1))
    assert kind is ZetaKind.PLUS
    assert np.allclose(gen @ gen, np.eye(2))
    kind, gen = classify_bend((0, -1, 1, 0))
    assert kind is ZetaKind.MINUS
    assert np.allclose(gen @ gen, -np.eye(2))


@pytest.mark.parametrize("matrix, entry", [
    ((0, math.nan, 0, 0), "beta is not finite: nan"),  # was labelled ZERO
    ((math.inf, 0, 0, 0), "alpha is not finite: inf"),
    ((1, 0, -math.inf, -1), "gamma is not finite: -inf"),
    ((0, 1, 1, math.nan), "delta is not finite: nan"),
])
def test_classify_bend_refuses_non_finite_entries(matrix, entry):
    with pytest.raises(ValueError, match=f"structure matrix entry {entry}"):
        classify_bend(matrix)


@pytest.mark.parametrize("matrix, c", [
    ((1e200, 1e200, -1e200, -1e200), "nan"),  # escaped as OverflowError
    ((1e200, 0, -1e200, 0), "inf"),
    ((0, 1e200, 1e200, 0), "inf"),
    ((0, 1e200, -1e200, 0), "-inf"),
])
def test_classify_bend_refuses_an_overflowing_invariant(matrix, c):
    with pytest.raises(ValueError, match=r"invariant c = .* is not finite: " + c):
        classify_bend(matrix)


def test_classify_bend_keeps_a_large_finite_invariant():
    # c = (1e150)^2 - 1e299 is near the top of the float range, yet finite
    kind, gen = classify_bend((2e150, 1e150, -1e149, 0))
    assert kind is ZetaKind.PLUS
    assert np.allclose(gen @ gen, np.eye(2))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["q1", "q2"])
def test_is_bend_refuses_a_non_finite_coefficient(value, name):
    # it raised LinAlgError "SVD did not converge", with a RuntimeWarning for inf
    pair = {"q1": hp(2, [0, 0, 1]), "q2": hp(2, [0, 1, 0])}
    pair[name] = hp(2, [value, 0, 1])
    text = f"{name} = 1*x^2 + {value!r}*y^2 has a non-finite coefficient"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        is_bend(2, pair["q1"], pair["q2"])
    with pytest.raises(ValueError, match=f"^{name} = .* has a non-finite coefficient$"):
        prolong_bend(BendSubspace(2, pair["q1"], pair["q2"]))


@pytest.mark.parametrize("big", [9e307, 1e308, 1.7e308])
@pytest.mark.parametrize("name", ["q1", "q2"])
def test_is_bend_refuses_coefficients_whose_qr_overflows(big, name):
    # a Householder step of the pair's QR doubles the largest column's norm
    pair = {"q1": hp(2, [0, 1, 0]), "q2": hp(2, [0, 1, 0])}
    pair[name] = hp(2, [big, 0, 1])
    text = f"{name} = 1*x^2 + {big:g}*y^2 is too large: its QR overflows"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        is_bend(2, pair["q1"], pair["q2"])


def test_is_bend_keeps_a_large_coefficient_whose_qr_is_finite():
    ok, witness = is_bend(2, hp(2, [1e300, 0, 1]), hp(2, [0, 1, 0]))
    assert ok and all(np.isfinite(w.coeffs).all() for w in witness)


def test_bend_cli_refuses_an_overflowing_pair_without_a_warning():
    # it printed a RuntimeWarning and exited 2 with "SVD did not converge";
    # under -W error a traceback escaped with exit 1
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "macontact.cli", "bend",
                           "--k", "2", "--q1", "x^2 + 1e308*y^2", "--q2", "x*y"],
                          capture_output=True)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == (b"input error: q1 = 1*x^2 + 1e+308*y^2 is too large: "
                           b"its QR overflows\n")


# --- normal forms ---------------------------------------------------------------------------

def test_normal_form_examples():
    nf = normal_form(2, ZetaKind.MINUS)
    assert np.array_equal(nf.q1.coeffs, [-1, 0, 1])   # x^2 - y^2
    assert np.array_equal(nf.q2.coeffs, [0, 2, 0])    # 2xy
    nf = normal_form(2, ZetaKind.ZERO)
    assert np.array_equal(nf.q1.coeffs, [0, 0, 1])    # x^2
    assert np.array_equal(nf.q2.coeffs, [0, 2, 0])    # 2xy
    nf = normal_form(3, ZetaKind.PLUS)
    assert np.array_equal(nf.q1.coeffs, [0, 3, 0, 1])  # x^3 + 3xy^2
    assert np.array_equal(nf.q2.coeffs, [1, 0, 3, 0])  # 3x^2 y + y^3


@pytest.mark.parametrize("kind", list(ZetaKind))
@pytest.mark.parametrize("k", range(2, 7))
def test_normal_form_round_trip(kind, k):
    nf = normal_form(k, kind)
    ok, witness = is_bend(k, nf.q1, nf.q2)
    assert ok
    got, _ = classify_bend(structure_matrix(*witness))
    assert got is kind


def test_normal_form_scale_invariance_of_span():
    # substituting (tx, ty) rescales each basis polynomial, same span
    for kind in ZetaKind:
        nf = normal_form(3, kind)
        t = 1.7
        scaled = np.column_stack([nf.q1.coeffs, nf.q2.coeffs]) * t ** 3
        assert span_angle(scaled, nf.basis_matrix()) <= 1e-12


# --- prolongation ----------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(ZetaKind))
@pytest.mark.parametrize("k", range(2, 6))
def test_prolong_normal_form(kind, k):
    prolonged = prolong_bend(normal_form(k, kind))
    target = normal_form(k + 1, kind)
    assert prolonged.degree == k + 1
    assert span_angle(prolonged.basis_matrix(), target.basis_matrix()) <= 1e-9
    assert prolonged.kind is kind


def test_prolong_rejects_non_bend():
    with pytest.raises(ValueError):
        prolong_bend(BendSubspace(3, hp(3, [0, 0, 0, 1]), hp(3, [0, 1, 0, 0])))


def test_every_emitted_structure_matrix_satisfies_closure():
    # the cross-derivative identity follows from structure_matrix's span
    # check and is not checked there; verify it directly on emitted witnesses
    rng = np.random.default_rng(2)
    for _ in range(50):
        q1 = hp(2, rng.integers(-3, 4, size=3))
        q2 = hp(2, rng.integers(-3, 4, size=3))
        s = np.linalg.svd(np.column_stack([q1.coeffs, q2.coeffs]),
                          compute_uv=False)
        if s[1] <= 1e-10 * max(s[0], 1e-30):
            continue
        ok, (f, g) = is_bend(2, q1, q2)
        assert ok
        alpha, beta, gamma, delta = structure_matrix(f, g)
        fx, fy = f.diff_x(), f.diff_y()
        resid = (gamma * fx.diff_x().coeffs
                 + (delta - alpha) * fx.diff_y().coeffs
                 - beta * fy.diff_y().coeffs)
        assert np.abs(resid).max() <= 1e-10


# --- properties proved rather than checked at run time ----------------------------------

def substitute(coeffs, lin):
    """Coefficients of p(a x + b y, c x + d y) for lin = [[a, b], [c, d]].

    With coeffs[r] multiplying x^r y^(k-r), a product of homogeneous
    polynomials is the convolution of their coefficient vectors.
    """
    (a, b), (c, d) = lin
    k = len(coeffs) - 1
    out = np.zeros(k + 1)
    for r, coeff in enumerate(coeffs):
        term = np.array([1.0])
        for _ in range(r):
            term = np.convolve(term, [b, a])
        for _ in range(k - r):
            term = np.convolve(term, [d, c])
        out += coeff * term
    return out


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


# 2x2 matrices of condition number at most 4 and norm between 0.5 and 2
well_conditioned = st.builds(
    lambda t1, t2, s, c: c * _rotation(t1) @ np.diag([1.0, s]) @ _rotation(t2),
    st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi), st.floats(0.25, 1.0),
    st.floats(0.5, 2.0))


def transported_normal_form(k, kind, lin, mix):
    """Columns spanning Span(Re z^k, Im z^k) after the coordinate change lin,
    mixed by mix: a bend of the given kind."""
    nf = normal_form(k, kind)
    return np.column_stack([substitute(nf.q1.coeffs, lin),
                            substitute(nf.q2.coeffs, lin)]) @ mix


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(ZetaKind)), st.integers(2, 6), well_conditioned,
       well_conditioned, st.one_of(st.just(0.0), st.floats(1e-13, 1e-8)),
       st.integers(0, 2 ** 32 - 1))
def test_every_witness_satisfies_the_cross_derivative_identity(kind, k, lin, mix,
                                                              noise, seed):
    # near-bends: transported normal forms plus relative noise
    q = transported_normal_form(k, kind, lin, mix)
    q = q + noise * np.abs(q).max() * np.random.default_rng(seed).normal(size=q.shape)
    ok, witness = is_bend(k, hp(k, q[:, 0]), hp(k, q[:, 1]))
    assume(ok)
    f, g = witness
    matrix = structure_matrix(f, g)  # is_bend applies the same span check
    alpha, beta, gamma, delta = matrix
    fx, fy, gx, gy = f.diff_x(), f.diff_y(), g.diff_x(), g.diff_y()
    res_x = np.abs(alpha * fx.coeffs + beta * fy.coeffs - gx.coeffs).max()
    res_y = np.abs(gamma * fx.coeffs + delta * fy.coeffs - gy.coeffs).max()
    scale = 1.0 + np.linalg.norm(gx.coeffs) + np.linalg.norm(gy.coeffs)
    eps = np.finfo(float).eps
    assert max(res_x, res_y) <= 1e-10 * scale + 8 * eps * (k + 2) * scale
    identity = (gamma * fx.diff_x().coeffs + (delta - alpha) * fx.diff_y().coeffs
                - beta * fy.diff_y().coeffs)
    # exact: identity = d/dx r_y - d/dy r_x, and d/dx, d/dy scale each
    # coefficient of a degree-k polynomial by at most k; the second term
    # bounds the rounding of both sides
    roundoff = 8 * eps * k * (k + 1) * (np.abs(f.coeffs).max() * np.abs(matrix).sum()
                                        + np.abs(g.coeffs).max())
    assert np.abs(identity).max() <= k * (res_x + res_y) + roundoff


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(ZetaKind)), st.integers(2, 5), well_conditioned,
       well_conditioned)
def test_prolonging_a_bend_gives_bends_of_its_kind(kind, k, lin, mix):
    q = transported_normal_form(k, kind, lin, mix)
    bend = BendSubspace(k, hp(k, q[:, 0]), hp(k, q[:, 1]))
    for degree in range(k + 1, k + 4):
        bend = prolong_bend(bend)
        assert bend.degree == degree
        assert bend.kind is kind
        # prolongation commutes with linear coordinate changes
        target = transported_normal_form(degree, kind, lin, np.eye(2))
        assert span_angle(bend.basis_matrix(), target) <= 1e-9
        assert is_bend(degree, bend.q1, bend.q2)[0]
