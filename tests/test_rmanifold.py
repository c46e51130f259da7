import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macontact.bends import normal_form, span_angle
from macontact.expr import EvalDomainError
from macontact import rmanifold
from macontact.rmanifold import (JetChartPoint, RManifoldSpec, _family_columns,
                                 _scaling_constants,
                                 cartan_defect_at, cartan_tangency_defect,
                                 jet_indices, layout_keys, family_consistency,
                                 family_point, fiber_tangent_basis, prolonged_residuals,
                                 singular_point_report, tangent_vectors,
                                 write_point_cloud)
from macontact.zeta import ZetaKind, ZetaNum, frac_factorial


def jet_point(k, x=0.0, y=0.0, **values):
    u = {pq: 0.0 for pq in jet_indices(k)}
    for key, val in values.items():
        p, q = key[1:].split("_")
        u[(int(p), int(q))] = float(val)
    return JetChartPoint(k, x, y, u)


# --- prolonged equation ------------------------------------------------------------

def test_prolonged_residual_laplace_relation():
    pt = jet_point(2, u2_0=1.0, u0_2=-1.0)
    assert prolonged_residuals(pt, ZetaKind.MINUS).tolist() == [0.0]


def test_prolonged_residual_dual_violation():
    pt = jet_point(2, u2_0=0.5)
    assert prolonged_residuals(pt, ZetaKind.ZERO).tolist() == [0.5]


def test_prolonged_residual_zero_point():
    pt = jet_point(4)
    for kind in ZetaKind:
        assert np.all(prolonged_residuals(pt, kind) == 0.0)


def test_jet_chart_point_requires_complete_indices():
    with pytest.raises(ValueError):
        JetChartPoint(2, 0.0, 0.0, {(0, 0): 1.0})


# --- fiber tangents -----------------------------------------------------------------

def test_fiber_tangent_basis_elliptic_k2():
    nv = fiber_tangent_basis(2, ZetaKind.MINUS)
    assert nv.vec1 == {(0, 2): 1.0, (1, 1): 0.0, (2, 0): -1.0}
    assert nv.vec2 == {(0, 2): 0.0, (1, 1): 1.0, (2, 0): 0.0}
    target = normal_form(2, ZetaKind.MINUS)
    basis = np.column_stack([nv.poly1.coeffs, nv.poly2.coeffs])
    assert span_angle(basis, target.basis_matrix()) <= 1e-10


def test_fiber_tangent_basis_dual_k2_images_are_swapped():
    nv = fiber_tangent_basis(2, ZetaKind.ZERO)
    assert nv.vec1 == {(0, 2): 1.0, (1, 1): 0.0, (2, 0): 0.0}
    assert nv.vec2 == {(0, 2): 0.0, (1, 1): 1.0, (2, 0): 0.0}
    # images span {y^2, xy}: the x<->y mirror of the normal form {x^2, xy}
    basis = np.column_stack([nv.poly1.coeffs, nv.poly2.coeffs])
    mirrored = normal_form(2, ZetaKind.ZERO).basis_matrix()[::-1, :]
    assert span_angle(basis, mirrored) <= 1e-10


def test_fiber_tangent_basis_double_k3():
    nv = fiber_tangent_basis(3, ZetaKind.PLUS)
    assert nv.vec1[(0, 3)] == 1.0 and nv.vec1[(2, 1)] == 1.0
    assert nv.vec2[(1, 2)] == 1.0 and nv.vec2[(3, 0)] == 1.0
    target = normal_form(3, ZetaKind.PLUS)
    basis = np.column_stack([nv.poly1.coeffs, nv.poly2.coeffs])
    assert span_angle(basis, target.basis_matrix()) <= 1e-10


@pytest.mark.parametrize("kind", [ZetaKind.MINUS, ZetaKind.PLUS])
def test_fiber_tangent_images_are_the_normal_form_for_every_k(kind):
    # k! * poly1 is zeta^(2 floor(k/2)) times Re z^k (k even) or Im z^k
    # (k odd), and k! * poly2 is zeta^(2 floor((k-1)/2)) times the other
    # one, in integers; from k = 171 the factorials overflow a float
    s = int(kind.square)
    eps = Fraction(np.finfo(float).eps)
    for k in range(2, 171):
        re, im = [0] * (k + 1), [0] * (k + 1)
        for j in range(k + 1):
            if j % 2 == 0:
                re[k - j] = math.comb(k, j) * s ** (j // 2)
            else:
                im[k - j] = math.comb(k, j) * s ** ((j - 1) // 2)
        nf = normal_form(k, kind)
        assert nf.q1.coeffs.tolist() == [float(v) for v in re]
        assert nf.q2.coeffs.tolist() == [float(v) for v in im]

        rows = (re, im) if k % 2 == 0 else (im, re)
        signs = (s ** (k // 2), s ** ((k - 1) // 2))
        nv = fiber_tangent_basis(k, kind)
        for vec, poly, row, sign in zip((nv.vec1, nv.vec2), (nv.poly1, nv.poly2),
                                        rows, signs):
            assert set(vec.values()) <= {-1.0, 0.0, 1.0}
            image = [math.comb(k, r) * int(vec[(r, k - r)]) for r in range(k + 1)]
            assert image == [sign * v for v in row], (k, kind)
            # the float images round k!-scaled integers by at most 2 eps
            for coeff, exact in zip(poly.coeffs.tolist(), image):
                assert abs(Fraction(coeff) * math.factorial(k) - exact) <= 2 * eps * abs(exact)


# --- the L_{k,l} families --------------------------------------------------------------

def test_lkl_origin_is_the_zero_point():
    for kind in ZetaKind:
        pt = family_point(RManifoldSpec(3, 2, kind), 0.0, 0.0)
        assert pt.x == 0.0 and pt.y == 0.0
        assert all(v == 0.0 for v in pt.u.values())


def test_lkl_base_value_from_scaling_constants():
    # k = l = 2, parameters (1, 0): the base coordinate is the degree-l power
    # of s = 1 scaled by ff(2,2)^(-l) = (1.5 * 2.5)^(-2)
    pt = family_point(RManifoldSpec(2, 2, ZetaKind.MINUS), 1.0, 0.0)
    assert pt.x == pytest.approx(1.0 / frac_factorial(2, 2) ** 2, rel=1e-14)
    assert pt.y == 0.0
    assert pt.u[(2, 0)] == 1.0 and pt.u[(1, 1)] == 0.0
    assert pt.u[(1, 0)] == pytest.approx(
        1.0 / (frac_factorial(1, 2) * frac_factorial(2, 2) ** 2), rel=1e-14)
    assert pt.u[(0, 2)] == -1.0  # forced by the prolonged equation


def test_lkl_membership_random_parameters():
    rng = np.random.default_rng(0)
    for kind in (ZetaKind.MINUS, ZetaKind.PLUS):
        for k in (2, 3, 4):
            for l in (2, 3, 4):
                spec = RManifoldSpec(k, l, kind)
                for _ in range(20):
                    a, b = rng.uniform(-1, 1, 2)
                    pt = family_point(spec, a, b)
                    assert np.abs(prolonged_residuals(pt, kind)).max() <= 1e-9


def test_lkl_dual_inconsistency_is_reported_not_raised():
    spec = RManifoldSpec(3, 2, ZetaKind.ZERO)
    pt = family_point(spec, 0.8, 0.3)
    bad = family_consistency(pt, ZetaKind.ZERO)
    assert bad, "nonzero parameters must violate u_xx = 0 for the dual case"
    indices = [idx for idx, _ in bad]
    assert (1, 0) in indices or (2, 0) in indices or (3, 0) in indices


def test_lkl_validates_spec():
    with pytest.raises(ValueError):
        RManifoldSpec(1, 2, ZetaKind.MINUS)
    with pytest.raises(ValueError):
        RManifoldSpec(2, 1, ZetaKind.MINUS)


# --- tangency ---------------------------------------------------------------------------

def test_tangent_vectors_converge_quadratically():
    spec = RManifoldSpec(2, 2, ZetaKind.MINUS)
    t1 = np.concatenate(tangent_vectors(spec, 0.5, 0.3, h=1e-3))
    t2 = np.concatenate(tangent_vectors(spec, 0.5, 0.3, h=5e-4))
    t3 = np.concatenate(tangent_vectors(spec, 0.5, 0.3, h=2.5e-4))
    d12 = np.abs(t1 - t2).max()
    d23 = np.abs(t2 - t3).max()
    assert d23 / d12 == pytest.approx(0.25, abs=0.05)


def test_cartan_defect_small_at_generic_point():
    spec = RManifoldSpec(2, 2, ZetaKind.MINUS)
    assert cartan_tangency_defect(spec, 0.5, 0.3, h=1e-4) <= 1e-6


def test_cartan_defect_second_order_ratio():
    for kind in (ZetaKind.MINUS, ZetaKind.PLUS):
        spec = RManifoldSpec(3, 2, kind)
        d1 = cartan_tangency_defect(spec, 0.5, 0.3, h=1e-3)
        d2 = cartan_tangency_defect(spec, 0.5, 0.3, h=5e-4)
        assert 0.2 <= d2 / d1 <= 0.3


def test_cartan_defect_detects_corruption():
    spec = RManifoldSpec(2, 2, ZetaKind.MINUS)
    pt = family_point(spec, 0.5, 0.3)
    tangents = tangent_vectors(spec, 0.5, 0.3, h=1e-4)
    clean = cartan_defect_at(pt, tangents)
    corrupted_u = dict(pt.u)
    corrupted_u[(1, 0)] += 0.1
    corrupted = JetChartPoint(pt.k, pt.x, pt.y, corrupted_u)
    poisoned = cartan_defect_at(corrupted, tangents)
    pos = layout_keys(pt.k).index("x")
    expected = 0.1 * max(abs(t[pos]) for t in tangents)
    assert poisoned == pytest.approx(expected, rel=0.2)
    assert poisoned > 100 * clean


def test_cartan_defect_guards_singular_point():
    spec = RManifoldSpec(2, 2, ZetaKind.MINUS)
    with pytest.raises(ValueError):
        cartan_tangency_defect(spec, 1e-6, 0.0, h=1e-4)


# --- singular point reports ------------------------------------------------------------------

def test_singular_report_complex_case():
    report = singular_point_report(RManifoldSpec(2, 2, ZetaKind.MINUS))
    assert report.unique_singular_point
    assert report.origin_rank0_ok
    assert report.bend_ok and report.bend_angle <= 1e-8
    assert all(ok for *_, ok in report.samples)
    assert not report.excluded_null_cone


def test_singular_report_double_case():
    report = singular_point_report(RManifoldSpec(3, 2, ZetaKind.PLUS))
    assert report.unique_singular_point
    assert report.bend_angle <= 1e-8


def test_singular_report_bend_independent_of_l():
    r2 = singular_point_report(RManifoldSpec(2, 2, ZetaKind.MINUS))
    r3 = singular_point_report(RManifoldSpec(2, 3, ZetaKind.MINUS))
    assert r2.bend_angle <= 1e-8 and r3.bend_angle <= 1e-8


def test_germs_depend_on_l():
    p2 = family_point(RManifoldSpec(2, 2, ZetaKind.MINUS), 0.3, 0.2)
    p3 = family_point(RManifoldSpec(2, 3, ZetaKind.MINUS), 0.3, 0.2)
    diffs = [abs(p2.u[pq] - p3.u[pq]) for pq in jet_indices(2)]
    assert max(diffs) > 1e-6


def test_singular_report_dual_case_emits_both_conventions():
    report = singular_point_report(RManifoldSpec(3, 2, ZetaKind.ZERO))
    # the origin bend is span{x^k, x^(k-1) y}, the normal form itself;
    # the prolonged-equation fiber tangents give the x<->y mirror
    assert report.bend_angle <= 1e-8
    assert report.bend_angle_swapped == pytest.approx(math.pi / 2, abs=1e-6)
    # the base projection is everywhere degenerate (y is identically 0)
    assert not any(ok for *_, ok in report.samples)
    assert not report.unique_singular_point


def test_report_json_is_serializable_shape():
    report = singular_point_report(RManifoldSpec(2, 2, ZetaKind.MINUS))
    payload = report.to_json_dict()
    assert payload["k"] == 2 and payload["kind"] == "minus"
    assert payload["unique_singular_point"] is True
    assert len(payload["samples"]) == len(report.samples)


# --- export -------------------------------------------------------------------------------

def test_point_cloud_csv(tmp_path):
    spec = RManifoldSpec(2, 2, ZetaKind.MINUS)
    path = tmp_path / "cloud.csv"
    write_point_cloud(spec, [(0.1, 0.2), (0.3, -0.4)], path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:4] == ["a", "b", "x", "y"]
    assert rows[0][4:] == [f"u_{{{p},{q}}}" for p, q in jet_indices(2)]
    assert len(rows) == 3
    pt = family_point(spec, 0.1, 0.2)
    assert float(rows[1][2]) == pytest.approx(pt.x, rel=1e-15)


# --- column evaluation of L_{k,l} ------------------------------------------------------------

def _oracle_point(spec, a, b):
    """The family point from one ZetaNum power chain per coordinate, in layout order."""
    k, l, kind = spec.k, spec.l, spec.kind
    sq = kind.square
    s = ZetaNum(a, b, kind)
    cap_f = frac_factorial(k, l)
    u = {(k, 0): a, (k - 1, 1): b}
    base = s ** l
    x = base.re / cap_f ** l
    y = sq * base.im / cap_f ** l
    for r in range(1, k + 1):
        scale = frac_factorial(r, l) * cap_f ** (l * r)
        w = s ** (l * r + 1)
        u[(k - r, 0)] = w.re / scale
        if k - r - 1 >= 0:
            u[(k - r - 1, 1)] = w.im / scale
    for q in range(2, k + 1):
        for p in range(k - q + 1):
            u[(p, q)] = sq * u[(p + 2, q - 2)]
    return np.array([x, y] + [u[pq] for pq in jet_indices(k)])


_param = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 8), l=st.integers(2, 5), kind=st.sampled_from(list(ZetaKind)),
       pairs=st.lists(st.tuples(_param, _param), min_size=1, max_size=4),
       h=st.sampled_from([1e-4, 1e-3, 0.5]))
def test_family_columns_bitwise_equal_to_zetanum_powers(k, l, kind, pairs, h):
    spec = RManifoldSpec(k, l, kind)
    # the pairs, then the central-difference lanes around each (a +- 0.0 among them)
    lanes = list(pairs)
    for a, b in pairs:
        lanes += [(a + h, b + 0.0), (a - h, b - 0.0), (a + 0.0, b + h), (a - 0.0, b - h)]
    cols = _family_columns(spec, *zip(*lanes))
    assert cols.shape == (len(layout_keys(k)), len(lanes))
    for i, (a, b) in enumerate(lanes):
        expected = _oracle_point(spec, a, b)
        assert cols[:, i].tobytes() == expected.tobytes(), (a, b)
        assert family_point(spec, a, b).as_array().tobytes() == expected.tobytes()
    for j, (a, b) in enumerate(pairs):
        first = len(pairs) + 4 * j
        plus_a, minus_a, plus_b, minus_b = (_oracle_point(spec, *lane)
                                            for lane in lanes[first:first + 4])
        ta, tb = (plus_a - minus_a) / (2.0 * h), (plus_b - minus_b) / (2.0 * h)
        unit_a, unit_b = tangent_vectors(spec, a, b, h)
        assert unit_a.tobytes() == (ta / np.linalg.norm(ta)).tobytes()
        assert unit_b.tobytes() == (tb / np.linalg.norm(tb)).tobytes()


def test_family_point_rejects_overflowing_scaling_constants():
    for k, l in ((40, 2), (20, 5)):
        with pytest.raises(ValueError, match=f"k={k}, l={l}"):
            family_point(RManifoldSpec(k, l, ZetaKind.MINUS), 0.5, 0.5)


def test_scaling_constants_keep_the_bits_of_the_formula():
    for k, l in ((2, 2), (7, 4), (13, 2), (9, 3)):
        cap_f = frac_factorial(k, l)
        base_scale, scales = _scaling_constants(k, l)
        assert base_scale == cap_f ** l
        assert scales == [frac_factorial(r, l) * cap_f ** (l * r) for r in range(1, k + 1)]


class _CountedPowers(float):
    """A float that counts the powers taken of it."""

    def __pow__(self, m):
        _CountedPowers.powers += 1
        return float(self) ** m


@pytest.mark.parametrize("k, l, powers", [(60, 2, 3), (8000, 2, 1), (10 ** 9, 2, 1)])
def test_overflowing_scaling_constants_are_refused_without_the_rest(monkeypatch, k, l, powers):
    # the constants once took a frac_factorial(r, l) for every r <= k, O(k^2)
    # multiplications, before the overflow check
    calls = []

    def counted(s, l):
        calls.append(s)
        return _CountedPowers(frac_factorial(s, l))

    _CountedPowers.powers = 0
    monkeypatch.setattr(rmanifold, "frac_factorial", counted)
    with pytest.raises(ValueError, match=f"overflow for k={k}, l={l}"):
        rmanifold._family_columns(RManifoldSpec(k, l, ZetaKind.MINUS), [0.5], [0.5])
    assert calls == [k]
    assert _CountedPowers.powers == powers


def test_frac_factorial_stops_at_infinity():
    assert frac_factorial(170, 2) < math.inf
    assert frac_factorial(171, 2) == frac_factorial(10 ** 12, 2) == math.inf


def test_singular_report_rejects_non_finite_tangents():
    # the tangent of x is 3 s^2 / F^3, and s^2 overflows
    with pytest.raises(EvalDomainError, match=r"non-finite tangent of the family at \(a, b\)"):
        singular_point_report(RManifoldSpec(3, 3, ZetaKind.MINUS), radius=1e200)


def test_singular_report_rejects_overflowing_determinants():
    # the tangents of x, y are about 1e198, so their 2x2 determinant overflows
    with pytest.raises(EvalDomainError, match=r"non-finite determinant of the base "
                                              r"projection at \(a, b\) = \(6\.12"):
        singular_point_report(RManifoldSpec(3, 2, ZetaKind.MINUS), radius=1e200, samples=2)


def test_singular_report_ignores_overflow_in_rows_it_does_not_read():
    # s^41 overflows the u rows at radius 1e8 while x = s^5/cap^5 stays finite
    spec = RManifoldSpec(8, 5, ZetaKind.MINUS)
    a, b = 1e8, 0.5e8
    assert not np.isfinite(_family_columns(spec, [a], [b])).all()
    report = singular_point_report(spec, radius=1e8, samples=4)
    data = report.to_json_dict()
    assert all(math.isfinite(s["det"]) and math.isfinite(s["sigma_ratio"])
               for s in data["samples"])
    assert math.isfinite(report.origin_base_derivative)


# --- exact tangents ---------------------------------------------------------------------------

def _relative_cartan_defect(pt, tangents):
    """Largest |t[u_{p,q}] - u_{p+1,q} t[x] - u_{p,q+1} t[y]| over the sum of
    the magnitudes of its three terms (terms that are all 0 count as 0)."""
    pos = layout_keys(pt.k)
    worst = 0.0
    for t in tangents:
        tx, ty = t[pos.index("x")], t[pos.index("y")]
        for p, q in jet_indices(pt.k - 1):
            terms = (t[pos.index((p, q))], -pt.u[(p + 1, q)] * tx, -pt.u[(p, q + 1)] * ty)
            size = sum(abs(v) for v in terms)
            if size:
                worst = max(worst, abs(sum(terms)) / size)
    return worst


@pytest.mark.parametrize("kind", [ZetaKind.MINUS, ZetaKind.PLUS])
def test_exact_tangents_are_cartan_tangent_at_roundoff(kind):
    rng = np.random.default_rng(11)
    for k in range(2, 9):
        for l in range(2, 6):
            spec = RManifoldSpec(k, l, kind)
            a, b = rng.uniform(-1, 1, (2, 6))
            values, ta, tb = _family_columns(spec, a, b, tangents=True)
            assert values.tobytes() == _family_columns(spec, a, b).tobytes()
            for i in range(a.size):
                pt = family_point(spec, a[i], b[i])
                assert _relative_cartan_defect(pt, (ta[:, i], tb[:, i])) <= 1e-12, (k, l)


def test_exact_tangents_at_the_origin():
    # the base rows vanish (the rank drops to 0) and the fiber rows are the
    # unit vectors of (a, b) continued by u_{p,q} = zeta^2 u_{p+2,q-2}
    k = 5
    pos = layout_keys(k)
    for kind in ZetaKind:
        _, ta, tb = _family_columns(RManifoldSpec(k, 3, kind), [0.0], [0.0], tangents=True)
        expected_a, expected_b = np.zeros(len(pos)), np.zeros(len(pos))
        for r in range(k // 2 + 1):
            expected_a[pos.index((k - 2 * r, 2 * r))] = kind.square ** r
        for r in range((k - 1) // 2 + 1):
            expected_b[pos.index((k - 1 - 2 * r, 2 * r + 1))] = kind.square ** r
        assert ta[:, 0].tolist() == expected_a.tolist()
        assert tb[:, 0].tolist() == expected_b.tolist()


@pytest.mark.parametrize("kind", [ZetaKind.MINUS, ZetaKind.PLUS])
def test_finite_difference_tangents_converge_to_exact_at_second_order(kind):
    spec = RManifoldSpec(4, 3, kind)
    _, ta, tb = _family_columns(spec, [0.5], [0.3], tangents=True)
    exact = np.concatenate([ta[:, 0] / np.linalg.norm(ta[:, 0]),
                            tb[:, 0] / np.linalg.norm(tb[:, 0])])
    errors = [np.abs(np.concatenate(tangent_vectors(spec, 0.5, 0.3, h)) - exact).max()
              for h in (4e-3, 2e-3, 1e-3)]
    assert errors[2] < errors[1] < errors[0] < 1e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert fine / coarse == pytest.approx(0.25, abs=0.02)

