"""The gate table: every threshold decision goes through ``gates.passes``.

* The oracle property holds each row against the comparison it replaced,
  copied here as it stood inline at its site: ``passes`` decides exactly
  as it did, at the limit, one ulp either side, at signed zeros,
  subnormals and infinities.  A NaN never passes, where several of the
  old comparisons let it through.
* A lint over the AST of ``src/macontact`` keeps threshold literals out of
  comparisons outside ``gates.py``.
* README's "Gates" table lists the rows of ``gates.GATES``.
* At four sites a NaN used to pass; each has a regression test.
"""

import ast
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macontact import bends, contact, rmanifold, symplectic
from macontact.bends import HomPoly
from macontact.contact import ContactChart, DarbouxPoint
from macontact.expr import parse
from macontact.gates import GATES, passes
from macontact.rmanifold import RManifoldSpec
from macontact.zeta import ZetaKind

ROOT = pathlib.Path(__file__).resolve().parents[1]

# --- oracle: each row against the inline comparison it replaced -----------------
#
# name -> (number of scales, oracle, call, limit).  ``oracle(v, s, tol)`` is
# the old site's comparison turned into its passing condition, ``call(v, s,
# tol)`` the site's ``passes`` call, and ``limit(s, tol)`` the old limit,
# around which values are drawn.  ``tol`` is None where the site has no
# parameter of its own; ``s`` is a tuple of scales.

def _tol(tol, default):
    return default if tol is None else tol


def _size(s):  # classify_bend: the entries' largest absolute value
    return max(abs(v) for v in s)


def _bend_scale(s):  # classify_bend before: scale = max(1.0, abs(alpha), ...)
    return max(1.0, *(abs(v) for v in s))


def _band(s, tol):  # classify_dim4 before: a given band, else 1e-9 * max(1, ||A||^2)
    return 1e-9 * max(1.0, s[0] ** 2) if tol is None else tol


def _bands(s, tol):
    return () if tol is not None else (s[0] ** 2,)


CASES = {
    "gram_nondegenerate": (0, lambda v, s, t: not (v <= 1e-12),
                           lambda v, s, t: passes("gram_nondegenerate", v),
                           lambda s, t: 1e-12),
    "self_adjoint": (0, lambda v, s, t: v <= _tol(t, 1e-10),
                     lambda v, s, t: passes("self_adjoint", v, threshold=t),
                     lambda s, t: _tol(t, 1e-10)),
    "dim4_norm": (0, lambda v, s, t: v <= 1e150,
                  lambda v, s, t: passes("dim4_norm", v), lambda s, t: 1e150),
    "dim4_self_adjoint": (1, lambda v, s, t: v <= _tol(t, 1e-9) * max(1.0, s[0]),
                          lambda v, s, t: passes("dim4_self_adjoint", v, s[0], threshold=t),
                          lambda s, t: _tol(t, 1e-9) * max(1.0, s[0])),
    "dim4_scalar": (1, lambda v, s, t: v <= _tol(t, 1e-9) * max(1.0, s[0]),
                    lambda v, s, t: passes("dim4_scalar", v, s[0], threshold=t),
                    lambda s, t: _tol(t, 1e-9) * max(1.0, s[0])),
    "dim4_min_poly": (1, lambda v, s, t: not (v > _tol(t, 1e-9) * max(1.0, s[0] ** 2)),
                      lambda v, s, t: passes("dim4_min_poly", v, s[0] ** 2, threshold=t),
                      lambda s, t: _tol(t, 1e-9) * max(1.0, s[0] ** 2)),
    # elliptic: d < -band; hyperbolic: d > band
    "dim4_band": (1, lambda v, s, t: (v < -_band(s, t), v > _band(s, t)),
                  lambda v, s, t: (passes("dim4_band", -v, *_bands(s, t), threshold=t),
                                   passes("dim4_band", v, *_bands(s, t), threshold=t)),
                  lambda s, t: _band(s, t)),
    "lagrangian": (0, lambda v, s, t: v <= 1e-10,
                   lambda v, s, t: passes("lagrangian", v), lambda s, t: 1e-10),
    # the site's scale is a float64, whose power overflows to inf
    "complement": (1, lambda v, s, t: not (v <= 1e-12 * max(np.float64(s[0]), 1.0) ** 4),
                   lambda v, s, t: passes("complement", v, np.float64(s[0]) ** 4),
                   lambda s, t: float(1e-12 * max(np.float64(s[0]), 1.0) ** 4)),
    "pairing_nonzero": (0, lambda v, s, t: not (v <= 1e-12),
                        lambda v, s, t: passes("pairing_nonzero", v), lambda s, t: 1e-12),
    "sign_pivot": (0, lambda v, s, t: v > 1e-12,
                   lambda v, s, t: passes("sign_pivot", v), lambda s, t: 1e-12),
    "rank": (1, lambda v, s, t: v > _tol(t, 1e-10) * s[0],
             lambda v, s, t: passes("rank", v, s[0], threshold=t),
             lambda s, t: _tol(t, 1e-10) * s[0]),
    # s[0]: max(m.shape), s[1]: the largest singular value
    "span_rank": (2, lambda v, s, t: v > (int(s[0]) * np.finfo(float).eps) * s[1],
                  lambda v, s, t: passes("span_rank", v, int(s[0]), s[1]),
                  lambda s, t: (int(s[0]) * np.finfo(float).eps) * s[1]),
    "probe_rank2": (0, lambda v, s, t: not (v <= 1e-8),
                    lambda v, s, t: passes("probe_rank2", v), lambda s, t: 1e-8),
    "witness_span": (1, lambda v, s, t: not (v > 1e-10 * s[0]),
                     lambda v, s, t: passes("witness_span", v, s[0]),
                     lambda s, t: 1e-10 * s[0]),
    # s: the four entries of the structure matrix
    "bend_nonscalar": (4, lambda v, s, t: not (v <= _tol(t, 1e-9) * _bend_scale(s)),
                       lambda v, s, t: passes("bend_nonscalar", v, _size(s), threshold=t),
                       lambda s, t: _tol(t, 1e-9) * _bend_scale(s)),
    # minus: c < -tol * scale * scale; plus: c > tol * scale * scale
    "bend_kind": (4, lambda v, s, t: (v < -_tol(t, 1e-9) * _bend_scale(s) * _bend_scale(s),
                                      v > _tol(t, 1e-9) * _bend_scale(s) * _bend_scale(s)),
                  lambda v, s, t: (passes("bend_kind", -v, _size(s), _size(s), threshold=t),
                                   passes("bend_kind", v, _size(s), _size(s), threshold=t)),
                  lambda s, t: _tol(t, 1e-9) * _bend_scale(s) * _bend_scale(s)),
    "family_consistency": (0, lambda v, s, t: not (abs(v) > _tol(t, 1e-9)),
                           lambda v, s, t: passes("family_consistency", abs(v), threshold=t),
                           lambda s, t: _tol(t, 1e-9)),
    "base_rank2": (0, lambda v, s, t: v > 1e-6,
                   lambda v, s, t: passes("base_rank2", v), lambda s, t: 1e-6),
    "bend_angle": (0, lambda v, s, t: v <= 1e-8,
                   lambda v, s, t: passes("bend_angle", v), lambda s, t: 1e-8),
    "contact_field": (0, lambda v, s, t: not (abs(v) > _tol(t, 1e-9)),
                      lambda v, s, t: passes("contact_field", abs(v), threshold=t),
                      lambda s, t: _tol(t, 1e-9)),
    "type_band": (0, lambda v, s, t: np.abs(v) <= _tol(t, 1e-9),
                  lambda v, s, t: passes("type_band", np.abs(v), threshold=t),
                  lambda s, t: _tol(t, 1e-9)),
    "poly_homogeneous": (1, lambda v, s, t: not (abs(v) > 1e-12 * s[0]),
                         lambda v, s, t: passes("poly_homogeneous", abs(v), s[0]),
                         lambda s, t: 1e-12 * s[0]),
    "verify_residual": (0, lambda v, s, t: v <= _tol(t, 1e-9),
                        lambda v, s, t: passes("verify_residual", v, threshold=t),
                        lambda s, t: _tol(t, 1e-9)),
    "verify_defect": (0, lambda v, s, t: v <= _tol(t, 1e-8),
                      lambda v, s, t: passes("verify_defect", v, threshold=t),
                      lambda s, t: _tol(t, 1e-8)),
    "error_fraction": (0, lambda v, s, t: not (v > _tol(t, 0.25)),
                       lambda v, s, t: passes("error_fraction", v, threshold=t),
                       lambda s, t: _tol(t, 0.25)),
}
# rows whose site takes a threshold from a parameter or flag
OVERRIDABLE = {"self_adjoint", "dim4_self_adjoint", "dim4_scalar", "dim4_min_poly",
               "dim4_band", "bend_nonscalar", "bend_kind", "family_consistency",
               "contact_field", "type_band", "verify_residual", "verify_defect",
               "error_fraction"}

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
           math.inf, -math.inf, 1.0, -1.0]
floats = st.floats(allow_nan=False)
scales = st.one_of(st.sampled_from([0.0, 5e-324, 0.5, 1.0, 2.0, 1e150, math.inf]),
                   st.floats(0, 1e200))


def _near(limit):
    """The limit, one ulp either side, and the same around its negation."""
    out = []
    for x in (limit, -limit):
        out += [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]
    return out


def test_every_row_has_an_oracle_case():
    assert set(CASES) == set(GATES)
    assert OVERRIDABLE <= set(GATES)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_passes_decides_as_the_inline_comparison_it_replaced(name, data):
    count, oracle, call, limit = CASES[name]
    if name == "span_rank":
        s = (float(data.draw(st.integers(1, 40))), data.draw(scales))
    elif count == 4:
        s = tuple(data.draw(st.one_of(floats, st.sampled_from(SPECIAL))) for _ in range(4))
        s = tuple(v if math.isfinite(v) else 1e300 for v in s)  # entries are finite there
    elif name.startswith("dim4_"):  # ||A||_F, finite and at most 1e150 there
        s = (data.draw(st.one_of(st.sampled_from([0.0, 1.0, 1e150]), st.floats(0, 1e150))),)
    else:
        s = tuple(data.draw(scales) for _ in range(count))
    tol = None
    if name in OVERRIDABLE:
        tol = data.draw(st.one_of(st.none(), st.sampled_from([0.0, 1e-9, 0.25, 1e300]),
                                  st.floats(0, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        near = _near(limit(s, tol)) if not math.isnan(limit(s, tol)) else []
        values = near + SPECIAL + [data.draw(floats)]
        for v in values:
            assert call(v, s, tol) == oracle(v, s, tol), (name, v, s, tol)
            # a column decides lane by lane as the scalar does
            lane = call(np.array([v, v]), s, tol)
            lane = lane if isinstance(lane, tuple) else (lane,)
            scalar = call(v, s, tol)
            scalar = scalar if isinstance(scalar, tuple) else (scalar,)
            assert [list(x) for x in lane] == [[y, y] for y in scalar]
        # the NaN rule: a NaN value never passes, whatever the old site did
        nan = call(math.nan, s, tol)
        assert not any(nan if isinstance(nan, tuple) else (nan,))


def test_public_defaults_are_the_table_thresholds():
    import inspect

    from macontact import monge_ampere
    defaults = {
        (symplectic.is_self_adjoint, "tol"): "self_adjoint",
        (symplectic.classify_dim4, "tol"): "dim4_scalar",
        (bends.classify_bend, "tol"): "bend_kind",
        (rmanifold.family_consistency, "tol"): "family_consistency",
        (contact.is_contact_field, "tol"): "contact_field",
        (monge_ampere.classify, "band"): "type_band",
        (monge_ampere.classify_region, "band"): "type_band",
    }
    for (func, param), row in defaults.items():
        assert inspect.signature(func).parameters[param].default == GATES[row].threshold
    # the values the public signatures always had
    assert (GATES["self_adjoint"].threshold, GATES["dim4_scalar"].threshold,
            GATES["bend_kind"].threshold, GATES["type_band"].threshold) == (1e-10, 1e-9,
                                                                            1e-9, 1e-9)


# --- lint: no threshold literal in a comparison outside gates.py ---------------

DIMENSION = "a dimension or arity check, not a tolerance"
DOMAIN = "the domain of an integer parameter, not a tolerance"
ALLOWED = {
    ("bends.py", "cos_min * cos_min >= 0.5"):
        "span_angle picks the sine or the cosine formula at pi/4; both give the angle",
    ("bends.py", "space.shape[1] < 2"): DIMENSION,
    ("bends.py", "space.shape[1] != 2"): DIMENSION,
    ("bends.py", "k < 2"): DOMAIN,
    ("bends.py", "j % 2 == 0"): "the parity of a binomial term of z^k",
    ("cli.py", "len(pieces) != 3"): DIMENSION,
    ("cli.py", "0 < obj.ndim < 3"): DIMENSION,
    ("contact.py", "self.n != 2"): DIMENSION,
    ("expr.py", "order > 170"): "171! is the first factorial above the float range",
    ("monge_ampere.py", "bases.ndim != 2"): DIMENSION,
    ("rmanifold.py", "math.hypot(a, b) < 10.0 * h"):
        "the finite-difference stencil's reach, checked on the caller's own inputs",
    ("rmanifold.py", "self.k < 2"): DOMAIN,
    ("rmanifold.py", "self.l < 2"): DOMAIN,
    ("rmanifold.py", "params.ndim != 2"): DIMENSION,
    ("rmanifold.py", "params.shape[1] != 2"): DIMENSION,
    ("rmanifold.py", "abs(a * a - b * b) < 0.2 * rho * rho"):
        "the null-cone sector that the report excludes by definition (its docstring)",
    ("symplectic.py", "j.ndim != 2"): DIMENSION,
    ("symplectic.py", "p.shape[1] != 2"): DIMENSION,
    ("symplectic.py", "sp.dim != 4"): DIMENSION,
    ("symplectic.py", "w.shape[1] != 2"): DIMENSION,
    ("symplectic.py", "f.ndim != 2"): DIMENSION,
    ("zeta.py", "l < 2"): DOMAIN,
}


def _findings(name: str, source: str) -> list:
    """(file, text) of each comparison holding a numeric literal other than
    0 or 1, and of each module-level ``*_TOL`` constant."""
    tree = ast.parse(source)
    found = [(name, ast.unparse(node)) for node in ast.walk(tree)
             if isinstance(node, ast.Compare)
             and any(isinstance(n, ast.Constant) and type(n.value) in (int, float)
                     and n.value not in (0, 1) for n in ast.walk(node))]
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found += [(name, t.id) for t in targets
                  if isinstance(t, ast.Name) and t.id.endswith("_TOL")]
    return found


def test_no_threshold_literal_in_a_comparison_outside_the_gates():
    found = [f for path in sorted((ROOT / "src" / "macontact").glob("*.py"))
             if path.name != "gates.py" for f in _findings(path.name, path.read_text())]
    assert [f for f in found if f not in ALLOWED] == []
    # every allowance is still used, so the list cannot go stale
    assert set(ALLOWED) <= set(found)


def test_lint_sees_a_threshold_literal_and_a_tol_constant():
    code = ("_RANK_TOL = 1e-10\nLIMIT: float = 2.0\n"
            "def f(x, n):\n    return x <= 1e-9 * n or n == 1 or x > 0.0 or n != 2\n")
    assert _findings("m.py", code) == [("m.py", "x <= 1e-09 * n"), ("m.py", "n != 2"),
                                       ("m.py", "_RANK_TOL")]


def test_private_svd_helpers_live_in_gates():
    for module in ("bends.py", "rmanifold.py"):
        tree = ast.parse((ROOT / "src" / "macontact" / module).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "symplectic":
                assert not [a.name for a in node.names if a.name.startswith("_")]
    for name in ("_RANK_TOL", "_MAX_NORM"):
        assert not hasattr(symplectic, name)
    assert not hasattr(rmanifold, "_CONSISTENCY_TOL")


# --- README lists the table ----------------------------------------------------

def test_readme_gates_table_lists_every_row():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("### Gates"):]
    rows = {}
    for line in section.splitlines()[1:]:
        if line.startswith("#"):
            break
        match = re.match(r"\| `(\w+)` \|[^|]*\| (at most|above) \| `(\w+)`[^|]*\| ([^ |]+)", line)
        if match:
            name, direction, rule, threshold = match.groups()
            rows[name] = (direction, float(threshold), rule)
    assert rows == {name: tuple(gate) for name, gate in GATES.items()}


# --- a NaN never passes: the four sites that used to let it through ------------

def test_family_consistency_lists_nan_residuals():
    spec = RManifoldSpec(4, 3, ZetaKind.PLUS)
    with np.errstate(all="ignore"):
        pt = rmanifold.family_point(spec, 1e100, 1e100)
        res = rmanifold.prolonged_residuals(pt, ZetaKind.PLUS)
    assert np.isnan(res[:3]).all() and not np.isnan(res[3:]).any()
    offending = rmanifold.family_consistency(pt, ZetaKind.PLUS)
    assert [pq for pq, _ in offending] == list(rmanifold.jet_indices(2)[:3])
    assert all(math.isnan(v) for _, v in offending)


def test_structure_matrix_refuses_a_nan_residual():
    # finite forms whose least-squares residual overflows to NaN
    f, g = HomPoly(3, [1.0, 0.0, 1.0, 0.0]), HomPoly(3, [1e308] * 4)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="do not lie in span"):
        bends.structure_matrix(f, g)


def test_is_contact_field_refuses_a_nan_omega():
    chart, pt = ContactChart(), DarbouxPoint(0.0, 0.0, 0.0, 0.0, 0.0)
    field = [parse(c, contact.CHART_VARIABLES)
             for c in ("1e308*1e308*x1", "0", "0", "0", "0")]
    with np.errstate(all="ignore"):
        assert contact.is_contact_field(chart, field, [pt]) is False


def test_spanning_probe_refuses_a_nan_ratio(monkeypatch):
    space = bends._prolongation_space(2, HomPoly(2, [1.0, 0.0, -1.0]),
                                      HomPoly(2, [0.0, 2.0, 0.0]))
    assert bends._spanning_probe(space, 2) is not None
    # a NaN ratio (inf / inf) is the largest by argmax, which picks the first NaN
    monkeypatch.setattr(bends, "_sigma_ratios", lambda stack: np.full(len(stack), np.nan))
    assert bends._spanning_probe(space, 2) is None

