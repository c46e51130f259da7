"""Prolonged zeta-Laplace equations on jet space and singular solution families.

Points of the order-k jet chart carry coordinates x, y and u_{p,q} for
p+q <= k.  The prolonged zeta-Laplace equation is the linear system
u_{2+r,s} - zeta^2 u_{r,s+2} = 0 over r+s <= k-2.

The family L_{k,l} (k >= 2, integer l >= 2) is the k-jet surface of the
multivalued power z^(k + 1/l), parametrized by the top-order coordinates
(a, b) = (u_{k,0}, u_{k-1,1}).  Writing s = a + zeta*b, F = ff(k, l) for
the shifted factorial ff(r, l) = (1 + 1/l)(2 + 1/l)...(r + 1/l):

    x = Re(s^l) / F^l,          y = zeta^2 * Im(s^l) / F^l,
    u_{k-r,0}   = Re(s^(lr+1)) / (ff(r, l) * F^(lr)),   1 <= r <= k,
    u_{k-r-1,1} = Im(s^(lr+1)) / (ff(r, l) * F^(lr)),   1 <= r <= k-1,

and the q >= 2 slots follow from the prolonged equation,
u_{p,q} = zeta^2 u_{p+2,q-2}.  The base pair is a degree-l map of the
parameters; this is what makes the surface tangent to the Cartan
distribution (the tangency defect of central-difference tangents decays
at second order in the step).  At the origin the base projection drops
rank and the kernel's polynomial image is the bend normal form
Span(Re z^k, Im z^k).

Caveats, reported rather than hidden: for the double numbers (zeta^2 = 1)
the base Jacobian also degenerates on the null cone |a| = |b|, so rank
sampling avoids a sector around it; for the dual numbers (zeta^2 = 0) the
family is inconsistent with the prolonged equation away from a = 0 and the
base map is everywhere degenerate, so membership is only reported.
"""

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bends import HomPoly, normal_form, poly_from_fiber_vector, span_angle
from .errors import ConsistencyError
from .expr import EvalDomainError
from .zeta import ZetaKind, ZetaNum, frac_factorial

__all__ = [
    "JetChartPoint",
    "RManifoldSpec",
    "jet_indices",
    "layout_keys",
    "prolonged_residuals",
    "fiber_tangent_basis",
    "FiberTangentBasis",
    "family_point",
    "family_consistency",
    "tangent_vectors",
    "cartan_defect_at",
    "cartan_tangency_defect",
    "singular_point_report",
    "SingularPointReport",
    "write_point_cloud",
]


@lru_cache(maxsize=None)
def jet_indices(k: int) -> tuple:
    """All (p, q) with p + q <= k in graded-lex order."""
    out = []
    for degree in range(k + 1):
        out.extend((p, degree - p) for p in range(degree + 1))
    return tuple(out)


@lru_cache(maxsize=None)
def layout_keys(k: int) -> tuple:
    return ("x", "y") + jet_indices(k)


@lru_cache(maxsize=None)
def _layout_pos(k: int) -> dict:
    return {key: i for i, key in enumerate(layout_keys(k))}


@dataclass(frozen=True)
class JetChartPoint:
    """A point of the order-k jet chart."""

    k: int
    x: float
    y: float
    u: dict  # (p, q) -> value, complete over p+q <= k

    def __post_init__(self):
        missing = [pq for pq in jet_indices(self.k) if pq not in self.u]
        if missing:
            raise ValueError(f"jet chart point is missing coordinates {missing}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y]
                        + [self.u[pq] for pq in jet_indices(self.k)])


@dataclass(frozen=True)
class RManifoldSpec:
    k: int
    l: int
    kind: ZetaKind

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.l < 2:
            raise ValueError("l must be an integer >= 2")


def prolonged_residuals(pt: JetChartPoint, kind: ZetaKind) -> np.ndarray:
    """One residual u_{2+r,s} - zeta^2 u_{r,s+2} per (r, s), graded-lex."""
    sq = kind.square
    out = []
    for r, s in jet_indices(pt.k - 2):
        out.append(pt.u[(2 + r, s)] - sq * pt.u[(r, s + 2)])
    return np.array(out)


@dataclass(frozen=True)
class FiberTangentBasis:
    """Tangent basis of the fiber intersection with its polynomial images."""

    vec1: dict
    vec2: dict
    poly1: HomPoly
    poly2: HomPoly


def fiber_tangent_basis(k: int, kind: ZetaKind) -> FiberTangentBasis:
    """vec1 = sum_r zeta^(2r) d/du_{2r,k-2r}, vec2 the odd counterpart.

    For the complex and double numbers the polynomial images span the bend
    normal form Span(Re z^k, Im z^k); this is enforced.  For the dual
    numbers the images are {y^k/k!, x y^(k-1)/(k-1)!}, the x<->y mirror of
    the normal form, and no gate is applied (callers compare both ways).
    """
    sq = kind.square
    vec1 = {(r, k - r): 0.0 for r in range(k + 1)}
    vec2 = dict(vec1)
    for r in range(k // 2 + 1):
        vec1[(2 * r, k - 2 * r)] = sq ** r
    for r in range((k - 1) // 2 + 1):
        vec2[(1 + 2 * r, k - 1 - 2 * r)] = sq ** r
    poly1 = poly_from_fiber_vector(k, vec1)
    poly2 = poly_from_fiber_vector(k, vec2)
    if kind is not ZetaKind.ZERO:
        nf = normal_form(k, kind)
        angle = span_angle(np.column_stack([poly1.coeffs, poly2.coeffs]),
                           nf.basis_matrix())
        if angle > 1e-8:
            raise ConsistencyError("fiber tangent images do not span the "
                                   "bend normal form")
    return FiberTangentBasis(vec1, vec2, poly1, poly2)


def family_point(spec: RManifoldSpec, a: float, b: float) -> JetChartPoint:
    """The point of L_{k,l} at parameters (a, b) = (u_{k,0}, u_{k-1,1})."""
    k, l, kind = spec.k, spec.l, spec.kind
    sq = kind.square
    s = ZetaNum(float(a), float(b), kind)
    cap_f = frac_factorial(k, l)

    u = {(k, 0): float(a), (k - 1, 1): float(b)}
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

    pt = JetChartPoint(k, x, y, u)
    if kind is not ZetaKind.ZERO:
        bad = family_consistency(pt, kind)
        if bad:
            idx, value = bad[0]
            raise ConsistencyError(f"prolonged equation violated at {idx}: "
                                   f"residual {value}")
    return pt


def family_consistency(pt: JetChartPoint, kind: ZetaKind, tol: float = 1e-9) -> list:
    """Offending (index, residual) pairs of the prolonged equation, if any."""
    res = prolonged_residuals(pt, kind)
    out = []
    for pq, value in zip(jet_indices(pt.k - 2), res):
        if abs(value) > tol:
            out.append((pq, float(value)))
    return out


def _raw_tangents(spec: RManifoldSpec, a: float, b: float, h: float) -> tuple:
    def diff(da, db):
        plus = family_point(spec, a + da, b + db).as_array()
        minus = family_point(spec, a - da, b - db).as_array()
        return (plus - minus) / (2.0 * h)
    return diff(h, 0.0), diff(0.0, h)


def tangent_vectors(spec: RManifoldSpec, a: float, b: float,
                    h: float = 1e-4) -> tuple:
    """Unit central-difference tangents of the parametrization in a and b."""
    if h <= 0:
        raise ValueError("step h must be positive")
    ta, tb = _raw_tangents(spec, a, b, h)
    return ta / np.linalg.norm(ta), tb / np.linalg.norm(tb)


def cartan_defect_at(pt: JetChartPoint, tangents) -> float:
    """max |t[u_{p,q}] - u_{p+1,q} t[x] - u_{p,q+1} t[y]| over p+q <= k-1."""
    pos = _layout_pos(pt.k)
    worst = 0.0
    for t in tangents:
        tx, ty = t[pos["x"]], t[pos["y"]]
        for p, q in jet_indices(pt.k - 1):
            val = (t[pos[(p, q)]] - pt.u[(p + 1, q)] * tx
                   - pt.u[(p, q + 1)] * ty)
            worst = max(worst, abs(val))
    return worst


def cartan_tangency_defect(spec: RManifoldSpec, a: float, b: float,
                           h: float = 1e-4) -> float:
    """Tangency defect of the family at (a, b); decays as h^2 on R-manifolds."""
    if math.hypot(a, b) < 10.0 * h:
        raise ValueError("parameters too close to the singular point for "
                         "the finite-difference step")
    pt = family_point(spec, a, b)
    return cartan_defect_at(pt, tangent_vectors(spec, a, b, h))


# --- singular point analysis ---------------------------------------------------

@dataclass(frozen=True)
class SingularPointReport:
    spec: RManifoldSpec
    radius: float
    samples: tuple            # (params, det, sigma ratio, rank2_ok)
    excluded_null_cone: tuple
    origin_base_derivative: float
    origin_rank0_ok: bool
    bend_angle: float         # to Span(Re z^k, Im z^k)
    bend_angle_swapped: float  # to the x<->y mirror span
    bend_ok: bool
    unique_singular_point: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.spec.k,
            "l": self.spec.l,
            "kind": self.spec.kind.value,
            "radius": self.radius,
            "samples": [
                {"params": list(p), "det": d, "sigma_ratio": r, "rank2_ok": ok}
                for p, d, r, ok in self.samples
            ],
            "excluded_null_cone": [list(p) for p in self.excluded_null_cone],
            "origin_base_derivative": self.origin_base_derivative,
            "origin_rank0_ok": self.origin_rank0_ok,
            "bend_angle": self.bend_angle,
            "bend_angle_swapped": self.bend_angle_swapped,
            "bend_ok": self.bend_ok,
            "unique_singular_point": self.unique_singular_point,
        }


def _origin_bend_basis(spec: RManifoldSpec, h: float) -> np.ndarray:
    """Fiber parts (top order) of the tangent plane at the origin."""
    ta, tb = _raw_tangents(spec, 0.0, 0.0, h)
    pos = _layout_pos(spec.k)
    cols = []
    for t in (ta, tb):
        comp = {(p, q): t[pos[(p, q)]] for p, q in jet_indices(spec.k)
                if p + q == spec.k}
        full = {(r, spec.k - r): comp.get((r, spec.k - r), 0.0)
                for r in range(spec.k + 1)}
        cols.append(poly_from_fiber_vector(spec.k, full).coeffs)
    return np.column_stack(cols)


def singular_point_report(spec: RManifoldSpec, radius: float = 0.5,
                          samples: int = 16, h: float = 1e-4) -> SingularPointReport:
    """Rank behavior of the base projection plus the bend at the origin.

    Samples parameter circles of radius ``radius`` and ``2 * radius``.  For
    the double numbers, directions within the sector |a^2 - b^2| <
    0.2 (a^2 + b^2) around the null cone are excluded from the rank-2 check
    and listed separately (the base Jacobian genuinely degenerates there).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    pos = _layout_pos(spec.k)
    kept, excluded = [], []
    for rho in (radius, 2.0 * radius):
        for i in range(samples):
            theta = 2.0 * math.pi * (i + 0.5) / samples
            a, b = rho * math.cos(theta), rho * math.sin(theta)
            if spec.kind is ZetaKind.PLUS and abs(a * a - b * b) < 0.2 * rho * rho:
                excluded.append((a, b))
                continue
            ta, tb = _raw_tangents(spec, a, b, h)
            block = np.array([[ta[pos["x"]], ta[pos["y"]]],
                              [tb[pos["x"]], tb[pos["y"]]]])
            sig = np.linalg.svd(block, compute_uv=False)
            ratio = float(sig[1] / sig[0]) if sig[0] > 0 else 0.0
            det = float(np.linalg.det(block))
            kept.append(((a, b), det, ratio, bool(ratio > 1e-6)))

    if not kept:
        raise ValueError(f"all {2 * samples} sample directions fall in the "
                         "excluded null-cone sector; use more samples")
    ta0, tb0 = _raw_tangents(spec, 0.0, 0.0, h)
    base_mag = float(max(abs(ta0[pos["x"]]), abs(ta0[pos["y"]]),
                         abs(tb0[pos["x"]]), abs(tb0[pos["y"]])))
    rank0_ok = base_mag <= 100.0 * h

    bend = _origin_bend_basis(spec, h)
    nf = normal_form(spec.k, spec.kind).basis_matrix()
    swapped = nf[::-1, :]  # reversing coefficients swaps x and y
    angle = span_angle(bend, nf)
    angle_swapped = span_angle(bend, swapped)
    bend_ok = bool(angle <= 1e-8)

    unique = bool(all(ok for *_, ok in kept) and rank0_ok and
                  (bend_ok or spec.kind is ZetaKind.ZERO))
    return SingularPointReport(
        spec, radius, tuple(kept), tuple(excluded), base_mag, rank0_ok,
        float(angle), float(angle_swapped), bend_ok, unique)


def write_point_cloud(spec: RManifoldSpec, params, path) -> None:
    """CSV with one row per parameter pair: a, b, x, y, u_{p,q} (graded-lex).

    Every point is computed before the file is opened; a NaN or infinity
    (say from overflowing powers) raises EvalDomainError and writes nothing.
    """
    keys = jet_indices(spec.k)
    rows = []
    for a, b in params:
        pt = family_point(spec, a, b)
        row = [float(v) for v in [a, b, pt.x, pt.y] + [pt.u[pq] for pq in keys]]
        if not all(map(math.isfinite, row)):
            raise EvalDomainError("non-finite point of the family at "
                                  f"(a, b) = ({row[0]!r}, {row[1]!r})")
        rows.append([f"{v:.17g}" for v in row])
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["a", "b", "x", "y"]
                        + [f"u_{{{p},{q}}}" for p, q in keys])
        writer.writerows(rows)
