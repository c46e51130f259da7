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

from .bends import HomPoly, _orth_angle, _span_basis, normal_form, poly_from_fiber_vector
from .expr import EvalDomainError, multi_indices
from .gates import GATES, _sigma_ratios, passes
from .zeta import ZetaKind, frac_factorial

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

_BLOCK_ROWS = 64  # point-cloud rows per write; 32-128 rows measured the same


def jet_indices(k: int) -> tuple:
    """All (p, q) with p + q <= k in graded-lex order."""
    return multi_indices(2, k)


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
    return np.array([pt.u[(2 + r, s)] - sq * pt.u[(r, s + 2)]
                     for r, s in jet_indices(pt.k - 2)])


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
    normal form Span(Re z^k, Im z^k), exactly and for (k, kind) alone, so
    nothing is checked at run time: as (zeta^2)^2 = 1, k! * poly1 is
    zeta^(2 floor(k/2)) times Re z^k (k even) or Im z^k (k odd), and
    k! * poly2 is zeta^(2 floor((k-1)/2)) times the other one (tested in
    integers for k = 2..170; from k = 171 the factorials overflow).  For
    the dual numbers the images are {y^k/k!, x y^(k-1)/(k-1)!}, the x<->y
    mirror of the normal form (callers compare both ways).
    """
    sq = kind.square
    vec1 = {(r, k - r): 0.0 for r in range(k + 1)}
    vec2 = dict(vec1)
    for r in range(k // 2 + 1):
        vec1[(2 * r, k - 2 * r)] = sq ** r
    for r in range((k - 1) // 2 + 1):
        vec2[(1 + 2 * r, k - 1 - 2 * r)] = sq ** r
    return FiberTangentBasis(vec1, vec2, poly_from_fiber_vector(k, vec1),
                             poly_from_fiber_vector(k, vec2))


def _scaling_constants(k: int, l: int) -> tuple:
    """``F^l`` and ``frac_factorial(r, l) * F^(l r)`` for r = 1..k, with
    ``F = frac_factorial(k, l)``.  The factorials of r are one running
    product in ``frac_factorial``'s order, so the bits are the formula's,
    and the first constant that overflows raises before the rest are made.
    """
    cap_f, factor, constants = frac_factorial(k, l), 1.0, []
    for r in range(k + 1):
        try:  # r = 0 gives 1.0 * F^l, which is F^l
            constants.append(factor * cap_f ** (l * max(r, 1)))
        except OverflowError:
            constants.append(math.inf)
        if not math.isfinite(constants[-1]):
            raise ValueError(f"the scaling constants of L_{{k,l}} overflow for "
                             f"k={k}, l={l}")
        factor *= r + 1 + 1.0 / l  # frac_factorial(r + 1, l)
    return constants[0], constants[1:]


def _family_columns(spec: RManifoldSpec, a, b, tangents: bool = False):
    """Coordinates of L_{k,l} at the parameter pairs (a[i], b[i]).

    One column per pair, rows in ``layout_keys(k)`` order.  Every power of
    s = a + zeta*b is a prefix of one ladder from (1, 0),
    ``re, im = re*a + zeta^2*im*b, re*b + im*a``, which is the left-to-right
    product of ``ZetaNum.__pow__``; with the same float64 operations in the
    same order, each value is bitwise the one the per-point product gives.

    With ``tangents``, returns ``(values, d/da, d/db)``, the exact
    derivatives from the same ladder: the rung before s^m is s^(m-1), and
    d s^m/da = m s^(m-1), d s^m/db = m zeta s^(m-1).
    """
    k, l, kind = spec.k, spec.l, spec.kind
    sq = kind.square
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    base_scale, scales = _scaling_constants(k, l)

    pos = _layout_pos(k)
    # rows x lanes x points: the lanes are the values, then d/da and d/db
    out = np.empty((len(pos),) + ((3,) if tangents else ()) + a.shape)
    out[pos[(k, 0)]] = (a, np.ones_like(a), np.zeros_like(a)) if tangents else a
    out[pos[(k - 1, 1)]] = (b, np.zeros_like(b), np.ones_like(b)) if tangents else b
    re, im = 1.0, 0.0
    with np.errstate(all="ignore"):
        for m in range(1, l * k + 2):
            prev_re, prev_im = re, im
            re, im = re * a + sq * im * b, re * b + im * a
            r, rest = divmod(m - 1, l)
            if m != l and (rest != 0 or r == 0):
                continue
            w_re, w_im = re, im
            if tangents:
                w_re = np.stack([re, m * prev_re, m * sq * prev_im])
                w_im = np.stack([im, m * prev_im, m * prev_re])
            if m == l:
                out[pos["x"]] = w_re / base_scale
                out[pos["y"]] = sq * w_im / base_scale
            else:
                out[pos[(k - r, 0)]] = w_re / scales[r - 1]
                if k - r - 1 >= 0:
                    out[pos[(k - r - 1, 1)]] = w_im / scales[r - 1]
        for q in range(2, k + 1):
            for p in range(k - q + 1):
                out[pos[(p, q)]] = sq * out[pos[(p + 2, q - 2)]]
    if tangents:
        return out[:, 0], out[:, 1], out[:, 2]
    return out


def _finite_params(a, b) -> tuple:
    """``(a, b)`` as floats; a NaN or infinite one raises ValueError naming it."""
    a, b = float(a), float(b)
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"parameter {name} must be finite, not {value!r}")
    return a, b


def family_point(spec: RManifoldSpec, a: float, b: float) -> JetChartPoint:
    """The point of L_{k,l} at parameters (a, b) = (u_{k,0}, u_{k-1,1}),
    which must be finite (ValueError)."""
    a, b = _finite_params(a, b)
    col = _family_columns(spec, [a], [b])[:, 0].tolist()
    return JetChartPoint(spec.k, col[0], col[1],
                         dict(zip(jet_indices(spec.k), col[2:])))


def family_consistency(pt: JetChartPoint, kind: ZetaKind,
                       tol: float = GATES["family_consistency"].threshold) -> list:
    """Offending (index, residual) pairs of the prolonged equation, if any."""
    res = prolonged_residuals(pt, kind)
    ok = passes("family_consistency", np.abs(res), threshold=tol).tolist()
    return [(pq, float(v)) for pq, v, fine in zip(jet_indices(pt.k - 2), res, ok) if not fine]


def tangent_vectors(spec: RManifoldSpec, a: float, b: float,
                    h: float = 1e-4) -> tuple:
    """Unit central-difference tangents of the parametrization in a and b.
    A step that vanishes next to a or b (``a + h == a``) raises ValueError."""
    if h <= 0:
        raise ValueError("step h must be positive")
    for name, value in (("a", a), ("b", b)):
        if value + h == value or value - h == value:
            raise ValueError(f"step h={h!r} vanishes at parameter {name}={value!r}")
    # the zero steps are not no-ops: ``-0.0 + 0.0`` is ``0.0``, so they fix
    # the sign of zero coordinates, as stepping (a, b) by (h, 0) does
    lanes = [(a + h, b + 0.0), (a - h, b - 0.0), (a + 0.0, b + h), (a - 0.0, b - h)]
    cols = _family_columns(spec, *zip(*lanes))
    with np.errstate(all="ignore"):
        ta = (cols[:, 0] - cols[:, 1]) / (2.0 * h)
        tb = (cols[:, 2] - cols[:, 3]) / (2.0 * h)
    return ta / np.linalg.norm(ta), tb / np.linalg.norm(tb)


def cartan_defect_at(pt: JetChartPoint, tangents) -> float:
    """max |t[u_{p,q}] - u_{p+1,q} t[x] - u_{p,q+1} t[y]| over p+q <= k-1;
    NaN if any term is NaN."""
    pos = _layout_pos(pt.k)
    terms = []
    for t in tangents:
        tx, ty = t[pos["x"]], t[pos["y"]]
        for p, q in jet_indices(pt.k - 1):
            terms.append(abs(t[pos[(p, q)]] - pt.u[(p + 1, q)] * tx
                             - pt.u[(p, q + 1)] * ty))
    # np.max propagates NaN, where max(0.0, nan) is 0.0
    return float(np.max(terms, initial=0.0))


def cartan_tangency_defect(spec: RManifoldSpec, a: float, b: float,
                           h: float = 1e-4) -> float:
    """Tangency defect of the family at (a, b); decays as h^2 on R-manifolds.
    A NaN or infinite parameter raises ValueError."""
    a, b = _finite_params(a, b)
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


def _require_finite(what: str, cols: np.ndarray, params) -> None:
    """Raise EvalDomainError naming the parameters of the first column
    holding a NaN or infinity."""
    bad = ~np.isfinite(cols).all(axis=0)
    if bad.any():
        a, b = (float(v) for v in params[int(bad.argmax())])
        raise EvalDomainError(f"non-finite {what} at (a, b) = ({a!r}, {b!r})")


def _origin_bend_basis(k: int, tangents) -> np.ndarray:
    """Fiber parts (top order) of the tangent plane at the origin."""
    pos = _layout_pos(k)
    cols = []
    for t in tangents:
        full = {(r, k - r): t[pos[(r, k - r)]] for r in range(k + 1)}
        cols.append(poly_from_fiber_vector(k, full).coeffs)
    return np.column_stack(cols)


def singular_point_report(spec: RManifoldSpec, radius: float = 0.5,
                          samples: int = 16) -> SingularPointReport:
    """Rank behavior of the base projection plus the bend at the origin.

    Samples parameter circles of radius ``radius`` and ``2 * radius``.  For
    the double numbers, directions within the sector |a^2 - b^2| <
    0.2 (a^2 + b^2) around the null cone are excluded from the rank-2 check
    and listed separately (the base Jacobian genuinely degenerates there).
    The tangents are exact.  A NaN or infinity in the base rows (x, y) of
    a sample's tangents (say from overflowing powers), in its determinant
    or in its singular value ratio raises EvalDomainError naming its
    parameters, while other rows may overflow.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    kept, excluded = [], []
    for rho in (radius, 2.0 * radius):
        for i in range(samples):
            theta = 2.0 * math.pi * (i + 0.5) / samples
            a, b = rho * math.cos(theta), rho * math.sin(theta)
            if spec.kind is ZetaKind.PLUS and abs(a * a - b * b) < 0.2 * rho * rho:
                excluded.append((a, b))
            else:
                kept.append((a, b))
    if not kept:
        raise ValueError(f"all {2 * samples} sample directions fall in the "
                         "excluded null-cone sector; use more samples")

    # the kept samples, then the origin
    _, ta, tb = _family_columns(spec, *zip(*kept, (0.0, 0.0)), tangents=True)
    pos = _layout_pos(spec.k)
    px, py = pos["x"], pos["y"]

    # one 2x2 base block [[t_a[x], t_a[y]], [t_b[x], t_b[y]]] per kept sample
    base = np.vstack([ta[[px, py], :-1], tb[[px, py], :-1]])
    _require_finite("tangent of the family", base, kept)
    blocks = base.T.reshape(-1, 2, 2)
    ratios = _sigma_ratios(blocks)
    with np.errstate(all="ignore"):
        dets = np.linalg.det(blocks)
    _require_finite("determinant of the base projection",
                    np.vstack([dets, ratios]), kept)
    samples_out = list(zip(kept, dets.tolist(), ratios.tolist(),
                           passes("base_rank2", ratios).tolist()))

    ta0, tb0 = ta[:, -1], tb[:, -1]
    base_mag = float(max(abs(ta0[px]), abs(ta0[py]), abs(tb0[px]), abs(tb0[py])))
    rank0_ok = base_mag == 0.0

    bend = _origin_bend_basis(spec.k, (ta0, tb0))
    nf = normal_form(spec.k, spec.kind).basis_matrix()
    swapped = nf[::-1, :]  # reversing coefficients swaps x and y
    # one orthonormal basis of the bend serves both angles (span_angle's bits)
    qbend, qnf, qswapped = map(_span_basis, (bend, nf, swapped))
    angle = _orth_angle(qbend, qnf)
    angle_swapped = _orth_angle(qbend, qswapped)
    bend_ok = bool(passes("bend_angle", angle))

    unique = bool(all(ok for *_, ok in samples_out) and rank0_ok and
                  (bend_ok or spec.kind is ZetaKind.ZERO))
    return SingularPointReport(
        spec, radius, tuple(samples_out), tuple(excluded), base_mag, rank0_ok,
        float(angle), float(angle_swapped), bend_ok, unique)


# the op of zeta^(2j) for even and for odd j >= 1 (see _copy_plan)
_POWER_OPS = {ZetaKind.PLUS: ("", ""), ZetaKind.MINUS: ("", "-"), ZetaKind.ZERO: ("0", "0")}


def _copy_plan(spec: RManifoldSpec) -> list:
    """``(root, op)`` per cloud column, from ``(k, kind)`` alone: its text is
    the root's ``%.17g`` text as is (``""``), sign-flipped (``"-"``) or as
    the zero of its sign (``"0"``).  u_{k,0} is a, u_{k-1,1} is b, and
    u_{p,q} = zeta^(2j) u_{p+2j,q-2j}, j = q // 2, is j products by zeta^2
    in {1, -1, 0}, each exact for the finite values the writer lets through."""
    k, ops = spec.k, _POWER_OPS[spec.kind]
    column = {key: 2 + i for i, key in enumerate(layout_keys(k))}
    column[k, 0], column[k - 1, 1] = 0, 1
    plan = [(0, ""), (1, ""), (2, ""), (3, "")]
    for p, q in jet_indices(k):
        j, rest = divmod(q, 2)
        plan.append((column[p + 2 * j, rest], ops[j % 2] if j else ""))
    return plan


def write_point_cloud(spec: RManifoldSpec, params, path) -> None:
    """CSV with one row per parameter pair: a, b, x, y, u_{p,q} (graded-lex).

    ``params`` is an iterable of pairs or a ``(count, 2)`` array.  Every
    point is computed before the file is opened; a NaN or infinity (say
    from overflowing powers) raises EvalDomainError and writes nothing.

    Only the roots of ``_copy_plan`` are formatted with ``%.17g``; every
    other column's text is its root's, unchanged, with its leading ``-``
    flipped, or the zero ``0``/``-0`` of the root's sign.  The rows go out
    ``_BLOCK_ROWS`` at a time, each block formatted by one template and
    written in one call, so the writer holds one block's text beside the
    computed columns.
    """
    if not isinstance(params, np.ndarray):
        params = np.array([(float(a), float(b)) for a, b in params]).reshape(-1, 2)
    if params.ndim != 2 or params.shape[1] != 2:
        raise ValueError(f"parameter pairs need shape (count, 2), not {params.shape}")
    pairs = np.asarray(params, dtype=float)
    cols = _family_columns(spec, pairs[:, 0], pairs[:, 1])
    _require_finite("point of the family", cols, pairs)
    keys = jet_indices(spec.k)  # (k + 1)(k + 2)/2 of them: after the overflow check
    columns = [pairs[:, 0], pairs[:, 1], *cols]
    plan = _copy_plan(spec)
    roots = sorted({root for root, _ in plan})
    derived = {step for step in plan if step[1]}
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(["a", "b", "x", "y"]
                                    + [f"u_{{{p},{q}}}" for p, q in keys])
        for start in range(0, len(pairs), _BLOCK_ROWS):
            # root-major: the block's texts of the first root, then the next
            values = np.concatenate([columns[root][start:start + _BLOCK_ROWS]
                                     for root in roots]).tolist()
            rows = len(values) // len(roots)
            texts = (",".join(["%.17g"] * len(values)) % tuple(values)).split(",")
            text = {(root, ""): texts[n * rows:(n + 1) * rows] for n, root in enumerate(roots)}
            for root, op in derived:
                own = text[root, ""]
                text[root, op] = ([t[1:] if t[0] == "-" else "-" + t for t in own] if op == "-"
                                  else ["-0" if t[0] == "-" else "0" for t in own])
            # numbers need no CSV quoting: a row is 17-digit values joined
            # by commas, ended like the csv module's rows
            parts = [text[step] for step in plan]
            handle.write("\r\n".join(map(",".join, zip(*parts))) + "\r\n")
