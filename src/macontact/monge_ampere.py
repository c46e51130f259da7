"""Classical Monge-Ampere equations on the Darboux chart.

An equation N (u_xx u_yy - u_xy^2) + A u_xx + B u_xy + C u_yy + D = 0 is
described by five coefficient expressions in (x1, x2, u, p1, p2).  Its
discriminant is Delta = B^2 - 4AC + 4ND; the sign gives the type
(elliptic < 0, parabolic = 0, hyperbolic > 0).  The structure operator
frak_A on the contact distribution satisfies frak_A^2 = Delta * I, is
self-adjoint for the curvature pairing, and a twice-differentiable f
solves the equation at a base point exactly when the tangent plane of its
Legendrian lift is frak_A-invariant there.
"""

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import symplectic
from .contact import CHART_VARIABLES, ContactChart, DarbouxPoint, VectorFieldValue, curvature_gram
from .expr import EvalDomainError, Expr, _Lanes, parse
from .gates import GATES, passes
from .symplectic import ClassificationResult, Operator, SymplecticSpace

__all__ = [
    "EquationType",
    "MAEquation",
    "GridSpec",
    "darboux_space",
    "lift_point",
    "discriminant",
    "delta_type",
    "type_codes",
    "TYPE_NAMES",
    "classify",
    "structure_operator",
    "residual",
    "tangent_frame",
    "invariance_defect",
    "invariance_defects",
    "InvarianceReport",
    "basic_algebra",
    "BasicAlgebra",
    "classify_region",
    "RegionClassification",
    "legendre_swap",
    "legendre_swap_point",
]

class EquationType(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class MAEquation:
    """Coefficient expressions N, A, B, C, D over (x1, x2, u, p1, p2)."""

    N: Expr
    A: Expr
    B: Expr
    C: Expr
    D: Expr

    def __post_init__(self):
        for coeff in (self.N, self.A, self.B, self.C, self.D):
            if coeff.variables != CHART_VARIABLES:
                raise ValueError("coefficients must use the chart variables "
                                 f"{CHART_VARIABLES}")

    @classmethod
    def from_strings(cls, N="0", A="0", B="0", C="0", D="0") -> "MAEquation":
        return cls(*(parse(s, CHART_VARIABLES) for s in (N, A, B, C, D)))

    def coefficients_at(self, pt: DarbouxPoint) -> tuple:
        p = pt.as_tuple()
        return tuple(c.eval(p) for c in (self.N, self.A, self.B, self.C, self.D))


def darboux_space() -> SymplecticSpace:
    """The distribution frame with its curvature Gram matrix as pairing."""
    return SymplecticSpace(curvature_gram(ContactChart(), DarbouxPoint(0, 0, 0, 0, 0)))


def lift_point(f: Expr, base) -> DarbouxPoint:
    """Legendrian lift (x1, x2, f, f_x1, f_x2) of a base point."""
    jet = f.eval_jet(base, 1)
    return DarbouxPoint(base[0], base[1], jet.value,
                        jet.derivative((1, 0)), jet.derivative((0, 1)))


def discriminant(eq: MAEquation, pt: DarbouxPoint) -> float:
    n, a, b, c, d = eq.coefficients_at(pt)
    return b * b - 4.0 * a * c + 4.0 * n * d


# type codes of the Delta-to-type rule; ERROR marks a cell without a type
ERROR, ELLIPTIC, PARABOLIC, BAND, HYPERBOLIC = range(5)
TYPE_NAMES = (None, "elliptic", "parabolic", "band", "hyperbolic")


def type_codes(deltas, band: float) -> np.ndarray:
    """The Delta-to-type rule over a column of Delta values (or one value).

    An exact zero (either sign) is PARABOLIC and 0 < |Delta| <= band is
    BAND; otherwise the sign decides, negative being ELLIPTIC.  A
    non-finite Delta (say inf - inf from overflowing coefficients) has no
    sign to read, so it gets ERROR.
    """
    deltas = np.asarray(deltas, dtype=float)
    return np.select([~np.isfinite(deltas), deltas == 0.0,
                      passes("type_band", np.abs(deltas), threshold=band), deltas < 0.0],
                     [ERROR, PARABOLIC, BAND, ELLIPTIC], HYPERBOLIC).astype(np.int8)


_NON_FINITE = "non-finite discriminant {}"  # formatted with the float Delta


def delta_type(delta: float, band: float) -> str:
    """The type name of one Delta by ``type_codes``: 'elliptic',
    'parabolic', 'band' or 'hyperbolic'; a non-finite Delta is a domain
    error rather than a type."""
    code = int(type_codes(delta, band))
    if code == ERROR:
        raise EvalDomainError(_NON_FINITE.format(delta))
    return TYPE_NAMES[code]


def classify(eq: MAEquation, pt: DarbouxPoint,
             band: float = GATES["type_band"].threshold) -> EquationType:
    """Equation type at a point; the band around Delta = 0 counts as parabolic."""
    kind = delta_type(discriminant(eq, pt), band)
    return EquationType.PARABOLIC if kind == "band" else EquationType(kind)


def structure_operator(eq: MAEquation, pt: DarbouxPoint) -> Operator:
    """Structure operator in the frame (e1, e2, e3, e4) of the distribution."""
    return Operator(_structure_matrix(*eq.coefficients_at(pt)), darboux_space())


def _structure_matrix(n, a, b, c, d) -> np.ndarray:
    """The structure operator's matrix from coefficient values; from
    coefficient columns, one matrix per lane, shape (lanes, 4, 4)."""
    zero = np.zeros_like(b, dtype=float)
    rows = [
        [b, -2 * a, zero, -2 * n],
        [2 * c, -b, 2 * n, zero],
        [zero, 2 * d, b, 2 * c],
        [-2 * d, zero, -2 * a, -b],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def _jet_lift(jet) -> tuple:
    """(f, f1, f2, f11, f12, f22) from an order-2 jet of f, at one point
    or over lanes."""
    return (jet.value,) + tuple(jet.derivative(a) for a in
                                ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))


def residual(eq: MAEquation, f: Expr, base) -> float:
    """E = N (f11 f22 - f12^2) + A f11 + B f12 + C f22 + D at the lift:
    the one-point case of ``invariance_defects``."""
    return invariance_defect(eq, f, base).residual


def tangent_frame(f: Expr, base) -> tuple:
    """The two tangent fields of the Legendrian graph at the lifted point:

    Z1 = e1 + f11 e3 + f12 e4,  Z2 = e2 + f12 e3 + f22 e4.
    """
    u, p1, p2, f11, f12, f22 = _jet_lift(f.eval_jet(base, 2))
    pt = DarbouxPoint(base[0], base[1], u, p1, p2)
    z1 = VectorFieldValue((1.0, 0.0, p1, f11, f12), pt)
    z2 = VectorFieldValue((0.0, 1.0, p2, f12, f22), pt)
    return z1, z2


@dataclass(frozen=True)
class InvarianceReport:
    """Invariance defect, decomposition deviation and residual E: floats
    at one base point, arrays with one entry per point from
    ``invariance_defects``."""

    defect: float
    decomposition_deviation: float
    residual: float


_BASE_BLOCK = 4_096  # base points per pass of invariance_defects


def invariance_defect(eq: MAEquation, f: Expr, base) -> InvarianceReport:
    """How far the structure operator frak_A moves the tangent plane of the
    Legendrian graph.

    Z1, Z2 and e3, e4 form a basis of the distribution along the graph, so
    frak_A(Z_i) decomposes uniquely as a Z1 + b Z2 + c e3 + d e4; the defect
    is the larger Euclidean norm of the (c, d) parts.  For Z1 the
    decomposition is compared componentwise against

        frak_A(Z1) = (B - 2 f12 N) Z1 + 2 (C + f11 N) Z2 - 2 E e4,

    which holds identically (solution or not); the deviation is returned.
    This is the one-point case of ``invariance_defects``.
    """
    report = invariance_defects(eq, f, [base])
    return InvarianceReport(float(report.defect[0]),
                            float(report.decomposition_deviation[0]),
                            float(report.residual[0]))


def invariance_defects(eq: MAEquation, f: Expr, bases) -> InvarianceReport:
    """``invariance_defect`` at every base point (x1, x2), in passes over
    blocks of ``_BASE_BLOCK`` points, which bound the passes' temporaries.

    The report holds one array entry per point.  f is lifted by one
    order-2 jet pass over a block's points and N..D are evaluated as
    columns at the lifts.  Both give each point the bits of the scalar jet
    and ``Expr.eval``, or write the error they raise into the block's
    failure channel, where a point's first error wins (its jet's, then N..D
    in order); the lowest point's is raised before the next block, as a
    loop over the points would.  The rest is elementwise column arithmetic
    in the order of the one-point formulas, and the images under the
    stacked structure operators come from one ``np.matmul``, which makes
    per matrix the BLAS call of a single ``m @ z``; so every entry is
    bitwise the one-point value.
    """
    bases = np.asarray(bases, dtype=float)
    if bases.ndim != 2:
        raise ValueError("base points must be a sequence of (x1, x2) pairs")
    reports = []
    for start in range(0, max(len(bases), 1), _BASE_BLOCK):  # no points: one empty pass
        block = bases[start:start + _BASE_BLOCK]
        lanes = _Lanes(len(block))
        with np.errstate(all="ignore"):
            u, p1, p2, *values = _jet_lift(f._jets(tuple(block.T), 2, lanes))
            lift = (block[:, 0], block[:, 1], u, p1, p2)
            values += [coeff._columns(lift, lanes) for coeff in (eq.N, eq.A, eq.B, eq.C, eq.D)]
            lanes.raise_first()
            reports.append(_defect_columns(*values))
    return InvarianceReport(*map(np.concatenate, zip(*reports)))


def _defect_columns(f11, f12, f22, n, a, b, c, d) -> tuple:
    """The invariance report's columns (defect, deviation, residual) from
    columns of second derivatives and coefficients, in the order of the
    one-point formulas."""
    e_val = n * (f11 * f22 - f12 * f12) + a * f11 + b * f12 + c * f22 + d
    m = _structure_matrix(n, a, b, c, d)
    one, zero = np.ones_like(f11), np.zeros_like(f11)
    z1 = np.stack([one, zero, f11, f12], axis=-1)
    z2 = np.stack([zero, one, f12, f22], axis=-1)
    images = [np.matmul(m, z[..., None])[..., 0] for z in (z1, z2)]

    defect = 0.0
    for image in images:
        rem = image - image[:, :1] * z1 - image[:, 1:2] * z2
        norm = np.hypot(rem[:, 2], rem[:, 3])
        defect = np.where(norm > defect, norm, defect)  # max(defect, norm)

    predicted = ((b - 2 * f12 * n)[:, None] * z1 + (2 * (c + f11 * n))[:, None] * z2
                 - (2 * e_val)[:, None] * np.array([0.0, 0.0, 0.0, 1.0]))
    deviation = np.abs(images[0] - predicted).max(axis=-1)
    return defect, deviation, e_val


@dataclass(frozen=True)
class BasicAlgebra:
    identity: Operator
    generator: Operator
    classification: ClassificationResult
    jordan_closure_defect: float


def basic_algebra(eq: MAEquation, pt: DarbouxPoint,
                  tol: float = GATES["dim4_scalar"].threshold) -> BasicAlgebra:
    """span{I, frak_A} with its classification; requires frak_A non-scalar."""
    sp = darboux_space()
    op = structure_operator(eq, pt)
    result = symplectic.classify_dim4(sp, op, tol=tol)
    if result.type is symplectic.OperatorType.SCALAR:
        raise ValueError("structure_operator is scalar at this point: degenerate equation")
    # frak_A^2 = Delta * I holds exactly; classify_dim4 refuses
    # ||A||_F > 1e150, so every product is finite and the defect is roundoff
    square = symplectic.jordan_product(op, op).matrix
    closure = float(np.abs(square - discriminant(eq, pt) * np.eye(4)).max())
    return BasicAlgebra(Operator(np.eye(4), sp), op, result, closure)


# --- region classification ---------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Axes var -> (lo, hi, count); other chart variables sit at fixed values."""

    axes: dict
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in itertools.chain(self.axes, self.fixed):
            if name not in CHART_VARIABLES:
                raise ValueError(f"unknown chart variable {name!r}")
            if name in self.axes and name in self.fixed:
                raise ValueError(f"{name!r} is both a grid axis and fixed")
        for name, (lo, hi, count) in self.axes.items():
            if count < 0:
                raise ValueError(f"axis {name!r} has a negative count")
            # linspace needs a finite span hi - lo, not only finite bounds
            if not math.isfinite(hi - lo):
                raise ValueError(f"axis {name!r} needs finite bounds with a finite "
                                 f"span, got {lo!r}:{hi!r}")
        for name, value in self.fixed.items():
            if not math.isfinite(value):
                raise ValueError(f"fixed value of {name!r} must be finite, got {value!r}")

    def axis_names(self) -> list:
        return [v for v in CHART_VARIABLES if v in self.axes]

    def shape(self) -> tuple:
        """Cell counts along the axes, in the order of :meth:`axis_names`."""
        return tuple(self.axes[n][2] for n in self.axis_names())

    def size(self) -> int:
        return math.prod(self.shape())

    def axis_values(self, name: str) -> np.ndarray:
        lo, hi, count = self.axes[name]
        return np.linspace(lo, hi, count)

    def indices(self):
        """Cell indices in row-major order over the axes (last axis fastest)."""
        return itertools.product(*(range(count) for count in self.shape()))

    def axis_columns(self) -> tuple:
        """The five chart coordinates as arrays that broadcast to
        :meth:`shape`: an axis holds its values along its own dimension,
        e.g. shape (n1, 1) for the first of two axes, and a fixed variable
        is a 0-d float64, as is one that is neither an axis nor fixed, at 0.
        """
        names = self.axis_names()
        by_name = {n: self.axis_values(n).reshape([-1 if j == i else 1 for j in range(len(names))])
                   for i, n in enumerate(names)}
        return tuple(by_name.get(v, np.array(float(self.fixed.get(v, 0.0))))
                     for v in CHART_VARIABLES)


@dataclass(frozen=True)
class CellResult:
    index: tuple
    delta: Optional[float]
    type: Optional[str]
    error: Optional[str] = None


@dataclass(frozen=True, eq=False)
class RegionClassification:
    """The type map of a grid as arrays, one entry per cell in the
    row-major order of ``grid.indices()``: ``deltas`` (NaN on error
    cells), type ``codes`` (``TYPE_NAMES[code]``, ERROR on error cells)
    and the error text of each error cell by flat cell number."""

    grid: GridSpec
    band: float
    deltas: np.ndarray
    codes: np.ndarray
    errors: dict

    @property
    def error_fraction(self) -> float:
        size = len(self.codes)
        return len(self.errors) / size if size else 0.0

    @cached_property
    def cells(self) -> tuple:
        """One ``CellResult`` per cell, built on first use."""
        errors = self.errors
        return tuple(
            CellResult(idx, None, None, errors[i]) if i in errors
            else CellResult(idx, delta, TYPE_NAMES[code])
            for i, (idx, delta, code) in enumerate(zip(
                self.grid.indices(), self.deltas.tolist(), self.codes.tolist())))

    def grid_json_dict(self) -> dict:
        return {
            "axes": {n: list(self.grid.axes[n]) for n in self.grid.axis_names()},
            "fixed": dict(self.grid.fixed),
            "band": self.band,
        }


def classify_region(eq: MAEquation, grid: GridSpec,
                    band: float = GATES["type_band"].threshold) -> RegionClassification:
    """Pointwise type over the grid by ``type_codes``.

    The coefficients are evaluated over the grid's broadcast axes
    (``GridSpec.axis_columns``), each subexpression once per value of the
    axes it reads, and Delta is one array expression in the scalar
    operation order.  They write into one failure channel, where a cell's
    first error wins (N..D in order, then a non-finite Delta), so each
    value and error text is the one of the scalar ``discriminant`` and
    ``delta_type``.  The results are flat, in row-major cell order.
    """
    columns = grid.axis_columns()
    lanes = _Lanes(grid.shape())
    n, a, b, c, d = (coeff._columns(columns, lanes)
                     for coeff in (eq.N, eq.A, eq.B, eq.C, eq.D))
    with np.errstate(all="ignore"):
        deltas = b * b - 4.0 * a * c + 4.0 * n * d
    lanes.fail(~np.isfinite(deltas), _NON_FINITE, deltas)
    deltas, raised = deltas.ravel(), lanes.raised.ravel()
    codes = type_codes(deltas, band)
    codes[raised] = ERROR
    deltas[raised] = np.nan
    return RegionClassification(grid, band, deltas, codes, lanes.errors)


# --- a fixed contact transformation -------------------------------------------

def legendre_swap_point(pt: DarbouxPoint) -> DarbouxPoint:
    """Partial Legendre transform (x1, x2, u, p1, p2) -> (p1, x2, u - x1 p1, -x1, p2).

    Preserves the contact form du - p1 dx1 - p2 dx2 exactly.
    """
    return DarbouxPoint(pt.p1, pt.x2, pt.u - pt.x1 * pt.p1, -pt.x1, pt.p2)


def legendre_swap(eq: MAEquation) -> MAEquation:
    """The equation seen through the partial Legendre transform.

    Second derivatives of the transformed generating function g satisfy
    g11 = -1/f11, g12 = f12/f11, g22 = (f11 f22 - f12^2)/f11, so the
    coefficient tuple maps to (N, A, B, C, D) -> (-C, -D, B, N, A), composed
    with the inverse point substitution.  The discriminant is preserved.
    """
    x1 = Expr.var("x1", CHART_VARIABLES)
    x2 = Expr.var("x2", CHART_VARIABLES)
    u = Expr.var("u", CHART_VARIABLES)
    p1 = Expr.var("p1", CHART_VARIABLES)
    p2 = Expr.var("p2", CHART_VARIABLES)
    subs = {"x1": -p1, "x2": x2, "u": u - p1 * x1, "p1": x1, "p2": p2}
    return MAEquation(
        N=-(eq.C.subs(subs)),
        A=-(eq.D.subs(subs)),
        B=eq.B.subs(subs),
        C=eq.N.subs(subs),
        D=eq.A.subs(subs),
    )
