"""Contact structure of the 5-dimensional Darboux chart (x1, x2, u, p1, p2).

The contact form is omega = du - p1 dx1 - p2 dx2.  The distribution D is
framed by

    e1 = d/dx1 + p1 d/du,  e2 = d/dx2 + p2 d/du,  e3 = d/dp1,  e4 = d/dp2,

and the normal direction is trivialized by d/du, so a vector field Z has
generating function omega(Z).  Vector fields at a point are handled as
5-tuples of jets in the chart coordinates; commutators are computed by jet
arithmetic (exact for polynomial data), never by symbolic differentiation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .expr import Expr, Jet, _coordinate, _partial_table, _product
from .gates import GATES, passes

__all__ = [
    "CHART_VARIABLES",
    "ContactChart",
    "DarbouxPoint",
    "VectorFieldValue",
    "contact_form_value",
    "curvature_gram",
    "contact_field",
    "contact_field_jets",
    "frame_field_jets",
    "bracket_fields",
    "omega_of_field",
    "is_contact_field",
    "lagrange_bracket",
]

CHART_VARIABLES = ("x1", "x2", "u", "p1", "p2")

# component order of vector fields in the coordinate frame
_DX1, _DX2, _DU, _DP1, _DP2 = range(5)


@dataclass(frozen=True)
class ContactChart:
    """Darboux chart with n independent variables (only n = 2 supported)."""

    n: int = 2

    def __post_init__(self):
        if self.n != 2:
            raise ValueError("only the 5-dimensional chart (n = 2) is supported")

    @property
    def variables(self) -> tuple:
        return CHART_VARIABLES


@dataclass(frozen=True)
class DarbouxPoint:
    x1: float
    x2: float
    u: float
    p1: float
    p2: float

    def as_tuple(self) -> tuple:
        return (self.x1, self.x2, self.u, self.p1, self.p2)


@dataclass(frozen=True)
class VectorFieldValue:
    """Coordinate components (d/dx1, d/dx2, d/du, d/dp1, d/dp2) at a point."""

    components: tuple
    point: DarbouxPoint

    def as_array(self) -> np.ndarray:
        return np.array(self.components, dtype=float)


def _components(z) -> tuple:
    if isinstance(z, VectorFieldValue):
        return z.components
    return tuple(z)


def contact_form_value(pt: DarbouxPoint, z) -> float:
    """omega(Z) = Z_u - p1 Z_x1 - p2 Z_x2 at the point."""
    c = _components(z)
    return c[_DU] - pt.p1 * c[_DX1] - pt.p2 * c[_DX2]


def curvature_gram(chart: ContactChart, pt: DarbouxPoint) -> np.ndarray:
    """Gram matrix of the curvature R(X, Y) = omega([X, Y]) on the frame.

    With omega = du - p1 dx1 - p2 dx2 this is constant in the chart:
    R(e1, e3) = R(e2, e4) = -1, antisymmetric, zeros elsewhere.
    """
    j = np.zeros((4, 4))
    j[0, 2] = j[1, 3] = -1.0
    j[2, 0] = j[3, 1] = 1.0
    return j


# --- jet-level vector fields -------------------------------------------------

def frame_field_jets(pt: DarbouxPoint, order: int) -> list:
    """The four frame fields of D as jet fields at the point."""
    base = pt.as_tuple()
    zero = Jet.constant(0.0, base, order)
    one = Jet.constant(1.0, base, order)
    p1 = Jet.variable(_DP1, base, order)
    p2 = Jet.variable(_DP2, base, order)
    return [
        [one, zero, p1, zero, zero],
        [zero, one, p2, zero, zero],
        [zero, zero, zero, one, zero],
        [zero, zero, zero, zero, one],
    ]


def field_jets_from_exprs(field, pt: DarbouxPoint, order: int) -> list:
    """Evaluate a 5-tuple of component expressions into a jet field."""
    return [c.eval_jet(pt.as_tuple(), order) for c in field]


def contact_field_jets(nu: Expr, pt: DarbouxPoint, order: int) -> list:
    """Jet field of the contact vector field with generating function nu; the
    partials come from one gather, the four products from one ``_product``."""
    jet = nu.eval_jet(pt.as_tuple(), order + 1)
    rows, factors = _partial_table(5, order + 1)
    with np.errstate(all="ignore"):  # IEEE overflow, as with Python floats
        d = jet.data[rows] * factors  # d[i] is the i-th partial
        p = [_coordinate(d[0], jet.base, i) for i in (_DP1, _DP2)]
        terms = _product(np.stack(p + p, axis=1),
                         np.stack([d[_DP1], d[_DP2], d[_DU], d[_DU]], axis=1), 5, order)
        field = [-d[_DP1], -d[_DP2], jet.data[:len(d[0])] - terms[:, 0] - terms[:, 1],
                 d[_DX1] + terms[:, 2], d[_DX2] + terms[:, 3]]
    return [Jet(jet.base, order, data) for data in field]


def bracket_fields(x_field: list, y_field: list) -> list:
    """Commutator [X, Y] of jet fields; the jet order drops by one.

    Component i is the sum over j of X_j d_j Y_i - Y_j d_j X_i.  Both
    fields are stacked, every partial of every component comes from one
    gather, and the 25 terms X_j d_j Y_i, then the 25 terms Y_j d_j X_i,
    are one ``_product`` call, lane (i, j) holding one term.  The sums
    add the terms in the order of the jet arithmetic ``acc + P - Q`` for
    j = 0..4, so every coefficient has the bits of that arithmetic.
    """
    first = x_field[0]
    for jet in (*x_field, *y_field):
        first._check(jet)
    if first.order < 1:
        raise ValueError("order-0 jet cannot be differentiated")
    n, order = first.n, first.order - 1
    rows, factors = _partial_table(n, first.order)
    lanes = first.data.shape[1:]
    factors = factors.reshape(factors.shape + (1,) * (1 + len(lanes)))
    # (row, component) stacks; b[rows] * factors is (j, row, i) = d_j B_i
    x, y = (np.stack([jet.data for jet in field], axis=1) for field in (x_field, y_field))
    terms = []
    with np.errstate(all="ignore"):  # IEEE overflow, as with Python floats
        for a, b in ((x, y), (y, x)):
            low = a[:len(rows[0])]
            left = np.broadcast_to(low[:, None], low.shape[:1] + (5,) + low.shape[1:])
            terms.append(_product(left, np.moveaxis(b[rows] * factors, 0, 2), n, order))
        acc = np.zeros(terms[0].shape[:2] + lanes)
        for j in range(5):
            acc = acc + terms[0][:, :, j]
            acc = acc + (-terms[1][:, :, j])
    return [Jet(first.base, order, acc[:, i]) for i in range(5)]


def omega_of_field(pt: DarbouxPoint, field: list) -> float:
    """omega applied to a jet field, evaluated at the base point."""
    return contact_form_value(pt, [jet.value for jet in field])


# --- operations ---------------------------------------------------------------

def contact_field(chart: ContactChart, nu: Expr, pt: DarbouxPoint) -> VectorFieldValue:
    """The contact vector field X_nu evaluated at the point.

    Components in the coordinate frame:
    (-nu_p1, -nu_p2, nu - p1 nu_p1 - p2 nu_p2, nu_x1 + p1 nu_u, nu_x2 + p2 nu_u).
    By construction omega(X_nu) = nu and [e_i, X_nu] stays in D.
    """
    jet = nu.eval_jet(pt.as_tuple(), 1)
    n_val = jet.value
    n_x1, n_x2 = jet.derivative((1, 0, 0, 0, 0)), jet.derivative((0, 1, 0, 0, 0))
    n_u = jet.derivative((0, 0, 1, 0, 0))
    n_p1, n_p2 = jet.derivative((0, 0, 0, 1, 0)), jet.derivative((0, 0, 0, 0, 1))
    comps = (
        -n_p1,
        -n_p2,
        n_val - pt.p1 * n_p1 - pt.p2 * n_p2,
        n_x1 + pt.p1 * n_u,
        n_x2 + pt.p2 * n_u,
    )
    return VectorFieldValue(comps, pt)


def is_contact_field(chart: ContactChart, field, points,
                     tol: float = GATES["contact_field"].threshold) -> bool:
    """Check [e_i, Z] in D for every frame field at every sample point; an
    empty point set, or a NaN or infinite coordinate of a sample point, is
    a ValueError, since the check would decide nothing."""
    points = list(points)
    if not points:
        raise ValueError("is_contact_field needs a sample point: the point set is empty")
    for pt in points:
        for name, value in zip(CHART_VARIABLES, pt.as_tuple()):
            if not math.isfinite(value):
                raise ValueError(f"sample point coordinate {name} must be finite, not {value!r}")
    for pt in points:
        z = field_jets_from_exprs(field, pt, 1)
        for e in frame_field_jets(pt, 1):
            br = bracket_fields(e, z)
            if not passes("contact_field", abs(omega_of_field(pt, br)), threshold=tol):
                return False
    return True


def lagrange_bracket(chart: ContactChart, mu: Expr, nu: Expr,
                     pt: DarbouxPoint) -> float:
    """{mu, nu}(pt) = omega([X_mu, X_nu]) at the point."""
    x_mu = contact_field_jets(mu, pt, 1)
    x_nu = contact_field_jets(nu, pt, 1)
    return omega_of_field(pt, bracket_fields(x_mu, x_nu))
