"""Two-dimensional bend subspaces of homogeneous polynomials in (x, y).

A 2-dimensional subspace Q of the degree-k homogeneous polynomials is a
bend when some f of degree k+1 has f_x, f_y spanning Q together with a
second, non-proportional g whose derivatives also lie in Q.  Writing
g_x = alpha f_x + beta f_y and g_y = gamma f_x + delta f_y, equality of
cross derivatives forces

    gamma f_xx + (delta - alpha) f_xy - beta f_yy = 0,

and the trace-free part of [[alpha, beta], [gamma, delta]] squares to c*I
with c = ((alpha - delta)/2)^2 + beta*gamma; the sign of c attaches one of
the three two-dimensional algebras to the bend.  Normal forms are
Span(Re z^k, Im z^k) for z = x + zeta*y.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gates import GATES, _nullspace, _orth, _sigma_ratios, _unit_columns, passes
from .zeta import ZetaKind

__all__ = [
    "HomPoly",
    "BendSubspace",
    "poly_from_fiber_vector",
    "is_bend",
    "structure_matrix",
    "classify_bend",
    "normal_form",
    "prolong_bend",
    "span_angle",
]

_PROBE_SEED = 1729


@dataclass(frozen=True)
class HomPoly:
    """Homogeneous polynomial; coeffs[r] multiplies x^r y^(degree-r)."""

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.shape != (self.degree + 1,):
            raise ValueError("coefficient vector length must be degree + 1")

    def diff_x(self) -> "HomPoly":
        k = self.degree
        out = np.array([r * self.coeffs[r] for r in range(1, k + 1)])
        return HomPoly(k - 1, out)

    def diff_y(self) -> "HomPoly":
        k = self.degree
        out = np.array([(k - r) * self.coeffs[r] for r in range(k)])
        return HomPoly(k - 1, out)

    def __call__(self, x: float, y: float) -> float:
        k = self.degree
        return float(sum(c * x ** r * y ** (k - r)
                         for r, c in enumerate(self.coeffs)))

    def __str__(self):
        terms = []
        k = self.degree
        for r in range(k, -1, -1):
            c = self.coeffs[r]
            if c == 0.0:
                continue
            mono = "*".join((["x"] * 0 if r == 0 else [f"x^{r}" if r > 1 else "x"])
                            + ([f"y^{k - r}" if k - r > 1 else "y"] if k - r else []))
            terms.append(f"{c:g}" + (f"*{mono}" if mono else ""))
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class BendSubspace:
    degree: int
    q1: HomPoly
    q2: HomPoly
    witness: Optional[tuple] = None        # (f, g) in degree + 1
    matrix: Optional[tuple] = None         # (alpha, beta, gamma, delta)
    kind: Optional[ZetaKind] = None

    def basis_matrix(self) -> np.ndarray:
        return np.column_stack([self.q1.coeffs, self.q2.coeffs])


def poly_from_fiber_vector(k: int, components: dict) -> HomPoly:
    """Fiber tangent vector -> polynomial: d/du_{r,s} maps to x^r y^s/(r! s!)."""
    coeffs = np.zeros(k + 1)
    for r in range(k + 1):
        key = (r, k - r)
        if key not in components:
            raise KeyError(f"missing fiber component {key}")
        coeffs[r] = components[key] / (math.factorial(r) * math.factorial(k - r))
    return HomPoly(k, coeffs)


def span_angle(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest principal angle between the column spans.

    Below pi/4 it comes from the largest sine (Bjorck & Golub, Math. Comp.
    1973; Knyazev & Argentati, SIAM J. Sci. Comput. 2002): the arccos of a
    cosine near 1 resolves angles only down to about 1e-8.
    """
    return _orth_angle(_span_basis(basis_a), _span_basis(basis_b))


def _span_basis(m: np.ndarray) -> np.ndarray:
    """The orthonormal basis of the column span that ``span_angle`` measures."""
    return _orth(m, "span_rank", max(m.shape))


def _orth_angle(qa: np.ndarray, qb: np.ndarray) -> float:
    """``span_angle`` of two ``_span_basis`` bases."""
    if qa.shape[1] < qb.shape[1]:
        qa, qb = qb, qa
    cross = qa.T @ qb
    cos_min = np.linalg.svd(cross, compute_uv=False)[-1]
    if cos_min * cos_min >= 0.5:
        sin_max = np.linalg.svd(qb - qa @ cross, compute_uv=False)[0]
        return float(np.arcsin(min(sin_max, 1.0)))
    return float(np.arccos(min(cos_min, 1.0)))


def _derivative_matrices(degree: int) -> tuple:
    """Dx, Dy mapping degree coefficients to degree-1 coefficients."""
    dx = np.zeros((degree, degree + 1))
    dy = np.zeros((degree, degree + 1))
    for i in range(degree):
        dx[i, i + 1] = i + 1
        dy[i, i] = degree - i
    return dx, dy


def _prolongation_space(k: int, q1: HomPoly, q2: HomPoly) -> np.ndarray:
    """Basis of {h in P_{k+1} : h_x, h_y in span(q1, q2)} (columns)."""
    if q1.degree != k or q2.degree != k:
        raise ValueError("witness polynomials must have the stated degree")
    pair = {"q1": q1, "q2": q2}
    for name, q in pair.items():
        if not np.isfinite(q.coeffs).all():
            raise ValueError(f"{name} = {q} has a non-finite coefficient")
    span = np.column_stack([q1.coeffs, q2.coeffs])
    if not _unit_columns(span)[1]:
        raise ValueError("q1, q2 must be linearly independent")
    q, _ = np.linalg.qr(span)
    if not np.isfinite(q).all():  # a Householder step overflows near the largest float
        name = max(pair, key=lambda n: np.abs(pair[n].coeffs).max())
        raise ValueError(f"{name} = {pair[name]} is too large: its QR overflows")
    proj_out = np.eye(k + 1) - q @ q.T
    dx, dy = _derivative_matrices(k + 1)
    constraints = np.vstack([proj_out @ dx, proj_out @ dy])
    return _nullspace(constraints)


def _spanning_probe(space: np.ndarray, k: int):
    """A vector of the space whose derivative pair has rank 2, if any."""
    dx, dy = _derivative_matrices(k + 1)
    probes = [space[:, i] for i in range(space.shape[1])]
    rng = np.random.default_rng(_PROBE_SEED)
    for _ in range(8):
        w = rng.normal(size=space.shape[1])
        v = space @ w
        probes.append(v / np.linalg.norm(v))
    ratios = _sigma_ratios(np.stack([np.column_stack([dx @ v, dy @ v]) for v in probes]))
    best = int(np.argmax(ratios))  # the first of equal ratios
    return probes[best] if passes("probe_rank2", ratios[best]) else None


def _witness(k: int, space: np.ndarray):
    """Witness (f, g) in the prolongation space of a degree-k pair, or None."""
    if space.shape[1] < 2:
        return None
    f = _spanning_probe(space, k)
    if f is None:
        return None
    # second, non-proportional element: largest residual of the orthonormal
    # basis after projecting out f
    fhat = f / np.linalg.norm(f)
    residuals = space - np.outer(fhat, fhat @ space)
    col = int(np.argmax(np.linalg.norm(residuals, axis=0)))
    g = residuals[:, col]
    g = g / np.linalg.norm(g)
    return HomPoly(k + 1, f), HomPoly(k + 1, g)


def is_bend(k: int, q1: HomPoly, q2: HomPoly):
    """Decide bendhood; on success return the witness pair (f, g).

    The witness drawn from the prolongation space must also pass the span
    check of ``structure_matrix``, the one tolerance rule for witnesses,
    so ``structure_matrix`` accepts every witness returned here.
    """
    witness = _witness(k, _prolongation_space(k, q1, q2))
    if witness is None:
        return False, None
    try:
        structure_matrix(*witness)
    except ValueError:  # a near-bend outside the span check
        return False, None
    return True, witness


def structure_matrix(f: HomPoly, g: HomPoly) -> tuple:
    """(alpha, beta, gamma, delta) with g_x = alpha f_x + beta f_y etc.

    Solved by least squares on coefficient vectors; a residual failing the
    ``witness_span`` gate (1e-10 at the data's scale) rules the pair out.
    That bounds the cross-derivative identity gamma f_xx + (delta - alpha)
    f_xy - beta f_yy = 0: with r_x = alpha f_x + beta f_y - g_x and r_y
    alike, its left side is exactly d/dx r_y - d/dy r_x, and d/dx, d/dy
    scale each coefficient by at most k = deg f_x, so it is at most
    k * (res_x + res_y).
    """
    fx, fy = f.diff_x(), f.diff_y()
    gx, gy = g.diff_x(), g.diff_y()
    basis = np.column_stack([fx.coeffs, fy.coeffs])
    scale = 1.0 + float(np.linalg.norm(gx.coeffs) + np.linalg.norm(gy.coeffs))
    sol_x, *_ = np.linalg.lstsq(basis, gx.coeffs, rcond=None)
    sol_y, *_ = np.linalg.lstsq(basis, gy.coeffs, rcond=None)
    res_x = float(np.abs(basis @ sol_x - gx.coeffs).max())
    res_y = float(np.abs(basis @ sol_y - gy.coeffs).max())
    if not passes("witness_span", np.maximum(res_x, res_y), scale):
        raise ValueError("derivatives of g do not lie in span{f_x, f_y}")
    return (float(sol_x[0]), float(sol_x[1]),
            float(sol_y[0]), float(sol_y[1]))


def classify_bend(matrix, tol: float = GATES["bend_kind"].threshold):
    """Algebra kind of a structure matrix, plus its normalized generator.

    With B the trace-free part, B^2 = c*I for c = ((alpha-delta)/2)^2 +
    beta*gamma; c < 0, = 0, > 0 select the complex, dual and double
    numbers.  The generator is B/sqrt|c| when c is nonzero, B itself in the
    nilpotent case.  A non-finite entry, or a c that overflows, has no
    kind: it is a ValueError.
    """
    entries = tuple(float(v) for v in matrix)
    for name, value in zip(("alpha", "beta", "gamma", "delta"), entries):
        if not math.isfinite(value):
            raise ValueError(f"structure matrix entry {name} is not finite: {value!r}")
    alpha, beta, gamma, delta = entries
    size = max(abs(alpha), abs(beta), abs(gamma), abs(delta))  # floored at 1 by the gates
    if not passes("bend_nonscalar", max(abs(beta), abs(gamma), abs(alpha - delta)), size,
                  threshold=tol):
        raise ValueError("structure matrix is scalar: degenerate bend data")
    b = np.array([[(alpha - delta) / 2.0, beta],
                  [gamma, (delta - alpha) / 2.0]])
    try:
        c = ((alpha - delta) / 2.0) ** 2 + beta * gamma
    except OverflowError:  # the float power raises where a product gives inf
        c = math.inf + beta * gamma
    if not math.isfinite(c):
        raise ValueError(f"structure matrix invariant c = ((alpha - delta)/2)^2 + "
                         f"beta*gamma is not finite: {c!r}")
    if passes("bend_kind", -c, size, size, threshold=tol):
        return ZetaKind.MINUS, b / np.sqrt(-c)
    if passes("bend_kind", c, size, size, threshold=tol):
        return ZetaKind.PLUS, b / np.sqrt(c)
    return ZetaKind.ZERO, b


def normal_form(k: int, kind: ZetaKind) -> BendSubspace:
    """Span(Re z^k, Im z^k) for z = x + zeta*y."""
    if k < 2:
        raise ValueError("bends need degree k >= 2")
    s = kind.square
    re = np.zeros(k + 1)
    im = np.zeros(k + 1)
    for j in range(k + 1):
        coeff = math.comb(k, j)
        if j % 2 == 0:
            re[k - j] += coeff * s ** (j // 2)
        else:
            im[k - j] += coeff * s ** ((j - 1) // 2)
    return BendSubspace(k, HomPoly(k, re), HomPoly(k, im), kind=kind)


def prolong_bend(bend: BendSubspace) -> BendSubspace:
    """The bend one degree up: polynomials whose derivatives lie in the span.

    The result, span(f, g) for the input's witness (f, g), is a bend, so
    it is not tested again: H_x = a f + b g, H_y = c f + d g have equal
    mixed partials iff c = b gamma - d alpha and a = d beta - b delta, and
    then ad - bc = beta d^2 + (alpha - delta) b d - gamma b^2 is identically
    zero only for a scalar structure matrix, i.e. g proportional to f.
    """
    space = _prolongation_space(bend.degree, bend.q1, bend.q2)
    if _witness(bend.degree, space) is None:
        raise ValueError("input subspace is not a bend")
    if space.shape[1] != 2:
        raise ValueError(f"prolonged space has dimension {space.shape[1]}, "
                         "expected 2")
    k = bend.degree + 1
    q1 = HomPoly(k, space[:, 0])
    q2 = HomPoly(k, space[:, 1])
    witness = _witness(k, _prolongation_space(k, q1, q2))
    matrix = structure_matrix(*witness)
    kind, _ = classify_bend(matrix)
    return BendSubspace(k, q1, q2, witness=witness, matrix=matrix, kind=kind)
