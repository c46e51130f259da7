"""Symplectic vector spaces and self-adjoint operators.

Self-adjointness is measured against a fixed antisymmetric Gram matrix J:
an operator A is self-adjoint when <Av, w> = <v, Aw> for the pairing
<v, w> = v^T J w, equivalently A^T J = J A.  Such operators are closed
under the Jordan product (AB + BA)/2, and every non-scalar one on a
4-dimensional space has a degree-2 minimal polynomial whose discriminant
sign splits the classification into elliptic / parabolic / hyperbolic.
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gates import GATES, _fix_signs, _nullspace, _orth, _unit_columns, passes

__all__ = [
    "SymplecticSpace",
    "Operator",
    "OperatorType",
    "ClassificationResult",
    "standard_space",
    "is_self_adjoint",
    "jordan_product",
    "cyclic_subspace",
    "classify_dim4",
    "is_lagrangian",
    "nilpotent_from_lagrangian",
    "direct_sum_operator",
]


@dataclass(frozen=True)
class SymplecticSpace:
    """Even-dimensional real vector space with Gram matrix J, <v,w> = v^T J w."""

    gram: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.gram, dtype=float)
        object.__setattr__(self, "gram", j)
        if j.ndim != 2 or j.shape[0] != j.shape[1] or j.shape[0] % 2:
            raise ValueError("Gram matrix must be square of even dimension")
        if not np.array_equal(j.T, -j):
            raise ValueError("Gram matrix must be antisymmetric")
        scale = np.abs(j).max()
        if scale == 0 or not passes("gram_nondegenerate", abs(np.linalg.det(j / scale))):
            raise ValueError("Gram matrix must be nondegenerate")

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def pairing(self, v, w) -> float:
        return float(np.asarray(v) @ self.gram @ np.asarray(w))


@dataclass(frozen=True)
class Operator:
    """A linear operator tied to a symplectic space."""

    matrix: np.ndarray
    space: SymplecticSpace

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError("operator dimension does not match its space")


class OperatorType(enum.Enum):
    SCALAR = "scalar"
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"


@dataclass(frozen=True)
class ClassificationResult:
    type: OperatorType
    minimal_polynomial: tuple  # (p, q) of t^2 + p t + q; (lambda,) for scalar
    eigenvalues: tuple
    complex_structure: Optional[np.ndarray] = None   # elliptic: B with B^2 = -I
    eigenplanes: Optional[tuple] = None              # hyperbolic: (basis1, basis2)
    lagrangian_plane: Optional[np.ndarray] = None    # parabolic: W = Ker = Im


def standard_space(n: int) -> SymplecticSpace:
    """Block form J[i, n+i] = 1, J[n+i, i] = -1."""
    if n < 1:
        raise ValueError("n must be positive")
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return SymplecticSpace(j)


def _refuse_non_finite(m: np.ndarray, entry: str) -> None:
    """Raise ValueError at the first NaN or infinity of ``m`` (row-major),
    naming its place as ``entry.format(i, j)``."""
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise ValueError(f"{entry.format(i, j)} is not finite: {float(m[i, j])!r}")


def _adjoint_defect(sp: SymplecticSpace, a: Operator) -> float:
    """max |A^T J - J A|, zero exactly for a self-adjoint A."""
    if a.space.dim != sp.dim:
        raise ValueError("operator and space dimensions differ")
    m, j = a.matrix, sp.gram
    return float(np.abs(m.T @ j - j @ m).max())


def is_self_adjoint(sp: SymplecticSpace, a: Operator,
                    tol: float = GATES["self_adjoint"].threshold) -> bool:
    """Whether A^T J = J A within ``tol``; a NaN or infinite entry of A
    raises ValueError."""
    _refuse_non_finite(a.matrix, "operator entry ({}, {})")
    return passes("self_adjoint", _adjoint_defect(sp, a), threshold=tol)


def jordan_product(a: Operator, b: Operator) -> Operator:
    if a.space.dim != b.space.dim:
        raise ValueError("operators live on different spaces")
    return Operator((a.matrix @ b.matrix + b.matrix @ a.matrix) / 2.0, a.space)


def cyclic_subspace(sp: SymplecticSpace, a: Operator, v) -> np.ndarray:
    """Orthonormal basis of Span{v, Av, A^2 v, ...} (columns)."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ValueError("cyclic subspace of the zero vector")
    cols = []
    w = v
    for _ in range(sp.dim):
        cols.append(w)
        w = a.matrix @ w
    return _fix_signs(_orth(np.column_stack(cols)))


def is_lagrangian(sp: SymplecticSpace, plane) -> bool:
    """True iff the two given vectors span a Lagrangian plane; both tests
    read the unit columns, so neither depends on the scale of a vector.
    A NaN or infinite entry of a vector raises ValueError."""
    p = np.column_stack([np.asarray(v, dtype=float) for v in plane])
    if p.shape[1] != 2:
        raise ValueError("a plane needs exactly two spanning vectors")
    _refuse_non_finite(p.T, "plane vector {} entry {}")
    p, independent = _unit_columns(p)
    if not independent:
        raise ValueError("plane vectors are linearly dependent")
    if sp.dim != 4:
        return False
    return passes("lagrangian", abs(sp.pairing(p[:, 0], p[:, 1])))


def classify_dim4(sp: SymplecticSpace, a: Operator,
                  tol: float = GATES["dim4_scalar"].threshold,
                  band: Optional[float] = None) -> ClassificationResult:
    """Classify a self-adjoint operator on a 4-dimensional symplectic space.

    The minimal polynomial t^2 + p t + q has p = -tr A / 2 and
    q = -(p tr A + tr A^2) / 4, as every eigenvalue of a self-adjoint
    operator has even multiplicity; its discriminant d = p^2 - 4q decides:

    * d < -band: elliptic, with B = (A - (-p/2) I) / sqrt(-d/4) a complex
      structure (B^2 = -I);
    * d > band: hyperbolic, with the two eigenplanes Ker(A - lambda_i I);
    * |d| <= band: parabolic, with the Lagrangian plane
      W = Ker(A - lambda I) = Im(A - lambda I).

    ``tol`` is the threshold of the self-adjoint, scalar and minimal-
    polynomial gates, ``band`` that of ``dim4_band`` (README "Gates").
    """
    if sp.dim != 4:
        raise ValueError("classification implemented for dimension 4 only")
    if band is not None and not (math.isfinite(band) and band >= 0):
        # below 0 a parabolic d passes the elliptic test; a NaN passes none
        raise ValueError(f"band must be finite and at least 0, got {band!r}")
    m = a.matrix
    _refuse_non_finite(m, "operator entry ({}, {})")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
    if not passes("dim4_norm", norm):  # above it ||A||^2 or A^2 overflows
        raise ValueError(f"operator too large to classify: ||A||_F = {norm!r} "
                         f"exceeds {GATES['dim4_norm'].threshold:g}, so ||A||^2 and A^2 "
                         "overflow")
    if not passes("dim4_self_adjoint", _adjoint_defect(sp, a), norm, threshold=tol):
        raise ValueError("operator is not self-adjoint within tolerance")

    lam = float(np.trace(m)) / 4.0
    if passes("dim4_scalar", float(np.abs(m - lam * np.eye(4)).max()), norm, threshold=tol):
        return ClassificationResult(OperatorType.SCALAR, (lam,), (lam,))

    square = m @ m
    trace = float(np.trace(m))
    p = -trace / 2.0
    q = -(p * trace + float(np.trace(square))) / 4.0
    resid = float(np.abs(square + p * m + q * np.eye(4)).max())
    if not passes("dim4_min_poly", resid, norm ** 2, threshold=tol):
        raise ValueError("A^2 is not in span{I, A}: input is not a "
                         "self-adjoint operator of a 4-dim symplectic space")
    disc = p * p - 4.0 * q
    bands = () if band is not None else (norm ** 2,)  # a given band is absolute

    if passes("dim4_band", -disc, *bands, threshold=band):
        re, im = -p / 2.0, np.sqrt(-disc) / 2.0
        b = (m - re * np.eye(4)) / im
        return ClassificationResult(
            OperatorType.ELLIPTIC, (p, q),
            (complex(re, im), complex(re, -im)),
            complex_structure=b)

    if passes("dim4_band", disc, *bands, threshold=band):
        root = np.sqrt(disc)
        l1, l2 = (-p - root) / 2.0, (-p + root) / 2.0
        planes = tuple(_nullspace(m - l * np.eye(4)) for l in (l1, l2))
        return ClassificationResult(
            OperatorType.HYPERBOLIC, (p, q), (l1, l2), eigenplanes=planes)

    lam = -p / 2.0
    w = _nullspace(m - lam * np.eye(4))
    if w.shape[1] != 2:
        raise ValueError(f"parabolic eigenspace has dimension {w.shape[1]}, "
                         "expected 2")
    return ClassificationResult(
        OperatorType.PARABOLIC, (p, q), (lam, lam), lagrangian_plane=w)


def nilpotent_from_lagrangian(sp: SymplecticSpace, w_plane, u_plane) -> Operator:
    """Self-adjoint B with B^2 = 0 and Ker B = W, built from a complement U.

    For u in U the image B(u) is taken in the line l_u = (symplectic
    orthogonal of u) restricted to W; the two free scales are matched so the
    cross pairing <u1, B u2> + <u2, B u1> vanishes, which is exactly
    self-adjointness.  W must be Lagrangian and U a non-Lagrangian
    complement.
    """
    w1, w2 = (np.asarray(v, dtype=float) for v in w_plane)
    u1, u2 = (np.asarray(v, dtype=float) for v in u_plane)
    if not is_lagrangian(sp, (w1, w2)):
        raise ValueError("W is not a Lagrangian plane")
    full = np.column_stack([u1, u2, w1, w2])
    if not passes("complement", abs(np.linalg.det(full)), np.abs(full).max() ** 4):
        raise ValueError("U is not complementary to W")
    if is_lagrangian(sp, (u1, u2)):
        raise ValueError("U must be non-Lagrangian for the line construction")

    def line_in_w(u):
        # w = a w1 + b w2 with <u, w> = 0
        g1, g2 = sp.pairing(u, w1), sp.pairing(u, w2)
        if not passes("pairing_nonzero", np.abs([g1, g2])).any():
            raise ValueError("symplectic orthogonal of u contains all of W")
        return -g2 * w1 + g1 * w2

    b1, b2 = line_in_w(u1), line_in_w(u2)
    # scales (s, t) with s <u2, b1> + t <u1, b2> = 0
    c1, c2 = sp.pairing(u2, b1), sp.pairing(u1, b2)
    s, t = (c2, -c1) if passes("pairing_nonzero", np.abs([c1, c2])).any() else (1.0, 1.0)
    images = np.column_stack([s * b1, t * b2,
                              np.zeros(sp.dim), np.zeros(sp.dim)])
    b = images @ np.linalg.inv(full)
    return Operator(b, sp)


def direct_sum_operator(f) -> Operator:
    """Block operator diag(F, F^T) on the standard space; always self-adjoint."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError("F must be a square matrix")
    n = f.shape[0]
    sp = standard_space(n)
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = f
    m[n:, n:] = f.T
    return Operator(m, sp)
