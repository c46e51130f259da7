"""Arithmetic in the three two-dimensional real algebras C-, C0, C+.

An element is x + zeta*y where zeta^2 is -1 (complex), 0 (dual) or +1
(double numbers).  The kind travels on each value so a single code path
serves all three algebras.
"""

import enum
import math
from dataclasses import dataclass

from .expr import Expr

__all__ = [
    "ZetaKind",
    "ZetaNum",
    "frac_factorial",
    "zeta_laplace_residual",
    "cauchy_riemann_residual",
]


class ZetaKind(enum.Enum):
    MINUS = "minus"  # zeta^2 = -1
    ZERO = "zero"    # zeta^2 = 0
    PLUS = "plus"    # zeta^2 = +1

    @property
    def square(self) -> float:
        return {"minus": -1.0, "zero": 0.0, "plus": 1.0}[self.value]


@dataclass(frozen=True)
class ZetaNum:
    re: float
    im: float
    kind: ZetaKind

    def _check(self, other: "ZetaNum"):
        if self.kind is not other.kind:
            raise ValueError(f"kind mismatch: {self.kind} vs {other.kind}")

    def __add__(self, other: "ZetaNum") -> "ZetaNum":
        self._check(other)
        return ZetaNum(self.re + other.re, self.im + other.im, self.kind)

    def __sub__(self, other: "ZetaNum") -> "ZetaNum":
        self._check(other)
        return ZetaNum(self.re - other.re, self.im - other.im, self.kind)

    def __neg__(self) -> "ZetaNum":
        return ZetaNum(-self.re, -self.im, self.kind)

    def __mul__(self, other: "ZetaNum") -> "ZetaNum":
        self._check(other)
        s = self.kind.square
        return ZetaNum(self.re * other.re + s * self.im * other.im,
                       self.re * other.im + self.im * other.re,
                       self.kind)

    def conjugate(self) -> "ZetaNum":
        return ZetaNum(self.re, -self.im, self.kind)

    def __pow__(self, k: int) -> "ZetaNum":
        if k < 0:
            raise ValueError("negative powers are not defined here")
        out = ZetaNum(1.0, 0.0, self.kind)
        for _ in range(k):
            out = out * self
        return out


def frac_factorial(s: int, l: int) -> float:
    """(s + 1/l)! read as the product (1 + 1/l)(2 + 1/l)...(s + 1/l).

    Empty product (s = 0) is 1.  Used for the scaling constants of the
    singular solution families.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if l < 2:
        raise ValueError("l must be at least 2")
    out = 1.0
    for j in range(1, s + 1):
        out *= j + 1.0 / l
        if out == math.inf:
            break  # every further factor is above 1
    return out


def zeta_laplace_residual(f: Expr, point, kind: ZetaKind) -> float:
    """f_xx - zeta^2 * f_yy at the point (the zeta-Laplace operator)."""
    jet = f.eval_jet(point, 2)
    return jet.derivative((2, 0)) - kind.square * jet.derivative((0, 2))


def cauchy_riemann_residual(u: Expr, v: Expr, point, kind: ZetaKind):
    """Residual pair (u_x + zeta^2 v_y, u_y - zeta^2 v_x).

    Both components vanish exactly when u + zeta*v satisfies the
    zeta-Cauchy-Riemann system in the sign convention u_x = -zeta^2 v_y,
    u_y = zeta^2 v_x.  Note this convention differs from the one solved
    by powers of x + zeta*y (u_x = v_y, u_y = zeta^2 v_x) by v -> -v for
    zeta^2 = -1; for zeta^2 = +1 the two conventions select genuinely
    different function pairs.
    """
    ju = u.eval_jet(point, 1)
    jv = v.eval_jet(point, 1)
    s = kind.square
    ux, uy = ju.derivative((1, 0)), ju.derivative((0, 1))
    vx, vy = jv.derivative((1, 0)), jv.derivative((0, 1))
    return (ux + s * vy, uy - s * vx)
