"""Expression mini-language and truncated Taylor (jet) arithmetic.

The grammar (EBNF)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" integer)?
    base   := number | ident | ident "(" expr ")" | "(" expr ")" | "-" base

The tokens are ASCII: identifiers match ``[a-zA-Z_][a-zA-Z0-9_]*`` and
numbers are digits 0-9 with an optional fraction and exponent (``2.5e-3``).
Known functions are sin, cos, exp, ln and sqrt; every other identifier
must name a declared variable.
Exponents are integers of at most MAX_EXPONENT in absolute value; a power
is repeated multiplication.  Division by anything whose value (or jet
constant term) is zero is a domain error, never a NaN.

Jets are truncated multivariate Taylor expansions.  The coefficient stored
for a multi-index ``alpha`` is the partial derivative divided by
``alpha!``, so the order-0 coefficient equals the plain function value.
Multi-indices are ordered graded-lexicographically.
"""

import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ParseError",
    "EvalDomainError",
    "Expr",
    "Jet",
    "parse",
    "multi_indices",
]

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")
MAX_DEPTH = 250  # deepest nesting the parser accepts (README)
MAX_EXPONENT = 1000  # largest |k| of a power x^k the parser accepts (README)


class ParseError(ValueError):
    """Syntax or name error, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """Evaluation left a function's domain (log of nonpositive, 1/0, ...)."""


# --- AST nodes -------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    child: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


# --- multi-indices ---------------------------------------------------------

@lru_cache(maxsize=None)
def multi_indices(n: int, order: int) -> tuple:
    """All multi-indices with ``|alpha| <= order`` in graded-lex order."""
    if n == 0:
        return ((),)  # over no variables only the constant term is left
    idx = []
    for degree in range(order + 1):
        block = []
        def exact(prefix, left, slots):
            if slots == 1:
                block.append(tuple(prefix + [left]))
                return
            for v in range(left + 1):
                exact(prefix + [v], left - v, slots - 1)
        exact([], degree, n)
        block.sort()
        idx.extend(block)
    return tuple(idx)


def _factorial_multi(alpha) -> float:
    out = 1.0
    for a in alpha:
        out *= math.factorial(a)
    return out


# --- jets ------------------------------------------------------------------

@lru_cache(maxsize=None)
def _positions(n: int, order: int) -> dict:
    """Row of each multi-index in ``multi_indices(n, order)``."""
    return {alpha: k for k, alpha in enumerate(multi_indices(n, order))}


@lru_cache(maxsize=None)
def _product_table(n: int, order: int) -> tuple:
    """Rows (left, right, target) of every product term of two jets.

    The pairs run over the left row and, inside it, over the right row, each
    in multi-index order, keeping those whose degrees add up to at most the
    order; the rows of degree at most ``d`` are a prefix of the index list.
    """
    indices = multi_indices(n, order)
    idx = np.array(indices, dtype=np.intp).reshape(len(indices), n)
    degree = idx.sum(axis=1)
    prefix = np.searchsorted(degree, np.arange(order + 1), side="right")
    counts = prefix[order - degree]
    left = np.repeat(np.arange(len(idx)), counts)
    right = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    # multi-indices as numbers in base order + 1, to find each sum's row
    radix = (order + 1) ** np.arange(n)
    keys = idx @ radix
    rank = np.argsort(keys)
    target = rank[np.searchsorted(keys, (idx[left] + idx[right]) @ radix, sorter=rank)]
    return left, right, target


@lru_cache(maxsize=None)
def _partial_table(n: int, order: int, i: int) -> tuple:
    """Rows of the order-``order`` jet feeding its i-th partial, with factors."""
    pos = _positions(n, order)
    rows, factors = [], []
    for beta in multi_indices(n, order - 1):
        rows.append(pos[tuple(b + (1 if j == i else 0) for j, b in enumerate(beta))])
        factors.append(beta[i] + 1)
    return np.array(rows, dtype=np.intp), np.array(factors, dtype=float)


def _point(base) -> tuple:
    """A base point: floats, or float64 arrays with one entry per lane."""
    return tuple(b if isinstance(b, np.ndarray) else float(b) for b in base)


def _zero_jet(base, order: int) -> "Jet":
    base = _point(base)
    lanes = np.shape(base[0]) if base else ()
    return Jet(base, order, np.zeros((len(multi_indices(len(base), order)),) + lanes))


def _same_point(a, b) -> bool:
    if a is b:
        return True
    if len(a) != len(b):
        return False
    if a and isinstance(a[0], np.ndarray):
        return all(x is y or np.array_equal(x, y) for x, y in zip(a, b))
    return a == b


class Jet:
    """Degree-``order`` Taylor truncation of a function at base points.

    ``data`` is a dense float64 array with one row per multi-index of
    ``multi_indices(n, order)``.  A jet at one point (a base of floats)
    is the one-lane case, a 1-D array; a jet over lanes (a base of n
    arrays, one entry per point, as ``Expr._jets`` builds) has one column
    per lane.  Every operation acts on all lanes at once with
    the float64 operations the one-point case performs, so each lane is
    bitwise the jet at its point.  Products are truncated at the order, so a Jet is an element of
    the truncated polynomial ring and all ring identities hold exactly up
    to floating point roundoff.  Arithmetic may overflow to inf or NaN;
    the library runs it under ``np.errstate``, so numpy does not warn.

    ``value``, ``coefficient``, ``derivative`` and ``coeffs`` give Python
    floats at one point and one array per coefficient over lanes.
    """

    __slots__ = ("base", "n", "order", "data")

    def __init__(self, base, order, coeffs):
        """``coeffs``: the data array, one row per multi-index."""
        self.base = tuple(base)
        self.n = len(self.base)
        self.order = int(order)
        self.data = np.asarray(coeffs, dtype=float)

    @classmethod
    def constant(cls, value, base, order):
        return _zero_jet(base, order)._constant(value)

    @classmethod
    def variable(cls, i, base, order):
        return _zero_jet(base, order)._variable(i)

    def _constant(self, value) -> "Jet":
        """The constant ``value`` at this jet's base point and order."""
        data = np.zeros_like(self.data)
        data[0] = value
        return Jet(self.base, self.order, data)

    def _variable(self, i: int) -> "Jet":
        """The i-th coordinate at this jet's base point and order."""
        out = self._constant(self.base[i])
        if self.order >= 1:
            out.data[self.n - i] = 1.0  # degree-1 rows run from e_(n-1) to e_0
        return out

    # -- accessors

    def _entry(self, row):
        return float(row) if self.data.ndim == 1 else row

    @property
    def value(self):
        return self._entry(self.data[0])

    @property
    def coeffs(self) -> dict:
        """Multi-index -> coefficient, in multi-index order."""
        rows = self.data.tolist() if self.data.ndim == 1 else list(self.data)
        return dict(zip(multi_indices(self.n, self.order), rows))

    def coefficient(self, alpha):
        return self._entry(self.data[_positions(self.n, self.order)[tuple(alpha)]])

    def derivative(self, alpha):
        """Partial derivative for the multi-index (coefficient times alpha!)."""
        alpha = tuple(alpha)
        if sum(alpha) > self.order:
            raise ValueError(f"jet of order {self.order} has no derivative {alpha}")
        return self.coefficient(alpha) * _factorial_multi(alpha)

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot truncate upward")
        return Jet(self.base, order, self.data[:len(multi_indices(self.n, order))])

    def partial(self, i: int) -> "Jet":
        """Jet of the i-th partial derivative; the order drops by one."""
        if self.order < 1:
            raise ValueError("order-0 jet cannot be differentiated")
        rows, factors = _partial_table(self.n, self.order, i)
        # lanes are columns and the factors scale rows
        return Jet(self.base, self.order - 1, (self.data[rows].T * factors).T)

    # -- ring operations

    def _check(self, other):
        if self.order != other.order or not _same_point(self.base, other.base):
            raise ValueError("jet base point / order mismatch")

    def _lift(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return other
        return self._constant(other)

    def __add__(self, other):
        other = self._lift(other)
        return Jet(self.base, self.order, self.data + other.data)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.base, self.order, -self.data)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.base, self.order, self.data * other)
        self._check(other)
        left, right, target = _product_table(self.n, self.order)
        a, b = self.data[left], other.data[right]
        # Each coefficient is 0.0 plus its terms in table order, skipping a
        # term with a zero factor (so 0 * inf adds nothing): a skipped term
        # is -0.0, the addend that leaves every sum, signed zeros included,
        # as it was, and its product is never formed.
        terms = np.full_like(a, -0.0)
        np.multiply(a, b, out=terms, where=(a != 0.0) & (b != 0.0))
        rows = len(self.data)
        if terms.ndim == 1:
            data = np.bincount(target, terms, minlength=rows)
        else:
            # flat (row, lane) positions, term by term and lane by lane
            lanes = terms.shape[1]
            flat = (target[:, None] * lanes + np.arange(lanes)).ravel()
            data = np.bincount(flat, terms.ravel(), minlength=rows * lanes).reshape(rows, lanes)
        return Jet(self.base, self.order, data)

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        return self.divide(other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k: int):
        return self.power(k)

    # ``lanes`` (the failure channel ``_Lanes`` of a batch) records the lanes
    # that raise instead of raising; ``Expr._jets`` passes it.

    def divide(self, other, lanes=None) -> "Jet":
        """``self / other``; dividing by a zero constant term raises."""
        other = self._lift(other)
        if self.order == 0:
            # keep order-0 jets bitwise identical to plain evaluation
            _series_for("1/x", other.value, 0, lanes)  # fails where other is 0
            return self._constant(self.value / other.value)
        return self * other.reciprocal(lanes)

    def power(self, k: int, lanes=None) -> "Jet":
        """Integer power by repeated multiplication, as ``Expr.eval`` does."""
        if not isinstance(k, int):
            raise TypeError("jet exponent must be an integer")
        if k < 0:
            return self.reciprocal(lanes).power(-k)
        out = self._constant(1.0)
        for _ in range(k):
            out = out * self
        return out

    def reciprocal(self, lanes=None) -> "Jet":
        return self.compose_series(_series_for("1/x", self.value, self.order, lanes))

    def apply(self, func: str, lanes=None) -> "Jet":
        """``func`` (one of FUNCTIONS) of the jet; leaving its domain raises."""
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function {func!r}")
        return self.compose_series(_series_for(func, self.value, self.order, lanes))

    def compose_series(self, series) -> "Jet":
        """Apply a univariate Taylor series g (coefficients around value)."""
        t = self - self.value
        out = self._constant(series[self.order])
        for m in range(self.order - 1, -1, -1):
            out = out * t + series[m]
        return out

    def __repr__(self):
        lanes = "" if self.data.ndim == 1 else f", lanes={self.data.shape[1]}"
        base = f"n={self.n}" if lanes else f"base={self.base}"
        return f"Jet(order={self.order}, {base}{lanes})"


_LOG_MAX = math.log(sys.float_info.max)  # exp of the next double overflows

# function -> (math call, where an argument leaves the domain, error text
# formatted with the argument).  Each predicate takes a Python float or a
# float64 column alike; ``x - x`` is NaN exactly for an infinity or a NaN,
# where math.sin raises a bare ValueError.
_FUNCS = {
    "sin": (math.sin, lambda x: x - x != 0.0, "sin of non-finite value {}"),
    "cos": (math.cos, lambda x: x - x != 0.0, "cos of non-finite value {}"),
    "exp": (math.exp, lambda x: (x > _LOG_MAX) & (x < math.inf),
            "evaluation overflow: math range error"),
    "ln": (math.log, lambda x: x <= 0.0, "ln of nonpositive value {}"),
    "sqrt": (math.sqrt, lambda x: x < 0.0, "sqrt of negative value {}"),
}


def _fail(lanes, mask, text: str, arg=None):
    """Before an operation: the lanes of ``mask`` fail with ``text``,
    formatted with their ``arg`` if given.  They are recorded in the
    ``_Lanes`` ``lanes``; at one point (``mask`` a bool) the error raises."""
    if lanes is not None:
        lanes.fail(mask, text, arg)
    elif mask:
        raise EvalDomainError(text if arg is None else text.format(arg))


def _call(func: str, x, lanes=None):
    """``func`` of one float by its ``_FUNCS`` entry, or of a column by the
    same ``math`` call lane by lane; a lane that failed reads 0.0."""
    call, outside, text = _FUNCS[func]
    _fail(lanes, outside(x), text, x)
    if lanes is None:
        return call(x)
    out = np.array(list(map(call, np.where(lanes.raised, 1.0, x).tolist())))
    out[lanes.raised] = 0.0  # they computed 1.0, which is in every domain
    return out


def _pow(x, m: int, lanes=None):
    """Python's ``x ** m`` of one float or lane by lane (numpy's power
    differs on some lanes); where it overflows, it fails with Python's text."""
    text = None
    def power(v):
        nonlocal text
        try:
            return v ** m
        except OverflowError as exc:
            text = f"evaluation overflow: {exc}"
            return math.inf
    if lanes is None:
        out = power(x)
        _fail(None, text is not None, text)
        return out
    out = np.array(list(map(power, np.where(lanes.raised, 1.0, x).tolist())))
    lanes.fail(np.isinf(out) & np.isfinite(x), text)  # where Python raised
    return out


def _divide(x, divisor, lanes=None):
    """``x / divisor``, where a zero divisor fails as Python's division does."""
    _fail(lanes, divisor == 0.0, "evaluation overflow: float division by zero")
    return x / divisor


def _series_for(func: str, c0, order: int, lanes=None) -> list:
    """Taylor coefficients 0..order of ``func`` (in FUNCTIONS, or "1/x")
    around ``c0``, one float or a column of lanes.  Each failure is a mask
    taken before its operation, in the order of the one-point formula, so
    a lane fails as its point jet does first.  Lanes outside a pass raise
    the lowest failing lane's error."""
    if lanes is None and isinstance(c0, np.ndarray):
        lanes = _Lanes(len(c0))
        with np.errstate(all="ignore"):
            series = _series_for(func, c0, order, lanes)
        lanes.raise_first()
        return series
    if func in ("exp", "sin", "cos"):
        if func == "exp":
            cycle = [_call("exp", c0, lanes)]
        else:  # cos computes sin first, so a cos jet raises the sin error
            s, c = _call("sin", c0, lanes), _call("cos", c0, lanes)
            cycle = [s, c, -s, -c] if func == "sin" else [c, -s, -c, s]
        _fail(lanes, order > 170, "evaluation overflow: int too large to convert to float")
        return [cycle[m % len(cycle)] / float(math.factorial(min(m, 170)))
                for m in range(order + 1)]
    if func == "ln":
        return [_call("ln", c0, lanes)] + [_divide((-1.0) ** (m + 1), m * _pow(c0, m, lanes), lanes)
                                           for m in range(1, order + 1)]
    if func == "1/x":
        _fail(lanes, c0 == 0.0, "division by a jet with zero constant term")
        return [_divide((-1.0) ** m, _pow(c0, m + 1, lanes), lanes) for m in range(order + 1)]
    if func == "sqrt":
        _fail(lanes, (c0 < 0.0) | ((c0 == 0.0) & (order >= 1)), "sqrt at {} is not smooth", c0)
        out = [_call("sqrt", c0, lanes)]
        for m in range(1, order + 1):
            out.append(out[-1] * (0.5 - (m - 1)) / (m * c0))
        return out
    raise ValueError(f"unknown function {func!r}")


# --- expressions -----------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    """An expression tree over a fixed tuple of declared variables."""

    node: object
    variables: tuple

    # -- construction helpers

    @staticmethod
    def const(value, variables) -> "Expr":
        return Expr(Num(float(value)), tuple(variables))

    @staticmethod
    def var(name, variables) -> "Expr":
        variables = tuple(variables)
        return Expr(Var(variables.index(name), name), variables)

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.variables != self.variables:
                raise ValueError("mixing expressions over different variables")
            return other
        return Expr.const(other, self.variables)

    def __add__(self, other):
        return Expr(BinOp("+", self.node, self._coerce(other).node), self.variables)

    def __radd__(self, other):
        return Expr(BinOp("+", self._coerce(other).node, self.node), self.variables)

    def __sub__(self, other):
        return Expr(BinOp("-", self.node, self._coerce(other).node), self.variables)

    def __rsub__(self, other):
        return Expr(BinOp("-", self._coerce(other).node, self.node), self.variables)

    def __mul__(self, other):
        return Expr(BinOp("*", self.node, self._coerce(other).node), self.variables)

    def __rmul__(self, other):
        return Expr(BinOp("*", self._coerce(other).node, self.node), self.variables)

    def __truediv__(self, other):
        return Expr(BinOp("/", self.node, self._coerce(other).node), self.variables)

    def __rtruediv__(self, other):
        return Expr(BinOp("/", self._coerce(other).node, self.node), self.variables)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        return Expr(Pow(self.node, k), self.variables)

    def __neg__(self):
        return Expr(Neg(self.node), self.variables)

    def apply(self, func: str) -> "Expr":
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function {func!r}")
        return Expr(Call(func, self.node), self.variables)

    def degree_bound(self):
        """An upper bound on the total degree, or None if not a polynomial.

        Numbers, variables, ``+ - *`` and nonnegative integer powers keep a
        polynomial; so do division by, negative powers of and functions of
        subexpressions free of variables, which are constants.
        """
        return _degree_node(self.node)

    # -- evaluation

    def eval(self, point) -> float:
        """Evaluate at a point (one value per declared variable)."""
        point = tuple(float(p) for p in point)
        if len(point) != len(self.variables):
            raise ValueError(f"point has {len(point)} entries for "
                             f"{len(self.variables)} variables")
        return _eval_node(self.node, point)

    def _columns(self, columns, lanes) -> np.ndarray:
        """Evaluate at many points at once: one array per declared variable.

        Each lane where :meth:`eval` raises (a zero divisor, zero to a
        negative power, a function leaving its domain or overflowing)
        fails with its first error in the batch's failure channel
        ``lanes``, and its value is meaningless.  Every other lane holds
        the bits of :meth:`eval`, finite or not."""
        columns = self._lane_columns(columns)
        with np.errstate(all="ignore"):
            values = _columns_node(self.node, columns, lanes)
        return np.broadcast_to(values, lanes.raised.shape).copy()

    def _lane_columns(self, columns) -> tuple:
        if len(columns) != len(self.variables):
            raise ValueError(f"got {len(columns)} columns for "
                             f"{len(self.variables)} variables")
        return tuple(np.asarray(c, dtype=float) for c in columns)

    def eval_jet(self, base, order: int) -> Jet:
        """Degree-``order`` Taylor truncation at the base point."""
        base = tuple(float(b) for b in base)
        if len(base) != len(self.variables):
            raise ValueError(f"base has {len(base)} entries for "
                             f"{len(self.variables)} variables")
        if order < 0:
            raise ValueError("jet order must be nonnegative")
        with np.errstate(all="ignore"):
            return _jet_node(self.node, _zero_jet(base, order), None)

    def _jets(self, columns, order: int, lanes) -> Jet:
        """Jets at many points at once: one array per declared variable.

        Returns a lane :class:`Jet` with one column per point.  Each lane
        where :meth:`eval_jet` raises fails with its first error in the
        failure channel ``lanes``, as in :meth:`_columns`, and its column
        is meaningless; on every other lane each coefficient is bitwise
        :meth:`eval_jet`, finite or not."""
        columns = self._lane_columns(columns)
        if order < 0:
            raise ValueError("jet order must be nonnegative")
        with np.errstate(all="ignore"):
            return _jet_node(self.node, _zero_jet(columns, order), lanes)

    def subs(self, mapping: dict) -> "Expr":
        """Substitute expressions for variables (by name)."""
        repl = {}
        variables = None
        for name, ex in mapping.items():
            if not isinstance(ex, Expr):
                raise TypeError("substitutions must be Expr values")
            if variables is None:
                variables = ex.variables
            elif ex.variables != variables:
                raise ValueError("substitution expressions disagree on variables")
            repl[name] = ex.node
        if variables is None:
            variables = self.variables
        return Expr(_subs_node(self.node, repl, variables), variables)

    def to_string(self) -> str:
        """Canonical, re-parseable rendering (fully parenthesized)."""
        return _print_node(self.node)

    def __str__(self):
        return self.to_string()


def _eval_node(node, point) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return point[node.index]
    if isinstance(node, Neg):
        return -_eval_node(node.child, point)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, point)
        b = _eval_node(node.right, point)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        _fail(None, b == 0.0, "division by zero")
        return a / b
    if isinstance(node, Pow):
        base = _eval_node(node.child, point)
        k = node.exponent
        if k < 0:
            _fail(None, base == 0.0, "zero raised to a negative power")
            base, k = 1.0 / base, -k
        # repeated multiplication, mirroring jet arithmetic bit for bit
        out = 1.0
        for _ in range(k):
            out = out * base
        return out
    if isinstance(node, Call):
        return _call(node.func, _eval_node(node.arg, point))
    raise TypeError(f"bad node {node!r}")


class _Lanes:
    """The failure channel of one batch of lanes, shared by every pass over
    it (of values or of jets): the lanes that raised, with the text of
    their first error.  A lane fails only when it raises; every other lane
    holds the bits of the one-point walk, finite or not."""

    __slots__ = ("raised", "errors")

    def __init__(self, size: int):
        self.raised = np.zeros(size, dtype=bool)
        self.errors = {}

    def fail(self, mask, text: str, arg=None):
        """The lanes of ``mask`` raise ``text``, formatted with the lane's
        ``arg`` if given, unless they raised before: the first error wins.
        Each distinct value (by its bits) is formatted once."""
        new = np.broadcast_to(mask, self.raised.shape) & ~self.raised
        if new.any():
            lanes = np.flatnonzero(new)
            if arg is None:
                self.errors.update(dict.fromkeys(lanes.tolist(), text))
            else:
                values = np.asarray(arg, dtype=float)[lanes]
                _, first, inverse = np.unique(values.view(np.int64), return_index=True,
                                              return_inverse=True)
                texts = [text.format(v) for v in values[first].tolist()]
                self.errors.update(zip(lanes.tolist(), map(texts.__getitem__, inverse.tolist())))
            self.raised |= new

    def raise_first(self):
        """Raise the error of the lowest lane that failed, as a loop over
        the lanes would; return if none did."""
        if self.errors:
            raise EvalDomainError(self.errors[min(self.errors)])


def _columns_node(node, columns, lanes: _Lanes):
    """Column twin of ``_eval_node`` over the variable ``columns``: same
    operations in the same order.

    ``+ - * /`` on float64 arrays round exactly like Python floats, and
    each check of the scalar walk (a zero divisor, zero to a negative
    power, ``_call``'s domain test) is the same ``_fail`` on a mask, so a
    lane fails where the scalar walk raises and every other lane keeps
    the scalar bits, non-finite ones too.
    """
    if isinstance(node, Num):
        out = np.float64(node.value)  # numpy scalars divide by 0 without raising
    elif isinstance(node, Var):
        out = columns[node.index]
    elif isinstance(node, Neg):
        out = -_columns_node(node.child, columns, lanes)
    elif isinstance(node, BinOp):
        a = _columns_node(node.left, columns, lanes)
        b = _columns_node(node.right, columns, lanes)
        if node.op == "+":
            out = a + b
        elif node.op == "-":
            out = a - b
        elif node.op == "*":
            out = a * b
        else:
            _fail(lanes, b == 0.0, "division by zero")
            out = a / b
    elif isinstance(node, Pow):
        base = _columns_node(node.child, columns, lanes)
        k = node.exponent
        if k < 0:
            _fail(lanes, base == 0.0, "zero raised to a negative power")
            base, k = 1.0 / base, -k
        out = 1.0
        for _ in range(k):
            out = out * base
    elif isinstance(node, Call):
        arg = np.broadcast_to(_columns_node(node.arg, columns, lanes), lanes.raised.shape)
        out = _call(node.func, arg, lanes)
    else:
        raise TypeError(f"bad node {node!r}")
    return out


def _jet_node(node, zero, lanes) -> Jet:
    """Jet of the subtree at the base point and order of the jet ``zero``;
    over lanes, lanes that raise are recorded in the ``_Lanes`` ``lanes``
    (None at one point, where errors raise)."""
    if isinstance(node, Num):
        return zero._constant(node.value)
    if isinstance(node, Var):
        return zero._variable(node.index)
    if isinstance(node, Neg):
        return -_jet_node(node.child, zero, lanes)
    if isinstance(node, BinOp):
        a = _jet_node(node.left, zero, lanes)
        b = _jet_node(node.right, zero, lanes)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a.divide(b, lanes)
    if isinstance(node, Pow):
        return _jet_node(node.child, zero, lanes).power(node.exponent, lanes)
    if isinstance(node, Call):
        return _jet_node(node.arg, zero, lanes).apply(node.func, lanes)
    raise TypeError(f"bad node {node!r}")


def _degree_node(node):
    if isinstance(node, Num):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, Neg):
        return _degree_node(node.child)
    if isinstance(node, BinOp):
        left, right = _degree_node(node.left), _degree_node(node.right)
        if left is None or right is None:
            return None
        if node.op in "+-":
            return max(left, right)
        if node.op == "*":
            return left + right
        return left if right == 0 else None
    if isinstance(node, Pow):
        child = _degree_node(node.child)
        if child == 0:
            return 0
        if child is None or node.exponent < 0:
            return None
        return child * node.exponent
    if isinstance(node, Call):
        return 0 if _degree_node(node.arg) == 0 else None
    raise TypeError(f"bad node {node!r}")


def _subs_node(node, repl, variables):
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        if node.name in repl:
            return repl[node.name]
        return Var(variables.index(node.name), node.name)
    if isinstance(node, Neg):
        return Neg(_subs_node(node.child, repl, variables))
    if isinstance(node, BinOp):
        return BinOp(node.op, _subs_node(node.left, repl, variables),
                     _subs_node(node.right, repl, variables))
    if isinstance(node, Pow):
        return Pow(_subs_node(node.child, repl, variables), node.exponent)
    if isinstance(node, Call):
        return Call(node.func, _subs_node(node.arg, repl, variables))
    raise TypeError(f"bad node {node!r}")


def _print_node(node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _print_node(node.child)
        if isinstance(node.child, Pow):
            # '-' binds tighter than '^' in the grammar; keep Neg(Pow) intact
            inner = f"({inner})"
        return f"(-{inner})"
    if isinstance(node, BinOp):
        return f"({_print_node(node.left)} {node.op} {_print_node(node.right)})"
    if isinstance(node, Pow):
        inner = _print_node(node.child)
        if isinstance(node.child, Pow):
            inner = f"({inner})"
        return f"{inner}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.func}({_print_node(node.arg)})"
    raise TypeError(f"bad node {node!r}")


# --- parser ----------------------------------------------------------------

# operator precedence; higher binds tighter, all are left-associative
_BINARY = {"+": 0, "-": 0, "*": 1, "/": 1}
# tokens, ASCII only: str.isdigit, str.isalpha and the regex \d and \w
# accept other scripts
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DIGITS = re.compile(r"[0-9]+")


class _Parser:
    """Recursive descent by precedence climbing.

    Every node, and every pair of parentheses, is a level of nesting; an
    expression more than MAX_DEPTH levels deep is a ParseError.  ``expr``
    and ``base`` return a node and its depth, and take the number of
    levels above them, so that a deep input is refused before the recursion
    here (at most two Python frames a level) or in a tree walker (one a
    level) could exhaust the stack.
    """

    def __init__(self, text: str, variables):
        self.text = text
        self.pos = 0
        self.variables = tuple(variables)

    def error(self, message):
        raise ParseError(message, self.pos)

    def check(self, depth: int) -> int:
        if depth > MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels")
        return depth

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error("empty expression")
        node, _ = self.expr(0)
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return node

    def expr(self, level: int, precedence: int = 0):
        """factor (op factor)* over the operators of ``precedence`` and up,
        where factor := base ("^" integer)?."""
        node, depth = self.base(level)
        if self.peek() == "^":
            self.pos += 1
            node, depth = Pow(node, self.integer()), self.check(depth + 1)
        while _BINARY.get(self.peek(), -1) >= precedence:
            op = self.text[self.pos]
            self.pos += 1
            right, right_depth = self.expr(self.check(level + 1), _BINARY[op] + 1)
            node, depth = BinOp(op, node, right), self.check(max(depth, right_depth) + 1)
        return node, depth

    def base(self, level: int):
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            child, depth = self.base(self.check(level + 1))
            return Neg(child), self.check(depth + 1)
        if ch == "(":
            self.pos += 1
            node, depth = self.expr(self.check(level + 1))
            self.expect(")")
            return node, self.check(depth + 1)
        number = self.scan(_NUMBER)
        if number:
            return Num(float(number)), 1
        start = self.pos  # a name error points at the name
        name = self.scan(_NAME)
        if name:
            if self.peek() == "(":
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", start)
                self.pos += 1
                arg, depth = self.expr(self.check(level + 1))
                self.expect(")")
                return Call(name, arg), self.check(depth + 1)
            if name in FUNCTIONS:
                raise ParseError(f"function {name!r} used without arguments", start)
            if name not in self.variables:
                raise ParseError(f"unknown identifier {name!r}", start)
            return Var(self.variables.index(name), name), 1
        self.error("expected a number, identifier or parenthesis")

    def scan(self, token) -> str:
        """Advance over the match of the regex ``token`` here; return it
        ("" if there is none)."""
        found = token.match(self.text, self.pos)
        self.pos = found.end() if found else self.pos
        return found.group() if found else ""

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        if not self.scan(_DIGITS):
            self.error("expected an integer exponent")
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.error("non-integer exponent")
        # a power costs |k| multiplications; compare digits before int() so
        # that no digit string is too long to convert
        magnitude = self.text[digits:self.pos].lstrip("0")
        if len(magnitude) > len(str(MAX_EXPONENT)) or int(magnitude or "0") > MAX_EXPONENT:
            raise ParseError(f"exponent above the cap {MAX_EXPONENT} in absolute value",
                             start)
        return int(self.text[start:self.pos])


def parse(text: str, variables) -> Expr:
    """Parse ``text`` against the declared variable list."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    return Expr(_Parser(text, variables).parse(), tuple(variables))
