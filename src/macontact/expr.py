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
from itertools import combinations_with_replacement

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
MAX_EXPONENT = 1000  # largest |k| of a power x^k the parser accepts (README)


class ParseError(ValueError):
    """Syntax or name error, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """Evaluation left a function's domain (log of nonpositive, 1/0, ...)."""


# --- multi-indices ---------------------------------------------------------

@lru_cache(maxsize=None)
def multi_indices(n: int, order: int) -> tuple:
    """All multi-indices with ``|alpha| <= order`` in graded-lex order."""
    idx = []
    for degree in range(order + 1):
        # a multiset of ``degree`` variables is one exponent tuple
        idx.extend(sorted(tuple(combo.count(i) for i in range(n))
                          for combo in combinations_with_replacement(range(n), degree)))
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
def _partial_table(n: int, order: int) -> tuple:
    """Rows of the order-``order`` jet feeding each partial, with factors:
    row i of both (n, rows of order - 1) arrays is the i-th partial."""
    pos = _positions(n, order)
    lower = multi_indices(n, order - 1)
    rows = [[pos[tuple(b + (j == i) for j, b in enumerate(beta))] for beta in lower]
            for i in range(n)]
    factors = [[beta[i] + 1 for beta in lower] for i in range(n)]
    return np.array(rows, dtype=np.intp), np.array(factors, dtype=float)


def _product(a, b, n: int, order: int):
    """Data of the product of two order-``order`` jets in n variables from
    their data ``a`` and ``b``: rows on the first axis, any lane axes after
    it, each lane the product of its own two jets.

    Each coefficient is 0.0 plus its terms in table order, skipping a term
    with a zero factor (so 0 * inf adds nothing).  The sum of all terms is
    kept unless it holds a NaN, as it then may by 0 * inf (README); if so,
    each skipped term is -0.0, which leaves every sum as it was.  Like
    every kernel here it runs under its caller's ``np.errstate``.
    """
    rows = len(a)
    left, right, target = _product_table(n, order)
    a, b = a[left], b[right]
    lanes = a.size // len(a)
    if a.ndim > 1:  # flat (row, lane) positions, term by term and lane by lane
        target = (target[:, None] * lanes + np.arange(lanes)).ravel()
    terms = a * b
    data = np.bincount(target, terms.ravel(), minlength=rows * lanes)
    if math.isnan(data.sum()):  # a NaN anywhere (or inf - inf)
        terms = np.where((a != 0.0) & (b != 0.0), terms, -0.0)
        data = np.bincount(target, terms.ravel(), minlength=rows * lanes)
    return data.reshape((rows,) + a.shape[1:])


def _scale(c, b):
    """``_product`` of the constant jet ``c`` (a number, or one per lane) and
    the data ``b`` without the table: 0.0 plus the one term c * b of each row."""
    data = c * b + 0.0
    if math.isnan(data.sum()):
        data = np.where((b != 0.0) & (c != 0.0), data, 0.0)
    return data


def _constant(zero, value):
    """Data of the constant ``value``, shaped as the jet data ``zero``."""
    data = np.zeros(zero.shape)
    data[0] = value
    return data


def _value(data):
    """The first row: a Python float at one point, a row of lanes over lanes."""
    return float(data[0]) if data.ndim == 1 else data[0]


def _power(x, k: int, kernels):
    """Integer power by repeated multiplication, as ``Expr.eval`` does."""
    if k < 0:
        x, k = _apply(x, "1/x", kernels), -k
    out = kernels.scale(1.0, x) if k else kernels.constant(1.0)
    for _ in range(k - 1):
        out = kernels.product(out, x)
    return out


def _apply(x, func: str, kernels):
    """``func`` (in FUNCTIONS, or "1/x") of the jet; leaving its domain fails."""
    series = _series_for(func, kernels.value(x), kernels.order, kernels.lanes)
    return _compose(x, series, kernels)


def _quotient(a, b, kernels):
    """``a / b``; dividing by a zero constant term fails."""
    if kernels.order == 0:
        # keep order-0 jets bitwise identical to plain evaluation
        _series_for("1/x", kernels.value(b), 0, kernels.lanes)  # fails where b is 0
        return kernels.constant(kernels.value(a) / kernels.value(b))
    return kernels.product(a, _apply(b, "1/x", kernels))


def _compose(x, series, kernels):
    """g of the jet, from g's Taylor coefficients ``series`` at its value, by Horner."""
    order = kernels.order
    t = kernels.sub(x, kernels.constant(kernels.value(x)))
    out = kernels.constant(series[order])
    for m in range(order - 1, -1, -1):
        out = kernels.product(out, t) if m < order - 1 else kernels.scale(series[order], t)
        out = kernels.shift(out, series[m])
    return out


def _coordinate(zero, base, i: int):
    """Data of the i-th coordinate at ``base``, shaped as the jet data ``zero``."""
    data = _constant(zero, base[i])
    if len(zero) > 1:  # order >= 1; degree-1 rows run from e_(n-1) to e_0
        data[len(base) - i] = 1.0
    return data


class _ArrayKernels:
    """The jet kernels on data arrays (rows, then any lane axes) at the
    base point and order of the jet ``zero``; series errors go to the
    ``_Lanes`` ``lanes``.  ``_power``, ``_apply``, ``_quotient`` and
    ``_compose`` run on either kernel set."""

    __slots__ = ("n", "order", "base", "zero", "lanes")

    def __init__(self, zero: "Jet", lanes):
        self.n, self.order, self.base, self.zero = zero.n, zero.order, zero.base, zero.data
        self.lanes = lanes

    def constant(self, value):
        return _constant(self.zero, value)

    def coordinate(self, i: int):
        return _coordinate(self.zero, self.base, i)

    def built(self, entry):
        """The jet of a ``_jet`` stack entry: a number ``("num", v)`` or a
        negated number ``("neg", v)`` becomes its constant jet."""
        if type(entry) is not tuple:
            return entry
        op, value = entry
        return self.constant(value) if op == "num" else self.neg(self.constant(value))

    def dense(self, x):
        return x

    def value(self, x):
        return _value(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def product(self, a, b):
        return _product(a, b, self.n, self.order)

    def scale(self, c, x):
        return _scale(c, x)

    def shift(self, x, c):
        """The fresh jet ``x`` plus the constant ``c``, in place."""
        x[0] += c
        return x


_CUT_PAIRS, _CUT_DIVISOR = 32, 32  # the size cut: 32 pairs plus one per 32 table terms


@lru_cache(maxsize=None)
def _pair_rows(n: int, order: int) -> tuple:
    """``_product_table`` as Python lists for ``_point_product``: where each
    left row's terms start in the table, how many right rows (a prefix of
    the index list) pair with it, and each term's target row; and the size
    cut, the most pairs of stored rows a product forms in Python floats.
    On a 2-vCPU VM the loop took about 0.13 us a pair, and the numpy
    kernel about 3 us plus 3.4 ns a table term, plus 1-2 us to spread
    each dict over an array."""
    left, _, target = _product_table(n, order)
    counts = np.bincount(left, minlength=len(multi_indices(n, order)))
    pairs = (np.cumsum(counts) - counts).tolist(), counts.tolist(), target.tolist()
    return pairs, _CUT_PAIRS + len(target) // _CUT_DIVISOR


def _point_product(a: dict, b: dict, pairs: tuple) -> dict:
    """``_product`` of two point jets (``_PointKernels``) in Python floats,
    by the coefficient loop: the pairs of rows in table order (left row,
    then right row), skipping a term with a zero factor, each row summed
    from 0.0; ``pairs`` is ``_pair_rows`` of the jets' shape."""
    starts, counts, targets = pairs
    right = [term for term in sorted(b.items()) if term[1] != 0.0]
    out = {-1: 0.0}
    get = out.get
    for i, x in sorted(a.items()):
        if x == 0.0:  # the fill, or a zero row
            continue
        start, count = starts[i], counts[i]
        for j, y in right:
            if j >= count:  # the right rows that pair with row i are a prefix
                break
            t = targets[start + j]
            out[t] = get(t, 0.0) + x * y
    return out


class _PointKernels(_ArrayKernels):
    """The jet kernels at one point (errors raise) on Python floats.  A
    point jet is a dict from row to float whose key -1 holds the fill,
    the value (+0.0 or -0.0) of every row it leaves out.  Each kernel does
    its ``_ArrayKernels`` twin's float operations in the same order, so
    every row keeps its bits: add, sub and neg act on the fill too, and a
    product or a scale sums each row from 0.0 over the terms whose two
    factors are nonzero, in table order, with fill 0.0.  A product whose
    operands' stored rows would pair more than the size cut of
    ``_pair_rows`` spreads both jets over data arrays and takes the numpy
    kernel, and every operation on such an array does too."""

    __slots__ = ("rows", "pairs", "cut", "spread")

    def __init__(self, base: tuple, order: int):
        self.n, self.order, self.base, self.lanes = len(base), order, base, None
        self.rows = len(multi_indices(self.n, order))
        self.pairs, self.cut = _pair_rows(self.n, order)
        self.spread = (None, None)

    def dense(self, x):
        """The data array of a point jet: the fill's key -1 writes a spare
        last row, which is cut off.  The last dict spread is kept with its
        array, as a power or a series multiplies by one jet again and again;
        a dict never changes once made, but for ``shift`` of a fresh one."""
        if type(x) is not dict:
            return x
        if self.spread[0] is not x:
            data = np.full(self.rows + 1, x[-1])
            for r, v in x.items():
                data[r] = v
            self.spread = (x, data[:-1])
        return self.spread[1]

    def constant(self, value):
        return {-1: 0.0, 0: value}

    def coordinate(self, i: int):
        if self.order == 0:
            return {-1: 0.0, 0: self.base[i]}
        return {-1: 0.0, 0: self.base[i], self.n - i: 1.0}  # as in _coordinate

    def value(self, x):
        return x.get(0, x[-1]) if type(x) is dict else float(x[0])

    def add(self, a, b):
        if type(a) is not dict or type(b) is not dict:
            return self.dense(a) + self.dense(b)
        fill_a, fill_b, get = a[-1], b[-1], b.get
        out = {r: v + get(r, fill_b) for r, v in a.items()}
        for r, v in b.items():
            if r not in out:
                out[r] = fill_a + v
        return out

    def sub(self, a, b):
        if type(a) is not dict or type(b) is not dict:
            return self.dense(a) - self.dense(b)
        fill_a, fill_b, get = a[-1], b[-1], b.get
        out = {r: v - get(r, fill_b) for r, v in a.items()}
        for r, v in b.items():
            if r not in out:
                out[r] = fill_a - v
        return out

    def neg(self, a):
        return {r: -v for r, v in a.items()} if type(a) is dict else -a

    def product(self, a, b):
        if type(a) is dict and type(b) is dict and (len(a) - 1) * (len(b) - 1) <= self.cut:
            return _point_product(a, b, self.pairs)
        return _product(self.dense(a), self.dense(b), self.n, self.order)

    def scale(self, c, x):
        if type(x) is not dict:
            return _scale(c, x)
        out = {r: c * v + 0.0 for r, v in x.items() if v != 0.0} if c != 0.0 else {}
        out[-1] = 0.0
        return out

    def shift(self, x, c):
        if type(x) is not dict:
            return super().shift(x, c)
        x[0] = x.get(0, x[-1]) + c
        return x


def _zero_jet(base, order: int) -> "Jet":
    """The zero jet at a base of floats, or of float64 arrays (one per lane)."""
    base = tuple(b if isinstance(b, np.ndarray) else float(b) for b in base)
    lanes = np.shape(base[0]) if base else ()
    return Jet(base, order, np.zeros((len(multi_indices(len(base), order)),) + lanes))


def _same_point(a, b) -> bool:
    if a and isinstance(a[0], np.ndarray):
        return len(a) == len(b) and all(x is y or np.array_equal(x, y) for x, y in zip(a, b))
    return a == b


class Jet:
    """Degree-``order`` Taylor truncation of a function at base points:
    the value that ``Expr.eval_jet`` and ``Expr._jets`` return.

    ``data`` is a dense float64 array with one row per multi-index of
    ``multi_indices(n, order)``.  A jet at one point (a base of floats)
    is the one-lane case, a 1-D array; a jet over lanes (a base of n
    arrays, one entry per point, as ``Expr._jets`` builds) has one column
    per lane, and each lane is bitwise the jet at its point, up to the
    sign of a NaN (numpy's add may return either NaN operand).
    Coefficients may be inf or NaN.

    ``value``, ``coefficient``, ``derivative`` and ``coeffs`` give Python
    floats at one point and one array per coefficient over lanes.  The
    product of two jets is truncated at the order and runs under
    ``np.errstate``, so numpy does not warn.
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
        zero = _zero_jet(base, order)
        return Jet(zero.base, zero.order, _coordinate(zero.data, zero.base, i))

    def _constant(self, value) -> "Jet":
        """The constant ``value`` at this jet's base point and order."""
        return Jet(self.base, self.order, _constant(self.data, value))

    # -- accessors

    @property
    def value(self):
        return _value(self.data)

    @property
    def coeffs(self) -> dict:
        """Multi-index -> coefficient, in multi-index order."""
        rows = self.data.tolist() if self.data.ndim == 1 else list(self.data)
        return dict(zip(multi_indices(self.n, self.order), rows))

    def coefficient(self, alpha):
        """The coefficient of the multi-index; one with the wrong length, a
        negative entry or a degree above the order is refused by name."""
        row = _positions(self.n, self.order).get(tuple(alpha))
        if row is None:
            raise ValueError(f"multi-index {tuple(alpha)} is not one of a jet "
                             f"with n={self.n}, order={self.order}")
        return _value(self.data[row:])

    def derivative(self, alpha):
        """Partial derivative for the multi-index (coefficient times alpha!)."""
        alpha = tuple(alpha)
        return self.coefficient(alpha) * _factorial_multi(alpha)

    def _check(self, other):
        if self.order != other.order or not _same_point(self.base, other.base):
            raise ValueError("jet base point / order mismatch")

    def __mul__(self, other):
        """The truncated product of two jets at one base point and order."""
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        with np.errstate(all="ignore"):
            data = _product(self.data, other.data, self.n, self.order)
        return Jet(self.base, self.order, data)

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


def _elementwise(func, x) -> np.ndarray:
    """The Python float function ``func`` of every element of ``x``, at
    the shape of ``x``: once per distinct lane value of a broadcast axis,
    not once per lane of the batch.  It maps slices of 65,536 elements, so
    the Python floats in flight stay a few MB at any lane count."""
    flat = np.ravel(x)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, 65536):
        out[start:start + 65536] = list(map(func, flat[start:start + 65536].tolist()))
    return out.reshape(np.shape(x))


def _call(func: str, x, lanes=None):
    """``func`` of one float by its ``_FUNCS`` entry, or over lanes by the
    same ``math`` call element by element of ``x``, at its own shape; an
    element outside the domain fails and reads 0.0."""
    call, outside, text = _FUNCS[func]
    bad = outside(x)
    _fail(lanes, bad, text, x)
    if lanes is None:
        return call(x)
    out = _elementwise(call, np.where(bad, 1.0, x))  # 1.0 is in every domain
    out[bad] = 0.0
    return out


def _pow(x, m: int, lanes=None):
    """Python's ``x ** m`` of one float or element by element of ``x``
    (numpy's power differs on some lanes); where it overflows, it fails with
    Python's text.  Python raises exactly where a finite ``x`` gives inf."""
    text = None
    def raised(v):
        nonlocal text
        try:
            return v ** m
        except OverflowError as exc:
            text = f"evaluation overflow: {exc}"
            return math.inf
    out = raised(x) if lanes is None else _elementwise(raised, x)
    _fail(lanes, np.isinf(out) & np.isfinite(x), text)
    return out


def _divide(x, divisor, lanes=None):
    """``x / divisor``, where a zero divisor fails as Python's division does."""
    _fail(lanes, divisor == 0.0, "evaluation overflow: float division by zero")
    return x / divisor


def _series_for(func: str, c0, order: int, lanes=None) -> list:
    """Taylor coefficients 0..order of ``func`` (in FUNCTIONS, or "1/x")
    around ``c0``, one float or a column of lanes.  Each failure is a mask
    taken before its operation, in the order of the one-point formula, so
    a lane fails as its point jet does first."""
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

def _operator(op: str, reflected: bool = False):
    """The ``Expr`` method of the binary operator ``op``, with the
    expression on the left, or on the right if ``reflected``."""
    def method(self, other):
        left, right = self.tape, self._coerce(other).tape
        if reflected:
            left, right = right, left
        return Expr(left + right + ((op, None),), self.variables)
    return method


@dataclass(frozen=True)
class Expr:
    """An expression over a fixed tuple of declared variables, held as its
    tape: the flat ``(op, arg)`` entries of its operations in postorder
    (operands first, the left before the right).  An entry is

    * ``("num", value)``, a float, or ``("var", i)``, the i-th variable;
    * ``("neg", None)``, a minus sign;
    * ``(op, None)`` for each binary operator ``+ - * /``;
    * ``("^", k)``, the integer power k;
    * ``(func, None)`` for each function name in FUNCTIONS.

    Every walk (values, jets, degree, substitution, text) is one loop over
    the tape with a stack of operands, and equality, hashing and repr are
    those of a flat tuple, so nothing recurses over an expression.
    """

    tape: tuple
    variables: tuple

    # -- construction helpers

    @staticmethod
    def const(value, variables) -> "Expr":
        return Expr((("num", float(value)),), tuple(variables))

    @staticmethod
    def var(name, variables) -> "Expr":
        variables = tuple(variables)
        return Expr((("var", variables.index(name)),), variables)

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.variables != self.variables:
                raise ValueError("mixing expressions over different variables")
            return other
        return Expr.const(other, self.variables)

    __add__, __radd__ = _operator("+"), _operator("+", True)
    __sub__, __rsub__ = _operator("-"), _operator("-", True)
    __mul__, __rmul__ = _operator("*"), _operator("*", True)
    __truediv__, __rtruediv__ = _operator("/"), _operator("/", True)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        return Expr(self.tape + (("^", k),), self.variables)

    def __neg__(self):
        return Expr(self.tape + (("neg", None),), self.variables)

    def apply(self, func: str) -> "Expr":
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function {func!r}")
        return Expr(self.tape + ((func, None),), self.variables)

    def degree_bound(self):
        """An upper bound on the total degree, or None if not a polynomial.

        Numbers, variables, ``+ - *`` and nonnegative integer powers keep a
        polynomial; so do division by, negative powers of and functions of
        subexpressions free of variables, which are constants.
        """
        return _degree(self.tape)

    # -- evaluation

    def eval(self, point) -> float:
        """Evaluate at a point (one value per declared variable).

        The value walk in its point mode: Python floats throughout, and the
        first error raises.  It is the reference that :meth:`_columns`
        matches lane by lane."""
        point = tuple(float(p) for p in point)
        if len(point) != len(self.variables):
            raise ValueError(f"point has {len(point)} entries for "
                             f"{len(self.variables)} variables")
        return _values(self.tape, point, None)

    def _columns(self, columns, lanes) -> np.ndarray:
        """Evaluate at many points at once: one array per declared variable,
        each of which broadcasts to the lane shape ``lanes.raised.shape``
        (a grid axis along its own dimension, a fixed value as a 0-d
        array).  Each subexpression is evaluated at the shape of the
        variables it reads, and the result is a read-only view at the lane
        shape.

        Each lane where :meth:`eval` raises (a zero divisor, zero to a
        negative power, a function leaving its domain or overflowing)
        fails with its first error in the batch's failure channel
        ``lanes``, and its value is meaningless.  Every other lane holds
        the bits of :meth:`eval`, finite or not, up to the sign of a NaN:
        it is the same walk over float64 arrays."""
        columns = self._lane_columns(columns)
        with np.errstate(all="ignore"):
            values = _values(self.tape, columns, lanes)
        return np.broadcast_to(values, lanes.raised.shape)

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
        return _jet(self.tape, base, order, None)

    def _jets(self, columns, order: int, lanes) -> Jet:
        """Jets at many points at once: one array per declared variable.

        Returns a lane :class:`Jet` with one column per point.  Each lane
        where :meth:`eval_jet` raises fails with its first error in the
        failure channel ``lanes``, as in :meth:`_columns`, and its column
        is meaningless; on every other lane each coefficient is bitwise
        :meth:`eval_jet`, finite or not, up to the sign of a NaN."""
        return _jet(self.tape, self._lane_columns(columns), order, lanes)

    def subs(self, mapping: dict) -> "Expr":
        """Substitute expressions for variables (by name): each one's tape
        is spliced in where the variable was."""
        repl = {}
        variables = None
        for name, ex in mapping.items():
            if not isinstance(ex, Expr):
                raise TypeError("substitutions must be Expr values")
            if variables is None:
                variables = ex.variables
            elif ex.variables != variables:
                raise ValueError("substitution expressions disagree on variables")
            repl[name] = ex.tape
        if variables is None:
            variables = self.variables
        tape = []
        for entry in self.tape:
            if entry[0] == "var":
                name = self.variables[entry[1]]
                if name in repl:
                    tape += repl[name]
                    continue
                entry = ("var", variables.index(name))
            tape.append(entry)
        return Expr(tuple(tape), variables)

    def to_string(self) -> str:
        """Canonical, re-parseable rendering (fully parenthesized)."""
        return _text(self.tape, self.variables)

    __str__ = to_string


class _Lanes:
    """The failure channel of one batch of lanes, shared by every pass over
    it (of values or of jets): the lanes that raised, with the text of
    their first error, keyed by flat lane number in row-major order.  A
    lane fails only when it raises; every other lane holds the bits of the
    one-point walk, finite or not, up to the sign of a NaN."""

    __slots__ = ("raised", "errors")

    def __init__(self, shape):
        """``shape``: the number of lanes, or the shape of a grid of them."""
        self.raised = np.zeros(shape, dtype=bool)
        self.errors = {}

    def fail(self, mask, text: str, arg=None):
        """The lanes of ``mask`` raise ``text``, formatted with the lane's
        ``arg`` if given, unless they raised before: the first error wins.
        ``mask`` and ``arg`` broadcast to the lane shape.
        Each distinct value (by its bits) is formatted once."""
        if not np.any(mask):  # most checks fail nowhere: skip the lane-shape work
            return
        new = np.broadcast_to(mask, self.raised.shape) & ~self.raised
        if new.any():
            lanes = np.flatnonzero(new)
            if arg is None:
                self.errors.update(dict.fromkeys(lanes.tolist(), text))
            else:
                values = np.broadcast_to(np.asarray(arg, dtype=float), self.raised.shape)[new]
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


def _values(tape, point, lanes):
    """Value of the expression whose tape is ``tape`` at ``point``: Python
    floats at one point (``lanes`` None, where errors raise), or over lanes
    float64 arrays, each at the broadcast shape of the variables its
    operands read, whose lanes that raise are recorded in ``lanes``.  Both
    modes run the same operations in the same order, and each check is one
    ``_fail`` on a bool or a mask, so a lane fails where the point walk
    raises and every other lane keeps its bits, non-finite ones too."""
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg in tape:  # the commonest entries of a polynomial first
        if op == "num":  # over lanes a float64, which divides by a failed lane's zero
            push(arg if lanes is None else np.float64(arg))
        elif op == "var":
            push(point[arg])
        elif op == "*":
            b = pop()
            push(pop() * b)
        elif op == "+":
            b = pop()
            push(pop() + b)
        elif op == "^":
            base = pop()
            if arg < 0:
                _fail(lanes, base == 0.0, "zero raised to a negative power")
                base, arg = 1.0 / base, -arg
            # repeated multiplication, mirroring jet arithmetic bit for bit
            out = 1.0 if lanes is None else np.float64(1.0)
            for _ in range(arg):
                out = out * base
            push(out)
        elif op == "-":
            b = pop()
            push(pop() - b)
        elif op == "neg":
            push(-pop())
        elif op == "/":
            b = pop()
            _fail(lanes, b == 0.0, "division by zero")
            push(pop() / b)
        else:
            push(_call(op, pop(), lanes))
    return pop()


def _jet(tape, base: tuple, order: int, lanes) -> Jet:
    """Jet of the expression whose tape is ``tape`` at the base point (a
    float or an array of lanes per variable), by the kernels of the ``Jet``
    operations: at one point (``lanes`` None, where errors raise)
    ``_PointKernels``, over lanes ``_ArrayKernels``, whose lanes that raise
    go to ``lanes``.
    A stack entry is a jet of the kernel set, or for a number its tape
    entry ``("num", v)`` and for a negated number ``("neg", v)``: as a
    factor of ``*`` either scales the other factor (``scale``) and has no
    jet of its own; anywhere else it becomes its jet (``built``).  The
    two stay apart, since ``-constant(v)`` has -0.0 rows where
    ``constant(-v)`` has 0.0."""
    if order < 0:
        raise ValueError("jet order must be nonnegative")
    if lanes is None:
        kernels = _PointKernels(base, order)
    else:
        kernels = _ArrayKernels(_zero_jet(base, order), lanes)
    built = kernels.built
    add, sub, neg = kernels.add, kernels.sub, kernels.neg
    product, scale = kernels.product, kernels.scale
    stack = []
    push, pop = stack.append, stack.pop
    with np.errstate(all="ignore"):
        for entry in tape:
            op, arg = entry
            if op in _BINARY:
                b, a = pop(), pop()
                if op == "*" and (type(a) is tuple or type(b) is tuple):
                    factor, other = (a, b) if type(a) is tuple else (b, a)
                    sign = -1.0 if factor[0] == "neg" else 1.0
                    push(scale(sign * factor[1], built(other)))
                    continue
                if type(a) is tuple or type(b) is tuple:
                    a, b = built(a), built(b)
                if op == "+":
                    push(add(a, b))
                elif op == "-":
                    push(sub(a, b))
                elif op == "*":
                    push(product(a, b))
                else:
                    push(_quotient(a, b, kernels))
            elif op == "var":
                push(kernels.coordinate(arg))
            elif op == "num":
                push(entry)
            elif op == "neg":
                a = pop()
                push(("neg", a[1]) if type(a) is tuple and a[0] == "num" else neg(built(a)))
            elif op == "^":
                push(_power(built(pop()), arg, kernels))
            else:
                push(_apply(built(pop()), op, kernels))
        return Jet(base, order, kernels.dense(built(pop())))


def _degree(tape):
    """``Expr.degree_bound`` of the expression whose tape is ``tape``."""
    stack = []
    for op, arg in tape:
        if op == "num" or op == "var":
            stack.append(int(op == "var"))
            continue
        b = stack.pop() if op in _BINARY else 0
        a = stack.pop()
        if a is None or b is None:
            stack.append(None)  # an operation on an operand that is not a polynomial
        elif op == "neg":
            stack.append(a)
        elif op == "+" or op == "-":
            stack.append(max(a, b))
        elif op == "*":
            stack.append(a + b)
        elif op == "/":
            stack.append(a if b == 0 else None)
        elif op == "^" and a != 0:
            stack.append(None if arg < 0 else a * arg)
        else:
            stack.append(0 if a == 0 else None)  # a call, or a power of a constant
    return stack.pop()


def _text(tape, variables) -> str:
    """``Expr.to_string`` of the expression whose tape is ``tape``.  Each
    stack entry is a text and whether a power made it: '-' binds tighter
    than '^' in the grammar, so a power under a minus sign or another
    power is parenthesized."""
    stack = []
    for op, arg in tape:
        if op == "num":
            stack.append((repr(arg), False))
        elif op == "var":
            stack.append((variables[arg], False))
        elif op in _BINARY:
            b = stack.pop()[0]
            stack.append((f"({stack.pop()[0]} {op} {b})", False))
        elif op == "neg" or op == "^":
            a, powered = stack.pop()
            if powered:
                a = f"({a})"
            stack.append((f"(-{a})", False) if op == "neg" else (f"{a}^{arg}", True))
        else:
            stack.append((f"{op}({stack.pop()[0]})", False))
    return stack.pop()[0]


# --- parser ----------------------------------------------------------------

# operator precedence; higher binds tighter, all are left-associative
_BINARY = {"+": 0, "-": 0, "*": 1, "/": 1}
# tokens, ASCII only: str.isdigit, str.isalpha and the regex \d and \w
# accept other scripts
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DIGITS = re.compile(r"[0-9]+")


class _Parser:
    """Precedence climbing by the grammar of the module docstring, as a loop
    over an explicit stack, so nesting costs memory, not Python frames.
    The stack holds, innermost last: a minus sign (None), an open
    parenthesis ("") or call (its function name), and a binary operator
    waiting for its right operand.  Each tape entry is appended as its
    operation is complete, which is postorder.  A finished factor takes
    its minus signs, then a power; an operator first folds the operators
    of the open group that bind at least as tightly.  The text is read,
    and every ParseError raised, as recursive descent by the grammar
    would."""

    def __init__(self, text: str, variables):
        self.text = text
        self.pos = 0
        self.variables = tuple(variables)
        self.tape = []

    def peek(self):
        """The character after any whitespace, which is skipped ("" at the end)."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> tuple:
        stack, tape = [], self.tape
        while True:
            ch = self.peek()
            if ch == "-" or ch == "(":
                self.pos += 1
                stack.append(None if ch == "-" else "")
                continue
            complete = self.leaf(stack)
            while complete:  # a factor or a group is complete
                while stack and stack[-1] is None:
                    stack.pop()
                    tape.append(("neg", None))
                if self.peek() == "^":
                    self.pos += 1
                    tape.append(("^", self.integer()))
                op = self.peek()
                precedence = _BINARY.get(op, -1)
                while stack and stack[-1] in _BINARY and _BINARY[stack[-1]] >= precedence:
                    tape.append((stack.pop(), None))
                if precedence >= 0:
                    self.pos += 1
                    stack.append(op)
                    break
                if not stack:
                    if self.pos != len(self.text):
                        raise ParseError("unexpected trailing input", self.pos)
                    return tuple(tape)
                if self.peek() != ")":
                    raise ParseError("expected ')'", self.pos)
                self.pos += 1
                func = stack.pop()
                if func:
                    tape.append((func, None))

    def leaf(self, stack) -> bool:
        """Append a number or a variable and return True, or open a call
        on ``stack`` and return False."""
        number = self.scan(_NUMBER)
        if number:
            self.tape.append(("num", float(number)))
            return True
        start = self.pos  # a name error points at the name
        name = self.scan(_NAME)
        if not name:
            raise ParseError("expected a number, identifier or parenthesis", self.pos)
        if self.peek() == "(":
            if name not in FUNCTIONS:
                raise ParseError(f"unknown function {name!r}", start)
            self.pos += 1
            stack.append(name)
            return False
        if name in FUNCTIONS:
            raise ParseError(f"function {name!r} used without arguments", start)
        if name not in self.variables:
            raise ParseError(f"unknown identifier {name!r}", start)
        self.tape.append(("var", self.variables.index(name)))
        return True

    def scan(self, token) -> str:
        """Advance over the regex ``token``'s match here; return it ("" if none)."""
        found = token.match(self.text, self.pos)
        self.pos = found.end() if found else self.pos
        return found.group() if found else ""

    def integer(self) -> int:
        sign = self.peek()
        start = self.pos
        if sign == "-":
            self.pos += 1
        digits = self.pos
        if not self.scan(_DIGITS):
            raise ParseError("expected an integer exponent", self.pos)
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            raise ParseError("non-integer exponent", self.pos)
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
