"""Expression mini-language and truncated Taylor (jet) arithmetic.

The grammar (EBNF)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" integer)?
    base   := number | ident | ident "(" expr ")" | "(" expr ")" | "-" base

Identifiers match ``[a-zA-Z_][a-zA-Z0-9_]*``.  Known functions are sin, cos,
exp, ln and sqrt; every other identifier must name a declared variable.
Exponents are integers only; division by anything whose value (or jet
constant term) is zero is a domain error, never a NaN.

Jets are truncated multivariate Taylor expansions.  The coefficient stored
for a multi-index ``alpha`` is the partial derivative divided by
``alpha!``, so the order-0 coefficient equals the plain function value.
Multi-indices are ordered graded-lexicographically.
"""

import math
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
    idx = []
    def rec(prefix, remaining, slots):
        if slots == 0:
            idx.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)
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

class Jet:
    """Degree-``order`` Taylor truncation of a function at a base point.

    Coefficients are stored for every multi-index with ``|alpha| <= order``;
    products are truncated at the order, so a Jet is an element of the
    truncated polynomial ring and all ring identities hold exactly up to
    floating point roundoff.
    """

    __slots__ = ("base", "n", "order", "coeffs")

    def __init__(self, base, order, coeffs):
        self.base = tuple(float(b) for b in base)
        self.n = len(self.base)
        self.order = int(order)
        self.coeffs = coeffs  # dict multi-index -> float, complete

    @classmethod
    def constant(cls, value, base, order):
        base = tuple(base)
        coeffs = {a: 0.0 for a in multi_indices(len(base), order)}
        coeffs[(0,) * len(base)] = float(value)
        return cls(base, order, coeffs)

    @classmethod
    def variable(cls, i, base, order):
        base = tuple(base)
        coeffs = {a: 0.0 for a in multi_indices(len(base), order)}
        coeffs[(0,) * len(base)] = float(base[i])
        if order >= 1:
            unit = tuple(1 if j == i else 0 for j in range(len(base)))
            coeffs[unit] = 1.0
        return cls(base, order, coeffs)

    # -- accessors

    @property
    def value(self) -> float:
        return self.coeffs[(0,) * self.n]

    def coefficient(self, alpha) -> float:
        return self.coeffs[tuple(alpha)]

    def derivative(self, alpha) -> float:
        """Partial derivative for the multi-index (coefficient times alpha!)."""
        alpha = tuple(alpha)
        if sum(alpha) > self.order:
            raise ValueError(f"jet of order {self.order} has no derivative {alpha}")
        return self.coeffs[alpha] * _factorial_multi(alpha)

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot truncate upward")
        keep = {a: self.coeffs[a] for a in multi_indices(self.n, order)}
        return Jet(self.base, order, keep)

    def partial(self, i: int) -> "Jet":
        """Jet of the i-th partial derivative; the order drops by one."""
        if self.order < 1:
            raise ValueError("order-0 jet cannot be differentiated")
        out = {}
        for beta in multi_indices(self.n, self.order - 1):
            up = tuple(b + (1 if j == i else 0) for j, b in enumerate(beta))
            out[beta] = self.coeffs[up] * (beta[i] + 1)
        return Jet(self.base, self.order - 1, out)

    # -- ring operations

    def _check(self, other):
        if self.base != other.base or self.order != other.order:
            raise ValueError("jet base point / order mismatch")

    def _lift(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return other
        return Jet.constant(other, self.base, self.order)

    def __add__(self, other):
        other = self._lift(other)
        return Jet(self.base, self.order,
                   {a: c + other.coeffs[a] for a, c in self.coeffs.items()})

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.base, self.order, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.base, self.order,
                       {a: c * other for a, c in self.coeffs.items()})
        self._check(other)
        out = {a: 0.0 for a in self.coeffs}
        for a, ca in self.coeffs.items():
            if ca == 0.0:
                continue
            da = sum(a)
            for b, cb in other.coeffs.items():
                if cb == 0.0 or da + sum(b) > self.order:
                    continue
                g = tuple(x + y for x, y in zip(a, b))
                out[g] += ca * cb
        return Jet(self.base, self.order, out)

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        other = self._lift(other)
        if self.order == 0:
            # keep order-0 jets bitwise identical to plain evaluation
            if other.value == 0.0:
                raise EvalDomainError("division by a jet with zero constant term")
            return Jet.constant(self.value / other.value, self.base, 0)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("jet exponent must be an integer")
        if k < 0:
            return self.reciprocal() ** (-k)
        out = Jet.constant(1.0, self.base, self.order)
        for _ in range(k):
            out = out * self
        return out

    def reciprocal(self) -> "Jet":
        c0 = self.value
        if c0 == 0.0:
            raise EvalDomainError("division by a jet with zero constant term")
        series = [(-1.0) ** m / c0 ** (m + 1) for m in range(self.order + 1)]
        return self.compose_series(series)

    def compose_series(self, series) -> "Jet":
        """Apply a univariate Taylor series g (coefficients around value)."""
        t = self - self.value
        out = Jet.constant(series[self.order], self.base, self.order)
        for m in range(self.order - 1, -1, -1):
            out = out * t + series[m]
        return out

    def __repr__(self):
        return f"Jet(order={self.order}, base={self.base})"


def _series_for(func: str, c0: float, order: int):
    if func == "exp":
        e = math.exp(c0)
        return [e / math.factorial(m) for m in range(order + 1)]
    if func in ("sin", "cos"):
        s, c = _apply_func("sin", c0), _apply_func("cos", c0)
        cycle = [s, c, -s, -c] if func == "sin" else [c, -s, -c, s]
        return [cycle[m % 4] / math.factorial(m) for m in range(order + 1)]
    if func == "ln":
        if c0 <= 0.0:
            raise EvalDomainError(f"ln of nonpositive value {c0}")
        return [math.log(c0)] + [(-1.0) ** (m + 1) / (m * c0 ** m)
                                 for m in range(1, order + 1)]
    if func == "sqrt":
        if c0 < 0.0 or (c0 == 0.0 and order >= 1):
            raise EvalDomainError(f"sqrt at {c0} is not smooth")
        out = [math.sqrt(c0)]
        for m in range(1, order + 1):
            out.append(out[-1] * (0.5 - (m - 1)) / (m * c0))
        return out
    raise ValueError(f"unknown function {func!r}")


def _apply_func(func: str, x: float) -> float:
    if func in ("sin", "cos"):
        if not math.isfinite(x):  # math raises a bare ValueError on an infinity
            raise EvalDomainError(f"{func} of non-finite value {x}")
        return math.sin(x) if func == "sin" else math.cos(x)
    if func == "exp":
        return math.exp(x)
    if func == "ln":
        if x <= 0.0:
            raise EvalDomainError(f"ln of nonpositive value {x}")
        return math.log(x)
    if func == "sqrt":
        if x < 0.0:
            raise EvalDomainError(f"sqrt of negative value {x}")
        return math.sqrt(x)
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
        try:
            return _eval_node(self.node, point)
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalDomainError(f"evaluation overflow: {exc}") from exc

    def eval_columns(self, columns) -> tuple:
        """Evaluate at many points at once: one array per declared variable.

        Returns ``(values, flagged)``.  On every unflagged lane ``values``
        is bitwise equal to :meth:`eval` at that point.  A lane is flagged
        where it divides by zero, raises zero to a negative power, leaves
        the domain of ``ln`` or ``sqrt``, makes a ``math`` call raise, or
        has any non-finite intermediate; its value is then meaningless and
        the caller re-runs :meth:`eval` there.
        """
        if len(columns) != len(self.variables):
            raise ValueError(f"got {len(columns)} columns for "
                             f"{len(self.variables)} variables")
        columns = [np.asarray(c, dtype=float) for c in columns]
        size = len(columns[0]) if columns else 1
        flagged = np.zeros(size, dtype=bool)
        with np.errstate(all="ignore"):
            values = _columns_node(self.node, columns, flagged)
        return np.broadcast_to(values, (size,)).copy(), flagged

    def eval_jet(self, base, order: int) -> Jet:
        """Degree-``order`` Taylor truncation at the base point."""
        base = tuple(float(b) for b in base)
        if len(base) != len(self.variables):
            raise ValueError(f"base has {len(base)} entries for "
                             f"{len(self.variables)} variables")
        if order < 0:
            raise ValueError("jet order must be nonnegative")
        try:
            return _jet_node(self.node, base, order)
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalDomainError(f"evaluation overflow: {exc}") from exc

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
        if b == 0.0:
            raise EvalDomainError("division by zero")
        return a / b
    if isinstance(node, Pow):
        base = _eval_node(node.child, point)
        k = node.exponent
        if k < 0:
            if base == 0.0:
                raise EvalDomainError("zero raised to a negative power")
            base, k = 1.0 / base, -k
        # repeated multiplication, mirroring jet arithmetic bit for bit
        out = 1.0
        for _ in range(k):
            out = out * base
        return out
    if isinstance(node, Call):
        return _apply_func(node.func, _eval_node(node.arg, point))
    raise TypeError(f"bad node {node!r}")


def _columns_node(node, columns, flagged):
    """Column twin of ``_eval_node``: same operations in the same order.

    ``+ - * /`` on float64 arrays round exactly like Python floats, so the
    arithmetic runs elementwise; the functions go through ``_apply_func``
    lane by lane, because ``np.sin`` and friends may differ from ``math``
    by an ulp.  Lanes whose function call raises (domain, overflow) or
    whose result is not finite are or-ed into ``flagged`` in place; a
    division by zero or a zero to a negative power leaves an inf or NaN,
    so the finiteness test flags those too.
    """
    if isinstance(node, Num):
        out = np.float64(node.value)  # numpy scalars divide by 0 without raising
    elif isinstance(node, Var):
        out = columns[node.index]
    elif isinstance(node, Neg):
        out = -_columns_node(node.child, columns, flagged)
    elif isinstance(node, BinOp):
        a = _columns_node(node.left, columns, flagged)
        b = _columns_node(node.right, columns, flagged)
        if node.op == "+":
            out = a + b
        elif node.op == "-":
            out = a - b
        elif node.op == "*":
            out = a * b
        else:
            out = a / b
    elif isinstance(node, Pow):
        base = _columns_node(node.child, columns, flagged)
        k = node.exponent
        if k < 0:
            base, k = 1.0 / base, -k
        out = 1.0
        for _ in range(k):
            out = out * base
    elif isinstance(node, Call):
        arg = np.broadcast_to(_columns_node(node.arg, columns, flagged),
                              flagged.shape).tolist()
        out = [0.0] * len(arg)
        for i in np.flatnonzero(~flagged).tolist():
            try:
                out[i] = _apply_func(node.func, arg[i])
            except (ArithmeticError, ValueError):
                flagged[i] = True
        out = np.array(out)
    else:
        raise TypeError(f"bad node {node!r}")
    flagged |= ~np.isfinite(out)
    return out


def _jet_node(node, base, order) -> Jet:
    if isinstance(node, Num):
        return Jet.constant(node.value, base, order)
    if isinstance(node, Var):
        return Jet.variable(node.index, base, order)
    if isinstance(node, Neg):
        return -_jet_node(node.child, base, order)
    if isinstance(node, BinOp):
        a = _jet_node(node.left, base, order)
        b = _jet_node(node.right, base, order)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Pow):
        return _jet_node(node.child, base, order) ** node.exponent
    if isinstance(node, Call):
        arg = _jet_node(node.arg, base, order)
        return arg.compose_series(_series_for(node.func, arg.value, order))
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
        if ch.isdigit():
            return Num(self.number()), 1
        if ch.isalpha() or ch == "_":
            name = self.ident()
            if self.peek() == "(":
                if name not in FUNCTIONS:
                    self.error(f"unknown function {name!r}")
                self.pos += 1
                arg, depth = self.expr(self.check(level + 1))
                self.expect(")")
                return Call(name, arg), self.check(depth + 1)
            if name in FUNCTIONS:
                raise ParseError(f"function {name!r} used without arguments",
                                 self.pos - len(name))
            if name not in self.variables:
                raise ParseError(f"unknown identifier {name!r}",
                                 self.pos - len(name))
            return Var(self.variables.index(name), name), 1
        self.error("expected a number, identifier or parenthesis")

    def ident(self):
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def number(self) -> float:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent after all
        return float(self.text[start:self.pos])

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.error("expected an integer exponent")
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.error("non-integer exponent")
        return int(self.text[start:self.pos])


def parse(text: str, variables) -> Expr:
    """Parse ``text`` against the declared variable list."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    return Expr(_Parser(text, variables).parse(), tuple(variables))
