"""The parser against recursive descent: the same tape, or the same error.

``_Reference`` is the recursive-descent parser that ``expr._Parser``
replaced, kept as the oracle; it appends each tape entry as it returns
from the entry's operation, which is postorder.  It refused an expression
nested more than 250 levels deep, so that its own recursion and the
recursive tree walks of that time stayed within Python's stack; no other
outcome depended on the depth.  For every input it accepts, or refuses
for any other reason, ``parse`` must build an equal tape or raise the
same ParseError text at the same offset.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from macontact.expr import (_BINARY, _DIGITS, _NAME, _NUMBER, FUNCTIONS, MAX_EXPONENT,
                            ParseError, parse)

VARIABLES = ("x1", "x2", "u")
DEPTH_ERROR = "expression nested deeper than 250 levels"


class _Reference:
    """Recursive descent by precedence climbing.

    Every operation, and every pair of parentheses, is a level of
    nesting; an expression more than 250 levels deep is a ParseError.
    ``expr`` and ``base`` append their entries to ``tape``, return their
    depth, and take the number of levels above them.
    """

    def __init__(self, text: str, variables):
        self.text = text
        self.pos = 0
        self.variables = tuple(variables)
        self.tape = []

    def error(self, message):
        raise ParseError(message, self.pos)

    def check(self, depth: int) -> int:
        if depth > 250:
            self.error("expression nested deeper than 250 levels")
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
        self.expr(0)
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return tuple(self.tape)

    def expr(self, level: int, precedence: int = 0):
        """factor (op factor)* over the operators of ``precedence`` and up,
        where factor := base ("^" integer)?."""
        depth = self.base(level)
        if self.peek() == "^":
            self.pos += 1
            self.tape.append(("^", self.integer()))
            depth = self.check(depth + 1)
        while _BINARY.get(self.peek(), -1) >= precedence:
            op = self.text[self.pos]
            self.pos += 1
            right_depth = self.expr(self.check(level + 1), _BINARY[op] + 1)
            self.tape.append((op, None))
            depth = self.check(max(depth, right_depth) + 1)
        return depth

    def base(self, level: int):
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            depth = self.base(self.check(level + 1))
            self.tape.append(("neg", None))
            return self.check(depth + 1)
        if ch == "(":
            self.pos += 1
            depth = self.expr(self.check(level + 1))
            self.expect(")")
            return self.check(depth + 1)
        number = self.scan(_NUMBER)
        if number:
            self.tape.append(("num", float(number)))
            return 1
        start = self.pos  # a name error points at the name
        name = self.scan(_NAME)
        if name:
            if self.peek() == "(":
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", start)
                self.pos += 1
                depth = self.expr(self.check(level + 1))
                self.expect(")")
                self.tape.append((name, None))
                return self.check(depth + 1)
            if name in FUNCTIONS:
                raise ParseError(f"function {name!r} used without arguments", start)
            if name not in self.variables:
                raise ParseError(f"unknown identifier {name!r}", start)
            self.tape.append(("var", self.variables.index(name)))
            return 1
        self.error("expected a number, identifier or parenthesis")

    def scan(self, token) -> str:
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
        magnitude = self.text[digits:self.pos].lstrip("0")
        if len(magnitude) > len(str(MAX_EXPONENT)) or int(magnitude or "0") > MAX_EXPONENT:
            raise ParseError(f"exponent above the cap {MAX_EXPONENT} in absolute value",
                             start)
        return int(self.text[start:self.pos])


def _reference(text: str):
    """The tape of the reference parser, or its error text and offset."""
    try:
        if not text.strip():
            raise ParseError("empty expression", 0)
        return _Reference(text, VARIABLES).parse()
    except ParseError as exc:
        return str(exc), exc.offset


def _parsed(text: str):
    """The tape of ``parse``, or its error text and offset."""
    try:
        expr = parse(text, VARIABLES)
    except ParseError as exc:
        return str(exc), exc.offset
    assert expr.variables == VARIABLES
    return expr.tape


def _check(text: str):
    expected = _reference(text)
    assume(not (isinstance(expected[0], str) and expected[0].startswith(DEPTH_ERROR)))
    assert _parsed(text) == expected, text


# numbers, declared and unknown names, the five functions and two others,
# the operators, whitespace, exponents good, bad and oversized, and
# characters outside the grammar
TOKENS = st.sampled_from([
    "0", "7", "2.5", "1e3", "3.", "007", "1.5e-3", "12E+2", "1e999", "4e",
    "x1", "x2", "u", "y", "x1y", "_", "e5", *FUNCTIONS, "tan", "log",
    "+", "-", "*", "/", "^", "(", ")", "(", ")",
    " ", "  ", "\t", "\n",
    "^2", "^-3", "^ 4", "^- 4", "^-", "^0", "^1000", "^-1000", "^0001000", "^1001",
    "^-1001", "^99999999999999999999", "^2.5", "^x1", "^(2)",
    ".", ",", "#", "٣", "²",
])

LEAVES = st.sampled_from(["x1", "x2", "u", "2", "0.5", "1e3", " x1 ", "y"])


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", " + ", "*-"]), children)
        .map("".join),
        children.map(lambda c: f"({c})"),
        children.map(lambda c: f"-{c}"),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, st.sampled_from(["2", "-1", "0", " 3", "1001", "-2.0"]))
        .map(lambda t: f"{t[0]}^{t[1]}"),
    )


EXPRESSIONS = st.recursive(LEAVES, _combine, max_leaves=40)


@settings(max_examples=500, deadline=None)
@given(st.lists(TOKENS, max_size=40).map("".join))
def test_token_strings_parse_as_by_recursive_descent(text):
    _check(text)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_grammatical_strings_parse_as_by_recursive_descent(text):
    _check(text)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS, st.integers(min_value=0), TOKENS)
def test_damaged_strings_fail_as_by_recursive_descent(text, at, token):
    # one token put into a grammatical string, usually breaking it
    at %= len(text) + 1
    _check(text[:at] + token + text[at:])


def test_a_sum_past_the_old_depth_cap_parses():
    # the one outcome this parser no longer shares with the reference
    text = "+".join(["x1"] * 251)
    assert _reference(text) == (f"{DEPTH_ERROR} (at offset 752)", 752)
    assert _parsed(text) == _reference(text[:-3]) + (("var", 0), ("+", None))
