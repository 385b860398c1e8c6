"""Expression parser for the CLI grammar.

Three symbol families, never mixed inside one expression:

  * quadratic algebra:  w1 w2 w3 w4
  * enveloping fragment: Fm Fn Fb, Em En Eb, Km Kn Kb (integer powers,
    negative allowed on the K's)
  * operators: d_1..d_4, K_1..K_4 (negative powers allowed), z_1..z_4

One grammar covers scalars and elements alike:

  expression := term (("+" | "-") term)*
  term       := factor (("*" | "." | "/" | juxtaposition) factor)*
  factor     := ("+" | "-") factor | integer | "(" expression ")"
              | symbol ["^" ["+" | "-"] integer]

A unary sign may come before any factor.  ``/`` is exact division and is
allowed only between two scalars.  Parentheses hold scalars only: the
symbol ``q`` and integers combined into elements of Q(q), such as
``(q - q^-1)`` or ``(1/2)``.  Noncommutative products are kept in input
order and only normal-ordered by the algebra itself.
"""

from __future__ import annotations

import re

from .aq import AqElement
from .qcalc import QOperator, compose, mul_z, qdiff, scaling
from .ring import LaurentPoly, RatQ, as_ratq
from .uq import GENERATOR_SYMBOLS, UqElement


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_TOKEN = re.compile(
    r"""\s*(?:
        (?P<name>w[1-4]|F[mnb]|E[mnb]|K[mnb]|[dKz]_[1-4]|q)
      | (?P<int>\d+)
      | (?P<op>[-+*/^().])
    )""",
    re.VERBOSE,
)

def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unknown symbol %r" % stripped[:8], pos)
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start("int")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Value:
    """A family-tagged parse value: kind in {scalar, aq, uq, op}."""

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        self.kind = kind
        self.data = data


def _scalar(c) -> _Value:
    return _Value("scalar", as_ratq(c))


def _promote(value: _Value, kind: str, pos: int) -> _Value:
    if value.kind == kind:
        return value
    if value.kind != "scalar":
        raise ParseError(
            "cannot mix %s and %s symbols in one expression" % (value.kind, kind), pos
        )
    c = value.data
    if kind == "aq":
        return _Value("aq", AqElement.one().scale(c.to_laurent()))
    if kind == "uq":
        return _Value("uq", UqElement.one().scale(c))
    if kind == "op":
        return _Value("op", QOperator.scalar(c))
    raise AssertionError(kind)


def _combine(a: _Value, b: _Value, op: str, pos: int) -> _Value:
    """``a op b`` for op in ``+ - * /``; ``/`` only between two scalars."""
    if a.kind == "scalar" and b.kind == "scalar":
        x, y = a.data, b.data
        if op == "/":
            if not y:
                raise ParseError("scalar division by zero", pos)
            return _scalar(x / y)
        return _scalar(x + y if op == "+" else x - y if op == "-" else x * y)
    if op == "/":
        raise ParseError("division is defined between scalars only", pos)
    kind = a.kind if a.kind != "scalar" else b.kind
    a = _promote(a, kind, pos)
    b = _promote(b, kind, pos)
    if op == "+":
        return _Value(kind, a.data + b.data)
    if op == "-":
        return _Value(kind, a.data - b.data)
    if kind == "op":
        return _Value(kind, compose(a.data, b.data))
    return _Value(kind, a.data * b.data)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol):
        kind, val, pos = self.next()
        if kind != "op" or val != symbol:
            raise ParseError("expected %r" % symbol, pos)

    def maybe_power(self, pos):
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return self.signed_int()
        return None

    def signed_int(self) -> int:
        kind, val, pos = self.next()
        sign = 1
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            kind, val, pos = self.next()
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        return sign * val

    # -- the grammar ------------------------------------------------------

    def expression(self) -> _Value:
        total = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                total = _combine(total, self.term(), val, pos)
            else:
                return total

    def term(self) -> _Value:
        total = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*./":
                self.next()
                total = _combine(total, self.factor(), "/" if val == "/" else "*", pos)
            elif kind in ("name", "int") or (kind == "op" and val == "("):
                total = _combine(total, self.factor(), "*", pos)
            else:
                return total

    def factor(self) -> _Value:
        kind, val, pos = self.next()
        if kind == "op" and val in "+-":
            inner = self.factor()
            return _Value(inner.kind, -inner.data) if val == "-" else inner
        if kind == "int":
            return _scalar(val)
        if kind == "op" and val == "(":
            inner = self.expression()
            self.expect_op(")")
            if inner.kind != "scalar":
                raise ParseError("expected a scalar", pos)
            return inner
        if kind != "name":
            raise ParseError("expected a symbol, integer or scalar literal", pos)
        return self.symbol_power(val, pos)

    def symbol_power(self, name, pos) -> _Value:
        exp = self.maybe_power(pos)
        if name == "q":
            return _scalar(RatQ(LaurentPoly.q(exp if exp is not None else 1)))
        if exp is None:
            exp = 1
        if name.startswith("w"):
            if exp < 0:
                raise ParseError("negative powers are only defined for K symbols", pos)
            return _Value("aq", AqElement.generator(int(name[1])) ** exp)
        symbol = GENERATOR_SYMBOLS.get(name)
        if symbol is not None:
            if symbol[0] == "K":
                return _Value("uq", UqElement.k_gen(symbol[1], exp))
            if exp < 0:
                raise ParseError("negative powers are only defined for K symbols", pos)
            gen = UqElement.generator(symbol)
            out = UqElement.one()
            for _ in range(exp):
                out = out * gen
            return _Value("uq", out)
        if name[0] == "d":
            if exp < 0:
                raise ParseError("negative powers are only defined for K symbols", pos)
            op = QOperator.identity()
            for _ in range(exp):
                op = compose(op, qdiff(int(name[2])))
            return _Value("op", op)
        if name[0] == "K":
            return _Value("op", scaling(int(name[2]), exp))
        if name[0] == "z":
            if exp < 0:
                raise ParseError("negative powers are only defined for K symbols", pos)
            return _Value("op", mul_z(int(name[2]), exp))
        raise ParseError("unknown symbol %r" % name, pos)


def parse_expression(text: str):
    """Parse to a (kind, value) pair; kind in {"scalar", "aq", "uq", "op"}."""
    parser = _Parser(text)
    value = parser.expression()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return value.kind, value.data
