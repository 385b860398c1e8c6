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

A parse value is the element itself, and its type names its family
(``KINDS``): ``RatQ`` for a scalar, ``AqElement``, ``UqElement`` or
``QOperator``.  ``combine`` applies one binary operator, promoting a
scalar into the other operand's family.
"""

from __future__ import annotations

import re

from .aq import AqElement
from .qcalc import QOperator, compose, mul_z, qdiff, scaling
from .ring import LaurentPoly, RatQ
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


# The family of each parse value, read off its type.
KINDS = {RatQ: "scalar", AqElement: "aq", UqElement: "uq", QOperator: "op"}


def _promote(value, kind: str, pos: int):
    have = KINDS[type(value)]
    if have == kind:
        return value
    if have != "scalar":
        raise ParseError(
            "cannot mix %s and %s symbols in one expression" % (have, kind), pos
        )
    if kind == "aq":
        return AqElement.one().scale(value.to_laurent())
    if kind == "uq":
        return UqElement.one().scale(value)
    return QOperator.scalar(value)


def combine(a, b, op: str, pos: int):
    """``a op b`` for op in ``+ - * /``; ``/`` only between two scalars."""
    if type(a) is RatQ and type(b) is RatQ:
        if op == "/":
            if not b:
                raise ParseError("scalar division by zero", pos)
            return a / b
        return a + b if op == "+" else a - b if op == "-" else a * b
    if op == "/":
        raise ParseError("division is defined between scalars only", pos)
    kind = KINDS[type(a) if type(a) is not RatQ else type(b)]
    a = _promote(a, kind, pos)
    b = _promote(b, kind, pos)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if kind == "op":
        return compose(a, b)
    return a * b


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

    def expression(self):
        total = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                total = combine(total, self.term(), val, pos)
            else:
                return total

    def term(self):
        total = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*./":
                self.next()
                total = combine(total, self.factor(), "/" if val == "/" else "*", pos)
            elif kind in ("name", "int") or (kind == "op" and val == "("):
                total = combine(total, self.factor(), "*", pos)
            else:
                return total

    def factor(self):
        kind, val, pos = self.next()
        if kind == "op" and val in "+-":
            inner = self.factor()
            return -inner if val == "-" else inner
        if kind == "int":
            return RatQ(val)
        if kind == "op" and val == "(":
            inner = self.expression()
            self.expect_op(")")
            if type(inner) is not RatQ:
                raise ParseError("expected a scalar", pos)
            return inner
        if kind != "name":
            raise ParseError("expected a symbol, integer or scalar literal", pos)
        return self.symbol_power(val, pos)

    def symbol_power(self, name, pos):
        exp = self.maybe_power(pos)
        if name == "q":
            return RatQ(LaurentPoly.q(exp if exp is not None else 1))
        if exp is None:
            exp = 1
        if exp < 0 and name[0] != "K":
            raise ParseError("negative powers are only defined for K symbols", pos)
        if name[0] == "w":
            return AqElement.generator(int(name[1])) ** exp
        symbol = GENERATOR_SYMBOLS.get(name)
        if symbol is not None:
            if symbol[0] == "K":
                return UqElement.k_gen(symbol[1], exp)
            gen = UqElement.generator(symbol)
            out = UqElement.one()
            for _ in range(exp):
                out = out * gen
            return out
        if name[0] == "d":
            op = QOperator.identity()
            for _ in range(exp):
                op = compose(op, qdiff(int(name[2])))
            return op
        if name[0] == "K":
            return scaling(int(name[2]), exp)
        if name[0] == "z":
            return mul_z(int(name[2]), exp)
        raise ParseError("unknown symbol %r" % name, pos)


def parse_expression(text: str):
    """Parse to a (kind, value) pair; kind in {"scalar", "aq", "uq", "op"}."""
    parser = _Parser(text)
    value = parser.expression()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return KINDS[type(value)], value
