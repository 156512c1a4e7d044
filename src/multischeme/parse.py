"""Text format for rings and ideals.

Ring declaration::

    ring z0,z1,z2,x,y / char 0 / grevlex

Ideal text is a parenthesized comma-separated list of polynomials, e.g.
``(x^2 + z0*y, y^2)``.  Multiplication ``*`` is optional between factors,
``^`` is exponentiation, coefficients are integers or fractions ``a/b`` of
any length.  Every exponent, written or made by a product or power, must
stay below 2^15 = 32768, the packed key's field (see ``ring``): a larger one
raises ``ResourceGuardExceeded`` naming it, which ``ms`` reports as inconclusive.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from .ring import GREVLEX, LEX, PolyRing, TermOrder

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|[()+\-*/^,])")


class ParseError(ValueError):
    pass


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("bad character at %r" % text[pos:pos + 10])
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return t

    def expect(self, tok):
        t = self.next()
        if t != tok:
            raise ParseError("expected %r, got %r" % (tok, t))
        return t


def parse_ring(text):
    """Parse a ring declaration line."""
    parts = [p.strip() for p in text.split("/")]
    if len(parts) < 1 or not parts[0].startswith("ring"):
        raise ParseError("ring declaration must start with 'ring'")
    names = [n.strip() for n in parts[0][4:].split(",") if n.strip()]
    if not names:
        raise ParseError("no variables declared")
    for name in names:
        if not _is_name(name):
            raise ParseError("variable name %r is not one identifier" % name)
    char = 0
    order = GREVLEX
    for part in parts[1:]:
        if part.startswith("char"):
            char = _count(part[4:].strip(), "characteristic")
        elif part == "grevlex":
            order = GREVLEX
        elif part == "lex":
            order = LEX
        elif part.startswith("block"):
            order = TermOrder("block", front=_count(part[5:].strip("() "), "block size"))
        else:
            raise ParseError("unknown ring option %r" % part)
    try:
        return PolyRing(names, char=char, order=order)
    except ValueError as exc:  # duplicate names or a non-prime characteristic
        raise ParseError(str(exc)) from None


def _count(text, what):
    """The int a decimal literal spells, of any length (``int`` stops at 4300 digits)."""
    if not text.isdecimal():
        raise ParseError("%s must be a non-negative integer, got %r" % (what, text))
    return int(Decimal(text))


def parse_poly(ring, text):
    s = _Stream(tokenize(text))
    f = _parse_sum(ring, s)
    if s.peek() is not None:
        raise ParseError("trailing input %r" % s.peek())
    return f


def parse_ideal(ring, text):
    """Parse '(f1, f2, ...)' into a list of polynomials."""
    s = _Stream(tokenize(text))
    s.expect("(")
    polys = []
    if s.peek() == ")":
        s.next()
    else:
        while True:
            polys.append(_parse_sum(ring, s))
            t = s.next()
            if t == ")":
                break
            if t != ",":
                raise ParseError("expected ',' or ')', got %r" % t)
    if s.peek() is not None:
        raise ParseError("trailing input after ideal")
    return polys


def _parse_sum(ring, s):
    f = _parse_product(ring, s)
    while s.peek() in ("+", "-"):
        op = s.next()
        g = _parse_product(ring, s)
        f = f + g if op == "+" else f - g
    return f


def _parse_product(ring, s):
    f = _parse_factor(ring, s)
    while True:
        t = s.peek()
        if t == "*":
            s.next()
            f = f * _parse_factor(ring, s)
        elif t == "/":
            s.next()
            f = f.scale(_inverse(ring, s.next()))
        elif t is not None and (t.isdigit() or t == "(" or _is_name(t)):
            f = f * _parse_factor(ring, s)
        else:
            return f


def _parse_factor(ring, s):
    t = s.next()
    if t == "-":
        return -_parse_factor(ring, s)
    if t == "+":
        return _parse_factor(ring, s)
    if t == "(":
        f = _parse_sum(ring, s)
        s.expect(")")
    elif t.isdigit():
        f = ring.const(_count(t, "coefficient"))
    elif _is_name(t):
        if t not in ring._index:
            raise ParseError("unknown variable %r" % t)
        f = ring.var(t)
    else:
        raise ParseError("unexpected token %r" % t)
    if s.peek() == "^":
        s.next()
        f = f ** _count(s.next(), "exponent")
    return f


def _inverse(ring, text):
    den = _count(text, "denominator")
    if den == 0:
        raise ParseError("zero denominator")
    if ring.char and den % ring.char == 0:
        raise ParseError("denominator %s vanishes mod %d" % (text, ring.char))
    return Fraction(1, den)


def _is_name(t):
    return bool(re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", t))


def format_ring(ring):
    order = ring.order.kind
    if order == "block":
        order = "block %d" % ring.order.front
    return "ring %s / char %d / %s" % (",".join(ring.names), ring.char, order)


def format_ideal(polys):
    return "(%s)" % ", ".join(str(f) for f in polys)
