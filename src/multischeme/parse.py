"""Text format for rings and ideals.

Ring declaration::

    ring z0,z1,z2,x,y / char 0 / grevlex

Ideal text is a parenthesized comma-separated list of polynomials, e.g.
``(x^2 + z0*y, y^2)``.  Multiplication ``*`` is optional between factors,
``^`` is exponentiation, coefficients are integers or fractions ``a/b``.
Every exponent must stay below 2^15 = 32768, the packed key's field (see
``ring``): a larger one, written or made by a product or power, raises
``ResourceGuardExceeded`` naming it, which ``ms`` reports as inconclusive.
"""

from __future__ import annotations

import re

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
    if not text.isdigit():
        raise ParseError("%s must be a non-negative integer, got %r" % (what, text))
    return int(text)


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
            d = s.next()
            if not d.isdigit():
                raise ParseError("expected integer denominator, got %r" % d)
            f = f.scale(_fraction(ring, 1, int(d)))
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
        f = ring.const(int(t))
    elif _is_name(t):
        if t not in ring._index:
            raise ParseError("unknown variable %r" % t)
        f = ring.var(t)
    else:
        raise ParseError("unexpected token %r" % t)
    if s.peek() == "^":
        s.next()
        e = s.next()
        if not e.isdigit():
            raise ParseError("expected integer exponent, got %r" % e)
        f = f ** int(e)
    return f


def _fraction(ring, num, den):
    from fractions import Fraction

    if den == 0:
        raise ParseError("zero denominator")
    if ring.char and den % ring.char == 0:
        raise ParseError("denominator %d vanishes mod %d" % (den, ring.char))
    return Fraction(num, den)


def _is_name(t):
    return bool(re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", t))


def format_ring(ring):
    order = ring.order.kind
    if order == "block":
        order = "block %d" % ring.order.front
    return "ring %s / char %d / %s" % (",".join(ring.names), ring.char, order)


def format_ideal(polys):
    return "(%s)" % ", ".join(str(f) for f in polys)
