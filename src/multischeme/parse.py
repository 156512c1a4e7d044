"""Text format for rings and ideals.

Ring declaration::

    ring z0,z1,z2,x,y / char 0 / grevlex

Ideal text is a parenthesized comma-separated list of polynomials, e.g.
``(x^2 + z0*y, y^2)``.  Multiplication ``*`` is optional between factors,
``^`` is exponentiation, coefficients are integers or fractions ``a/b`` of
any length.  Every exponent, written or made by a product or power, must
stay below 2^15 = 32768, the packed key's field (see ``ring``): a larger one
raises ``ResourceGuardExceeded`` naming it, which ``ms`` reports as inconclusive.
So does a product or power that takes the input past ``BUDGET``, counted
before it is built.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import comb

from .ring import GREVLEX, LEX, PolyRing, ResourceGuardExceeded, TermOrder, Vec, add_terms

# The size budget of one parse, in term products, a term of a b-bit
# coefficient weighing 1 + b // 256; each product or power spends its count
# before it is built: a product its factors' weights multiplied, a power f^n
# of t terms of b bits the square of the weight bound of its largest factor
# f^m, m = n - n // 2: C(m + t - 1, t - 1) terms of m*(b + log2 t) bits.
# 2^16 products of rational terms of a few hundred bits take about 0.3 s
# (2-core x86, CPython 3.11), of integers a tenth of that; the tests' inputs
# spend below 2^14 but for the budget's own, 2^14300 below 2^12.
BUDGET = 1 << 16

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
        self.spent = 0  # of BUDGET, by the products and powers parsed so far

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
    # one term dict for the whole sum: adding Vecs would copy it per summand
    terms = dict(_parse_product(ring, s).terms)
    while s.peek() in ("+", "-"):
        sign = 1 if s.next() == "+" else -1
        add_terms(terms, _parse_product(ring, s).terms.items(), ring.char, sign)
    return Vec(ring, None, terms)


def _parse_product(ring, s):
    f = _parse_factor(ring, s)
    while True:
        t = s.peek()
        if t == "*":
            s.next()
            f = _product(s, f, _parse_factor(ring, s))
        elif t == "/":
            s.next()
            f = f.scale(_inverse(ring, s.next()))
        elif t is not None and (t.isdigit() or t == "(" or _is_name(t)):
            f = _product(s, f, _parse_factor(ring, s))
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
        f = _power(s, f, _count(s.next(), "exponent"))
    return f


def _product(s, f, g):
    (k, b), (t, c) = _size(f), _size(g)
    _within(s, _weight(k, b) * _weight(t, c), "(%d terms, %d-bit)*(%d terms, %d-bit)", k, b, t, c)
    return f * g


def _power(s, f, n):
    f.check_power(n)  # the exponent guard first: its message wins, and n < 2^15 for comb
    t, b = _size(f)
    t, m = t or 1, n - n // 2
    # |±1|^m = 1: a 1-bit coefficient grows only by the multinomial factors
    _within(s, _weight(comb(m + t - 1, t - 1), m * ((b > 1) * b + (t - 1).bit_length())) ** 2,
            "(%d terms, %d-bit)^%d", t, b, n)
    return f ** n


def _size(f):
    """(terms, bits of the longest coefficient) of f."""
    return len(f.terms), max((max(abs(c.numerator), c.denominator).bit_length()
                              for c in f.terms.values()), default=0)


def _weight(terms, bits):
    return terms * (1 + bits // 256)


def _within(s, count, what, *args):
    s.spent += count
    if s.spent > BUDGET:
        raise ResourceGuardExceeded("parser: %s takes the input past the size budget %d"
                                    % (what % args, BUDGET))


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
