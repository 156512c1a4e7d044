"""Exact multivariate polynomial arithmetic over Q or a prime field.

Polynomials are immutable dicts mapping exponent tuples to nonzero field
elements: ints or ``fractions.Fraction``s in characteristic 0 (see ``Rationals``)
and ints reduced mod p in characteristic p.  No floating point anywhere.
Buchberger over Q (``groebner``) computes with primitive integer vectors and
makes only its reduced basis monic, so Fractions appear there on output.

Every term dictionary (a ``Polynomial``'s terms, a ``Vec``'s data, a Hilbert
numerator) is added or subtracted by ``add_terms`` and scaled by ``scale_terms``,
which keep these invariants.  Only Buchberger's ``_spair`` and ``_reduce`` fuse
their own multiply-subtract: a kernel call per term made the S-pair 10-15% slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class Rationals:
    """The field Q.  An element is an ``int`` or a ``Fraction``, never a float:
    ``coerce``, ``zero``, ``one`` and ``inv`` return an ``int`` for an integral
    value, mixed arithmetic is exact and ``Fraction(n, 1) == n``, hash included."""

    char = 0

    def coerce(self, v):
        if type(v) is int:
            return v
        if type(v) is not Fraction:
            v = Fraction(v)
        return v.numerator if v.denominator == 1 else v

    def zero(self):
        return 0

    def one(self):
        return 1

    def inv(self, a):
        return int(a) if a in (1, -1) else self.coerce(1 / Fraction(a))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


# Miller-Rabin with the primes up to 41 as bases has no strong pseudoprime
# below _MR_BOUND (Sorenson-Webster, Math. Comp. 86, 2017), so it is exact there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p):
    if p < 2 or any(p % q == 0 for q in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for a in _MR_BASES:
        powers = [pow(a, (p - 1) >> (s - r), p) for r in range(s)]
        if powers[0] != 1 and p - 1 not in powers:
            return False
    return True


class PrimeField:
    """The field F_p for a prime p; elements are ints in [0, p)."""

    def __init__(self, p):
        if p >= _MR_BOUND:
            raise ValueError("characteristic must be below %d: %r" % (_MR_BOUND, p))
        if not _is_prime(p):
            raise ValueError("characteristic must be prime: %r" % p)
        self.p = p
        self.char = p

    def coerce(self, v):
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes mod %d" % self.p)
            return v.numerator * pow(den, self.p - 2, self.p) % self.p
        return int(v) % self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def inv(self, a):
        a = a % self.p
        if a == 0:
            raise ZeroDivisionError
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


@dataclass(frozen=True)
class TermOrder:
    """A monomial order: 'grevlex', 'lex', or 'block'.

    A block order compares the first ``front`` variables by grevlex, then the
    remaining ones, so it eliminates the front block.
    """

    kind: str = "grevlex"
    front: int = 0

    def lead_key(self, exps):
        """A key whose ascending order is this order's descending order."""
        if self.kind == "grevlex":
            return (-sum(exps), exps[::-1])
        if self.kind == "lex":
            return tuple(-e for e in exps)
        if self.kind == "block":
            f, r = exps[: self.front], exps[self.front:]
            return (-sum(f), f[::-1], -sum(r), r[::-1])
        raise ValueError("unknown order %r" % self.kind)


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")


class PolyRing:
    """A polynomial ring k[x_1..x_n] with a fixed term order."""

    def __init__(self, names, char=0, order=GREVLEX):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if order.front > len(names):
            raise ValueError("block of %d variables in a ring of %d" % (order.front, len(names)))
        self.names = names
        self.nvars = len(names)
        self.char = char
        self.field = Rationals() if char == 0 else PrimeField(char)
        self.order = order
        self._index = {n: i for i, n in enumerate(names)}
        self._zero_exp = (0,) * self.nvars

    # -- constructors ------------------------------------------------------

    def poly(self, terms):
        """Build a polynomial from {exponent tuple: coefficient}."""
        clean = {}
        for e, c in terms.items():
            c = self.field.coerce(c)
            if c:
                clean[tuple(e)] = c
        return Polynomial(self, clean)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.field.coerce(c)
        return Polynomial(self, {self._zero_exp: c} if c else {})

    def var(self, name):
        i = self._index[name]
        e = [0] * self.nvars
        e[i] = 1
        return self.poly({tuple(e): 1})

    def gens(self):
        return [self.var(n) for n in self.names]

    # -- derived rings -----------------------------------------------------

    def extended(self, new_names):
        """Add variables in front, with a block order that eliminates them."""
        order = TermOrder("block", front=len(new_names))
        return PolyRing(tuple(new_names) + self.names, self.char, order)

    def subring(self, names):
        # a block order keeps its front, cut to the subring's size
        order = TermOrder(self.order.kind, min(self.order.front, len(names)))
        return PolyRing(names, self.char, order)

    def transfer(self, f, other):
        """Map a polynomial into ``other`` matching variables by name.

        Variables of ``f``'s ring absent from ``other`` must not occur in f.
        """
        pos = []
        for n in self.names:
            pos.append(other._index.get(n))
        terms = {}
        for e, c in f.terms.items():
            new = [0] * other.nvars
            for i, ei in enumerate(e):
                if ei:
                    if pos[i] is None:
                        raise ValueError("variable %s not in target ring" % self.names[i])
                    new[pos[i]] = ei
            terms[tuple(new)] = terms.get(tuple(new), other.field.zero()) + other.field.coerce(c)
        return other.poly(terms)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.char == other.char
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.names, self.char, self.order))

    def __repr__(self):
        base = "QQ" if self.char == 0 else "GF(%d)" % self.char
        return "%s[%s]/%s" % (base, ",".join(self.names), self.order.kind)


def add_terms(data, terms, p, sign=1):
    """``data`` plus ``sign`` (1 or -1) times the (key, coeff) ``terms``, in place
    and in one pass, in characteristic p: sums reduced mod p, zeros dropped (a
    zero input is allowed), an integral char-0 value stored as an ``int``."""
    get = data.get
    for k, c in terms:
        s = get(k)  # an absent key costs no arithmetic: 0 + c is slow for a Fraction
        s = (c if sign > 0 else -c) if s is None else (s + c if sign > 0 else s - c)
        if p:
            s %= p
        elif type(s) is not int and s.denominator == 1:
            s = s.numerator
        if s:
            data[k] = s
        else:
            data.pop(k, None)
    return data


def scale_terms(data, c, p):
    """A new dict of ``data``'s values times the field element c, with the
    invariants of ``add_terms``."""
    if not c:
        return {}
    if p:
        return {k: v * c % p for k, v in data.items()}
    out = {k: v * c for k, v in data.items()}
    for k, v in out.items():
        if type(v) is not int and v.denominator == 1:
            out[k] = v.numerator
    return out


def _exp_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


class Polynomial:
    """Immutable polynomial; do not mutate ``terms``."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        terms = self._coerce(other).terms.items()
        return Polynomial(self.ring, add_terms(dict(self.terms), terms, self.ring.char))

    def __neg__(self):
        return Polynomial(self.ring, add_terms({}, self.terms.items(), self.ring.char, -1))

    def __sub__(self, other):
        terms = self._coerce(other).terms.items()
        return Polynomial(self.ring, add_terms(dict(self.terms), terms, self.ring.char, -1))

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = _exp_mul(ea, eb)
                s = terms.get(e)
                if s is None:
                    terms[e] = ca * cb
                else:
                    terms[e] = s + ca * cb
        return Polynomial(self.ring, add_terms({}, terms.items(), self.ring.char))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, n):
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale(self, c):
        c = self.ring.field.coerce(c)
        return Polynomial(self.ring, scale_terms(self.terms, c, self.ring.char))

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        return self.ring.const(other)

    # -- structure ---------------------------------------------------------

    def lead(self):
        """(exponent tuple, coefficient) of the leading term."""
        e = min(self.terms, key=self.ring.order.lead_key)
        return e, self.terms[e]

    def lead_exp(self):
        return self.lead()[0]

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def variables(self):
        used = set()
        for e in self.terms:
            for i, ei in enumerate(e):
                if ei:
                    used.add(self.ring.names[i])
        return used

    def coeff_of(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero())

    def sorted_terms(self):
        key = self.ring.order.lead_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]))

    # -- substitution ------------------------------------------------------

    def substitute(self, images):
        """Evaluate under name -> polynomial (in any common ring)."""
        ring = None
        for v in images.values():
            ring = v.ring
            break
        if ring is None:
            ring = self.ring
        imgs = []
        for n in self.ring.names:
            if n in images:
                imgs.append(images[n])
            else:
                imgs.append(ring.var(n))
        out = ring.zero()
        for e, c in self.terms.items():
            t = ring.const(c)
            for i, ei in enumerate(e):
                if ei:
                    t = t * imgs[i] ** ei
            out = out + t
        return out

    def __repr__(self):
        return format_poly(self)


def format_coeff(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        return "%d/%d" % (c.numerator, c.denominator)
    return str(c)


def format_poly(f):
    if f.is_zero():
        return "0"
    names = f.ring.names
    pieces = []
    for e, c in f.sorted_terms():
        mono = "*".join(
            n if k == 1 else "%s^%d" % (n, k) for n, k in zip(names, e) if k
        )
        cs = format_coeff(c)
        if mono:
            if cs == "1":
                term = mono
            elif cs == "-1":
                term = "-" + mono
            else:
                term = cs + "*" + mono
        else:
            term = cs
        pieces.append(term)
    out = pieces[0]
    for t in pieces[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def nullspace(field, rows, ncols):
    """Basis of the kernel of a matrix over ``field`` (list of coefficient rows)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        m[r] = [x * inv for x in m[r]]
        if field.char:
            m[r] = [x % field.char for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                if field.char:
                    m[i] = [x % field.char for x in m[i]]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for pr, pc in enumerate(pivots):
            v[pc] = -m[pr][fc]
            if field.char:
                v[pc] %= field.char
        basis.append(v)
    return basis


def poly_divide_exact(f, g):
    """q with f = q*g; raises when the division is not exact."""
    ring = f.ring
    q = ring.zero()
    r = f
    (eg, cg) = g.lead()
    inv = ring.field.inv(cg)
    while r:
        (er, cr) = r.lead()
        if not all(a >= b for a, b in zip(er, eg)):
            raise ArithmeticError("inexact polynomial division")
        shift = tuple(a - b for a, b in zip(er, eg))
        c = cr * inv
        term = ring.poly({shift: c})
        q = q + term
        r = r - term * g
    return q
