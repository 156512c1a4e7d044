"""Exact multivariate polynomial arithmetic over Q or a prime field.

There is one term type, ``Vec``: an element of a free module R^r, and a
polynomial is a Vec in component 0 (Greuel-Pfister, *A Singular
Introduction to Commutative Algebra*, Ch. 2).  Its terms are an immutable
dict mapping packed keys to nonzero field elements: ints or
``fractions.Fraction``s in characteristic 0 (see ``Rationals``) and ints
reduced mod p in characteristic p, never floats.

The key of x^e in component j is one int j*2^cs + K(e), with K(e) = OFF +
sum(e_i * W_i) (Bachmann-Schoenemann, ISSAC 1998; Monagan-Pearce, JSC 46,
2011), laid out by the ``_Packing`` that the rings of one (nvars, order)
share.  The high digits of K(e), the ``TermOrder.lead_key`` of e,
make ascending keys the descending position-over-term order; K is linear in
e, so a product adds keys, less OFF, and a shift to another component adds
a multiple of 2^cs.  Its low 16-bit fields hold e, a guard bit over 15 bits
each: x^a divides x^b when ``(K(b) - K(a)) & GUARD == 0``.  Exponents stay
below ``LIMIT`` = 2^15: encoding checks them and a product or power past it
raises ``ResourceGuardExceeded``, so no field carries into the next.
Exponent tuples are made only at the edges: ``PolyRing.poly`` and
``Vec(ring, data)`` (parsing), the monomial writer ``PolyRing.exponents``,
printing, ``lead`` (Hilbert leads), the decoded ``data`` view, and
``transfer`` and ``restrict`` through one key map per pair of rings.

Only this module and ``groebner``, whose speed depends on it, read the
layout (``pk``).  The others go through ``Vec.components``, ``rank``,
``constants``, ``unit`` and ``shifted`` and ``PolyRing.key``, ``restrict``,
``split`` and ``transpose``.

Every term dictionary (a ``Vec``'s, a Hilbert numerator) is added or
subtracted by ``add_terms`` and scaled by ``scale_terms``, which keep these
invariants.  Only Buchberger's ``_spair`` and ``_reduce`` fuse their own
multiply-subtract: a kernel call per term made the S-pair 10-15% slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import mul

LIMIT = 1 << 15  # every exponent stays below this
_FIELD = 16  # bits of one packed exponent: 15 of value and a guard bit


class ResourceGuardExceeded(RuntimeError):
    """Raised when a Groebner computation exceeds the configured budget."""


def _check_exponent(e):
    if e >= LIMIT:
        raise ResourceGuardExceeded(
            "Groebner kernel: exponent %s exceeds the limit %d" % (exact_text(e), LIMIT - 1))


def exact_text(c):
    """An int, or a Fraction as "p/q", in full: ``str`` refuses past 4300 digits."""
    text = str(Decimal(c.numerator))
    return text if c.denominator == 1 else "%s/%s" % (text, Decimal(c.denominator))


class Rationals:
    """The field Q.  An element is an ``int`` or a ``Fraction``, never a float:
    ``coerce`` and ``inv`` return an ``int`` for an integral value, mixed
    arithmetic is exact and ``Fraction(n, 1) == n``, hash included."""

    char = 0

    def coerce(self, v):
        if type(v) is int:
            return v
        if type(v) is not Fraction:
            v = Fraction(v)
        return v.numerator if v.denominator == 1 else v

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
            raise ValueError("characteristic must be below %d: %s" % (_MR_BOUND, exact_text(p)))
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
        """A flat tuple whose ascending order is this order's descending order."""
        if self.kind == "grevlex":
            return (-sum(exps),) + exps[::-1]
        if self.kind == "lex":
            return tuple(-e for e in exps)
        if self.kind == "block":
            f, r = exps[: self.front], exps[self.front:]
            return (-sum(f),) + f[::-1] + (-sum(r),) + r[::-1]
        raise ValueError("unknown order %r" % self.kind)


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")
_PACKINGS = {}  # (nvars, order) -> its _Packing


class _Packing:
    """The packed keys of one (nvars, order), laid out as the module
    docstring says: ``key`` encodes exponents and ``exps`` decodes the
    low part of a key, both through tables of the exponents met so far."""

    def __init__(self, n, order):
        rows = [order.lead_key(tuple(int(i == k) for i in range(n))) for k in range(n)]
        m = len(rows[0]) if rows else 0
        spread = max((sum(abs(r[d]) for r in rows) for d in range(m)), default=0)
        b = (spread << _FIELD).bit_length() + 1  # a digit's |value| < 2^b / 2
        low = _FIELD * n
        self.n, self.cs = n, b * m + low  # BIG = 2^cs
        self.mask = (1 << self.cs) - 1
        self.off = 1 << self.cs - 1 if m else 0
        self.guard = sum(LIMIT << _FIELD * k for k in range(n))
        self.weights = [(sum(a << b * (m - 1 - d) for d, a in enumerate(row)) << low)
                        + (1 << _FIELD * k) for k, row in enumerate(rows)]
        self.enc, self.dec = {}, {}

    def key(self, e):
        """K(e)."""
        k = self.enc.get(e)
        if k is None:
            _check_exponent(max(e, default=0))
            k = self.enc[e] = self.off + sum(map(mul, e, self.weights))
            self.dec[k] = e
        return k

    def exps(self, r):
        """The exponents of a key's low part r = K & mask; ``key`` checks them."""
        if r not in self.dec:
            self.key(tuple(r >> _FIELD * i & 0xFFFF for i in range(self.n)))
        return self.dec[r]

    def degree(self, k):
        """The total degree of the monomial of any key."""
        return sum(self.exps(k & self.mask))

    def checked(self, terms):
        """``terms``, whose keys must set no guard bit: decoding one that
        does trips the guard."""
        for k in terms:
            if k & self.guard:
                self.exps(k & self.mask)
        return terms


class PolyRing:
    """A polynomial ring k[x_1..x_n] with a fixed term order; ``pk`` is the
    ``_Packing`` of its keys."""

    def __init__(self, names, char=0, order=GREVLEX):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if order.front > len(names):
            raise ValueError("block of %s variables in a ring of %d"
                             % (exact_text(order.front), len(names)))
        self.names = names
        self.nvars = len(names)
        self.char = char
        self.field = Rationals() if char == 0 else PrimeField(char)
        self.order = order
        self._index = {n: i for i, n in enumerate(names)}
        shape = (self.nvars, order)
        self.pk = _PACKINGS.get(shape) or _PACKINGS.setdefault(shape, _Packing(*shape))
        self._movers = {}  # ring -> the key map into it

    # -- constructors ------------------------------------------------------

    def key(self, e):
        """The packed key of the monomial x^e."""
        return self.pk.key(tuple(e))

    def poly(self, terms):
        """Build a polynomial from {exponent tuple: coefficient}."""
        clean = {}
        for e, c in terms.items():
            c = self.field.coerce(c)
            if c:
                clean[self.key(e)] = c
        return Vec(self, None, clean)

    def zero(self):
        return Vec(self, None, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.field.coerce(c)
        return Vec(self, None, {self.pk.off: c} if c else {})

    def var(self, name):
        return Vec(self, None, {self.pk.off + self.pk.weights[self._index[name]]: 1})

    def exponents(self, d, names=None):
        """The exponent tuples, in this ring's coordinates, of the monomials
        of degree d (none for d < 0) in the named variables, all of them by
        default: the one monomial writer.  The first name's d-th power comes
        first, in the order ``combinations_with_replacement`` runs through
        the names, which fixes the unknowns of ``quotients.solution_space``."""
        if d < 0:
            return []
        places = range(self.nvars) if names is None else [self._index[n] for n in names]
        return [tuple(map(combo.count, range(self.nvars)))
                for combo in combinations_with_replacement(places, d)]

    def monomials(self, d, names=None):
        """The monomials of ``exponents(d, names)``, in its order."""
        return [Vec(self, None, {self.key(e): 1}) for e in self.exponents(d, names)]

    # -- derived rings -----------------------------------------------------

    def extended(self, new_names):
        """Add variables in front, with a block order that eliminates them."""
        order = TermOrder("block", front=len(new_names))
        return PolyRing(tuple(new_names) + self.names, self.char, order)

    def subring(self, names):
        # a block order keeps its front, cut to the subring's size
        order = TermOrder(self.order.kind, min(self.order.front, len(names)))
        return PolyRing(names, self.char, order)

    def mover(self, other):
        """The key map into ``other``, matching variables by name and built
        once per pair of rings: None for a monomial in a variable ``other``
        lacks."""
        move = self._movers.get(other)
        if move is None:
            pos = [other._index.get(n, -1) for n in self.names]
            memo, exps, key = {}, self.pk.exps, other.pk.key

            def move(k):
                if k not in memo:
                    e = [0] * (other.nvars + 1)  # e[-1] sums the lacking variables
                    for p, a in zip(pos, exps(k)):
                        e[p] += a
                    memo[k] = None if e[-1] else key(tuple(e[:-1]))
                return memo[k]

            self._movers[other] = move
        return move

    def transfer(self, f, other):
        """Map a polynomial into ``other`` matching variables by name.

        Variables of ``f``'s ring absent from ``other`` must not occur in f.
        """
        move, coerce = self.mover(other), other.field.coerce
        terms = {move(k): d for k, c in f.terms.items() if (d := coerce(c))}
        if None in terms:
            lacking = sorted(f.variables() - set(other.names))
            raise ValueError("variables %s not in target ring" % lacking)
        return Vec(other, None, terms)

    def restrict(self, v, other, n):
        """The first n components of v in ``other``'s free module of rank n,
        matching variables by name: a term in a variable ``other`` lacks is
        dropped (that variable is set to zero)."""
        cs, m, move, to = self.pk.cs, self.pk.mask, self.mover(other), other.pk.cs
        return Vec(other, None, {
            (k >> cs << to) + r: c
            for k, c in v.terms.items()
            if k >> cs < n and (r := move(k & m)) is not None
        })

    def split(self, f, front, other):
        """f as {exponents of a monomial m in the first ``front`` variables:
        its coefficient, a polynomial in the others moved into ``other``}, f
        the sum of m * coefficient and the m in the order of f's terms, so the
        first is the lead's under an order that eliminates them.  The one
        coefficient split: for ``Embedding.pushforward``, and for the generic-row
        and equivalence verdicts of ROADMAP items 3 and 4."""
        pk, move, pad = self.pk, self.mover(other), (0,) * (self.nvars - front)
        parts = {}
        for k, c in sorted(f.terms.items()):  # ascending keys: greatest term first
            head = pk.exps(k)[:front]
            # K is linear in e, so the rest of the monomial is one subtraction
            parts.setdefault(head, {})[move(k - pk.key(head + pad) + pk.off)] = c
        return {head: Vec(other, None, terms) for head, terms in parts.items()}

    def transpose(self, cols, nrows):
        """The columns of the transpose of the map into R^nrows whose columns
        are ``cols``."""
        out, cs, m = [{} for _ in range(nrows)], self.pk.cs, self.pk.mask
        for j, v in enumerate(cols):
            for k, c in v.terms.items():
                out[k >> cs][(j << cs) + (k & m)] = c
        return [Vec(self, None, terms) for terms in out]

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


def _cleared(data):
    """(d, d * data) with d the least common denominator: every value an int."""
    if all(type(c) is int for c in data.values()):
        return 1, data
    d = lcm(*(c.denominator for c in data.values()))
    return d, scale_terms(data, d, 0)


class Vec:
    """An element of a free module R^r, a polynomial being one in component
    0; immutable by convention.

    ``terms`` maps packed keys to coefficients and may not be mutated;
    ``data`` decodes them to {(component, exps): coeff} on each read, for
    tests and tools, and a Vec made from ``data`` packs it.  A ``top``
    passed in must be the (key, coeff) of the least key of ``terms``.  A Vec
    returned by ``primitive()`` is marked so, and is its own ``primitive()``.
    """

    __slots__ = ("ring", "pk", "terms", "_top", "_lead", "_primitive")

    def __init__(self, ring, data=None, terms=None, top=None):
        self.ring = ring
        self.pk = pk = ring.pk
        if terms is None:
            terms = {(j << pk.cs) + pk.key(e): c for (j, e), c in data.items()}
        self.terms = terms
        self._top = top
        self._lead = None
        self._primitive = False

    @classmethod
    def unit(cls, ring, comp):
        return cls(ring, None, {(comp << ring.pk.cs) + ring.pk.off: 1})

    @property
    def data(self):
        exps, cs, m = self.pk.exps, self.pk.cs, self.pk.mask
        return {(k >> cs, exps(k & m)): c for k, c in self.terms.items()}

    def _with(self, terms, top=None):
        return Vec(self.ring, None, terms, top)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        terms = self._coerce(other).terms.items()
        return self._with(add_terms(dict(self.terms), terms, self.ring.char))

    def __neg__(self):
        return self._with(add_terms({}, self.terms.items(), self.ring.char, -1))

    def __sub__(self, other):
        terms = self._coerce(other).terms.items()
        return self._with(add_terms(dict(self.terms), terms, self.ring.char, -1))

    def __mul__(self, other):
        """The product of two polynomials, or of a polynomial and a vector:
        one factor must lie in component 0, so keys add, less OFF."""
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        pk = self.pk
        if max(a, default=0) >> pk.cs and max(b) >> pk.cs:
            raise ValueError("a product of two vectors")
        terms = {}
        for ka, ca in a.items():
            ka -= pk.off
            for kb, cb in b.items():
                k = ka + kb
                s = terms.get(k)
                terms[k] = ca * cb if s is None else s + ca * cb
        return self._with(pk.checked(add_terms({}, terms.items(), self.ring.char)))

    __radd__ = __add__
    __rmul__ = __mul__

    def check_power(self, n):
        """Refuse self^n before it is built: a negative n, or an exponent past LIMIT."""
        if n < 0:
            raise ValueError("negative exponent %d" % n)
        # a variable of degree d in self has degree n*d in self^n; a constant counts n
        top = max((max(self.pk.exps(k & self.pk.mask), default=0) for k in self.terms), default=0)
        _check_exponent(n * (top or 1))

    def __pow__(self, n):
        self.check_power(n)
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale(self, c):
        return self._with(scale_terms(self.terms, self.ring.field.coerce(c), self.ring.char))

    def _coerce(self, other):
        if isinstance(other, Vec):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        return self.ring.const(other)

    # -- components --------------------------------------------------------

    def component(self, i):
        """The polynomial in slot i."""
        cs = self.pk.cs
        s = i << cs
        return self._with({k - s: c for k, c in self.terms.items() if k >> cs == i})

    def components(self):
        """{component: polynomial} in ascending order, in one pass over the terms."""
        parts, cs, m = {}, self.pk.cs, self.pk.mask
        for k, c in self.terms.items():
            parts.setdefault(k >> cs, {})[k & m] = c
        return {i: self._with(terms) for i, terms in sorted(parts.items())}

    def rank(self):
        """One more than the highest component with a term; 0 for zero."""
        return (max(self.terms) >> self.pk.cs) + 1 if self.terms else 0

    def constants(self):
        """{component: coefficient} of the constant entries."""
        cs, m, one = self.pk.cs, self.pk.mask, self.pk.off
        return {k >> cs: c for k, c in self.terms.items() if k & m == one}

    def shifted(self, d):
        """This vector with component j moved to j + d."""
        s, top = d << self.pk.cs, self._top
        out = self._with({k + s: c for k, c in self.terms.items()}, top and (top[0] + s, top[1]))
        out._primitive = self._primitive
        return out

    def renumbered(self, new):
        """This vector with component j moved to new[j]."""
        cs, m = self.pk.cs, self.pk.mask
        return self._with({(new[k >> cs] << cs) + (k & m): c for k, c in self.terms.items()})

    # -- leads -------------------------------------------------------------

    def top(self):
        """(key, coeff) of the lead term, packed."""
        if self._top is None:
            k = min(self.terms)
            self._top = (k, self.terms[k])
        return self._top

    def lead(self):
        """((component, exps), coeff) under position-over-term order."""
        if self._lead is None:
            k, c = self.top()
            self._lead = ((k >> self.pk.cs, self.pk.exps(k & self.pk.mask)), c)
        return self._lead

    def monic(self):
        if not self:
            return self
        k, c = self.top()
        inv = self.ring.field.inv(c)
        return self._with(scale_terms(self.terms, inv, self.ring.char), (k, 1))

    def primitive(self):
        """Over Q the integer multiple with coprime coefficients and a positive
        lead, ``monic()`` in char p; self when it is that already.  The result
        is marked, so calling this on it again costs O(1)."""
        if self._primitive or not self:
            return self
        k, c = self.top()
        if self.ring.char:
            out = self if c == 1 else self.monic()
        else:
            _, terms = _cleared(self.terms)
            g = gcd(*terms.values()) if c > 0 else -gcd(*terms.values())
            if g != 1:
                terms = {t: v // g for t, v in terms.items()}
            out = self if terms is self.terms else self._with(terms, (k, terms[k]))
        out._primitive = True
        return out

    # -- structure ---------------------------------------------------------

    def _degrees(self, twists):
        cs, degree = self.pk.cs, self.pk.degree
        return [degree(k) + twists[k >> cs] for k in self.terms]

    def degree(self, twists=(0,)):
        """Max degree of terms, offset by ``twists[j]`` in component j; -1
        for zero."""
        return max(self._degrees(twists), default=-1)

    def is_homogeneous(self, twists=(0,)):
        return len(set(self._degrees(twists))) <= 1

    def is_constant(self):
        return set(self.terms) <= {self.pk.off}

    def variables(self):
        exps, names = self.pk.exps, self.ring.names
        return {n for k in self.terms for n, a in zip(names, exps(k)) if a}

    def substitute(self, images):
        """Evaluate a polynomial under name -> polynomial (in any common ring)."""
        ring = next(iter(images.values())).ring if images else self.ring
        imgs = [images[n] if n in images else ring.var(n) for n in self.ring.names]
        powers = {(i, 1): img for i, img in enumerate(imgs)}  # (i, a) -> imgs[i] ** a
        out = {}
        for k, c in self.terms.items():
            t = ring.const(c)
            for i, a in enumerate(self.pk.exps(k)):
                if a:
                    if (i, a) not in powers:
                        powers[i, a] = imgs[i] ** a
                    t = t * powers[i, a]
            add_terms(out, t.terms.items(), ring.char)
        return Vec(ring, None, out)

    def __repr__(self):
        """A polynomial prints greatest term first, a vector as <j: f_j, ...>."""
        names, exps, cs, m = self.ring.names, self.pk.exps, self.pk.cs, self.pk.mask
        parts = {}
        for k, c in sorted(self.terms.items()):  # ascending keys: greatest term first
            mono = "*".join(n if a == 1 else "%s^%d" % (n, a)
                            for n, a in zip(names, exps(k & m)) if a)
            text = exact_text(c)
            if mono:
                text = text[:-1] if text in ("1", "-1") else text + "*"
            parts.setdefault(k >> cs, []).append(text + mono)
        texts = {j: " + ".join(p).replace(" + -", " - ") for j, p in parts.items()}
        if set(texts) <= {0}:
            return texts.get(0, "0")
        return "<%s>" % ", ".join("%d: %s" % jt for jt in texts.items())


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
        v = [0] * ncols
        v[fc] = 1
        for pr, pc in enumerate(pivots):
            v[pc] = -m[pr][fc]
            if field.char:
                v[pc] %= field.char
        basis.append(v)
    return basis


def poly_divide_exact(f, g):
    """q with f = q*g; raises when the division is not exact, that is when
    g's lead fails the guard-bit divisor test on a remainder's lead."""
    ring, pk = f.ring, f.ring.pk
    kg = min(g.terms)
    inv = ring.field.inv(g.terms[kg])
    q, r = {}, f
    while r:
        kr = min(r.terms)
        if (kr - kg) & pk.guard:
            raise ArithmeticError("inexact polynomial division")
        term = Vec(ring, None, {kr - kg + pk.off: ring.field.coerce(r.terms[kr] * inv)})
        q.update(term.terms)
        r = r - term * g
    return Vec(ring, None, q)
