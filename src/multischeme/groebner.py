"""Buchberger's algorithm for ideals and submodules of free modules.

Free-module elements are dicts mapping (component, exponent tuple) to field
elements.  The module order is position-over-term: lower component index wins,
ties broken by the ring's monomial order.  Putting the components to be
eliminated first therefore makes every Groebner basis an elimination basis
for those components, which is how ``syzygies`` extracts a kernel.

``buchberger`` is the one Buchberger run.  It returns the primitive,
unreduced basis: its leads span the initial module, and the normal form
modulo it is the one modulo any Groebner basis (Becker-Weispfenning,
*Groebner Bases*, Ch. 5), so lead and membership questions read it as it
is.  ``interreduce`` makes the reduced basis only where that is the answer:
``groebner_basis``, ``syzygies`` and ``Ideal.groebner``.  Reduction reads
each basis through one ``lead_index``, built once.  When the first ``known``
inputs are a Groebner basis already (an ideal's cached basis, the image a
kernel is taken modulo), no S-pair of two of them is formed: each has a
standard representation, and every later input enters reduced modulo the
basis built so far.  A kernel modulo an image with a known basis B is
``syzygies(vecs, rank, modulo=B)``: {h : sum h_i v_i in <B>}, the plain
syzygies when B is empty.

Over Q, Buchberger runs on primitive integer vectors (``Vec.primitive``):
S-pairs cross-multiply the integer leads and a reduction step scales the
remainder instead of dividing by a lead, so no Fraction arises until the
reduced basis is made monic, and a normal form is divided once at the end.
In char p every basis element is monic throughout.  A Vec's cached lead
is always the position-over-term lead of its ``data``: ``_reduce`` returns
each remainder with it set, ``primitive()`` and ``monic()`` keep it, and
``primitive()`` marks its result, so no vector is made primitive twice.

A Vec adds, subtracts and scales through ``ring.add_terms`` and
``ring.scale_terms``.  ``_spair`` and ``_reduce`` keep their multiply-subtract
inline: routed through ``add_terms``, the one-pass S-pair ran 10-15% slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub

from .ring import add_terms, scale_terms


class ResourceGuardExceeded(RuntimeError):
    """Raised when a Groebner computation exceeds the configured budget."""


@dataclass
class Guard:
    max_basis: int = 20000
    max_degree: int = 40

    def check_basis(self, n):
        if n > self.max_basis:
            raise ResourceGuardExceeded("basis size %d exceeds budget %d" % (n, self.max_basis))

    def check_degree(self, d):
        if d > self.max_degree:
            raise ResourceGuardExceeded("S-pair degree %d exceeds budget %d" % (d, self.max_degree))


DEFAULT_GUARD = Guard()


class Vec:
    """An element of a free module R^r; immutable by convention.

    ``lead()`` is computed once and cached, so ``data`` must never be mutated
    after construction: build a new Vec instead.  A ``lead`` passed in must be
    the position-over-term lead ((component, exps), coeff) of ``data``.  A Vec
    returned by ``primitive()`` is marked so, and is its own ``primitive()``.
    """

    __slots__ = ("ring", "data", "_lead", "_primitive")

    def __init__(self, ring, data, lead=None):
        self.ring = ring
        self.data = data
        self._lead = lead
        self._primitive = False

    @classmethod
    def from_poly(cls, f, comp=0):
        return cls(f.ring, {(comp, e): c for e, c in f.terms.items()})

    @classmethod
    def unit(cls, ring, comp):
        return cls(ring, {(comp, ring._zero_exp): ring.field.one()})

    def is_zero(self):
        return not self.data

    def __bool__(self):
        return bool(self.data)

    def component(self, i):
        """The polynomial in slot i."""
        terms = {e: c for (j, e), c in self.data.items() if j == i}
        return self.ring.poly(terms)

    def add(self, other):
        return Vec(self.ring, add_terms(dict(self.data), other.data.items(), self.ring.char))

    def sub(self, other):
        return Vec(self.ring, add_terms(dict(self.data), other.data.items(), self.ring.char, -1))

    def scale(self, c):
        return Vec(self.ring, scale_terms(self.data, self.ring.field.coerce(c), self.ring.char))

    def mul_term(self, exps, c):
        """Multiply by the term c * x^exps."""
        shifted = {(j, tuple(map(add, e, exps))): v for (j, e), v in self.data.items()}
        return Vec(self.ring, shifted).scale(c)

    def lead(self):
        """((component, exps), coeff) under position-over-term order."""
        if self._lead is None:
            lkey = self.ring.order.lead_key
            k = min(self.data, key=lambda t: (t[0], lkey(t[1])))
            self._lead = (k, self.data[k])
        return self._lead

    def monic(self):
        if not self.data:
            return self
        k, c = self.lead()
        inv = self.ring.field.inv(c)
        return Vec(self.ring, scale_terms(self.data, inv, self.ring.char), (k, 1))

    def primitive(self):
        """Over Q the integer multiple with coprime coefficients and a positive
        lead, ``monic()`` in char p; self when it is that already.  The result
        is marked, so calling this on it again costs O(1)."""
        if self._primitive or not self.data:
            return self
        k, c = self.lead()
        if self.ring.char:
            out = self if c == 1 else self.monic()
        else:
            _, data = _cleared(self.data)
            g = gcd(*data.values()) if c > 0 else -gcd(*data.values())
            if g != 1:
                data = {t: v // g for t, v in data.items()}
            out = self if data is self.data else Vec(self.ring, data, (k, data[k]))
        out._primitive = True
        return out

    def degree_with(self, twists):
        """Max degree of terms, offset by generator degrees per component."""
        if not self.data:
            return -1
        return max(sum(e) + twists[j] for (j, e) in self.data)

    def is_homogeneous_with(self, twists):
        degs = {sum(e) + twists[j] for (j, e) in self.data}
        return len(degs) <= 1

    def __repr__(self):
        comps = {}
        for (j, e), c in self.data.items():
            comps.setdefault(j, {})[e] = c
        inner = ", ".join("%d: %s" % (j, self.ring.poly(t)) for j, t in sorted(comps.items()))
        return "<%s>" % inner


def _divides(a, b):
    return all(map(le, a, b))


def _cleared(data):
    """(d, d * data) with d the least common denominator: every value an int."""
    if all(type(c) is int for c in data.values()):
        return 1, data
    d = lcm(*(c.denominator for c in data.values()))
    return d, scale_terms(data, d, 0)


def lead_index(basis):
    """component -> [(lead exps, lead coeff, Vec)] in basis order; the first
    divisor reduces.  The Vecs are primitive (``Vec.primitive``)."""
    index = {}
    for g in filter(None, basis):
        g = g.primitive()
        (j, e), c = g.lead()
        index.setdefault(j, []).append((e, c, g))
    return index


def normal_form(v, basis):
    """Fully reduce v (every term, not just the lead) modulo a list of Vecs,
    of polynomials when v is one, or their prebuilt ``lead_index``."""
    if not isinstance(basis, dict):
        basis = lead_index(g if isinstance(g, Vec) else Vec.from_poly(g) for g in basis)
    if isinstance(v, Vec):
        return _nf_vec(v, basis)
    return _nf_vec(Vec.from_poly(v), basis).component(0)


def _nf_vec(v, index):
    """The exact normal form of v modulo a ``lead_index``."""
    den, data = _cleared(v.data)
    rem, scale = _reduce(Vec(v.ring, data), index)
    scale *= den
    return rem if scale == 1 or not rem else rem.scale(Fraction(1, scale))


def _reduce(v, index):
    """(r, s) with r = s * (normal form of v) for an int s > 0.  Over Q, v and
    the index hold ints, and so does r: a step by g scales everything by
    cg / gcd(cc, cg) rather than dividing by cg.  In char p, s is 1.

    Terms leave the heap greatest first and a step only creates smaller
    ones, so ``rem`` is filled in descending order: r carries its first
    term, read after the last scaling, as its lead."""
    ring = v.ring
    field = ring.field
    p = ring.char
    lkey = ring.order.lead_key
    work = dict(v.data)
    # The terms of ``work``, greatest first.  An entry whose monomial has left
    # ``work`` (cancelled, or re-created and already handled) is skipped.
    heap = [(j, lkey(e), e) for j, e in work]
    heapify(heap)
    rem = {}
    scale = 1
    while heap:
        jc, _, ec = heappop(heap)
        cc = work.get((jc, ec))
        if cc is None:
            continue
        for eg, cg, g in index.get(jc, ()):
            if all(map(le, eg, ec)):
                break
        else:
            rem[(jc, ec)] = cc
            del work[jc, ec]
            continue
        if p:
            factor = cc * field.inv(cg)
        else:
            q = gcd(cc, cg)
            factor, m = cc // q, cg // q
            if m != 1:
                scale *= m
                for t in work:
                    work[t] *= m
                for t in rem:
                    rem[t] *= m
        shift = tuple(map(sub, ec, eg))
        # the lead term cancels (jc, ec) itself; every other term is smaller
        for (jg2, eg2), cg2 in g.data.items():
            e = tuple(map(add, eg2, shift))
            k = (jg2, e)
            s = work.get(k, 0) - factor * cg2
            if p:
                s %= p
            if s:
                if k not in work:
                    heappush(heap, (jg2, lkey(e), e))
                work[k] = s
            else:
                work.pop(k, None)
    return Vec(ring, rem, next(iter(rem.items()), None)), scale


def _spair(f, g):
    """(cg/q) x^a f - (cf/q) x^b g for q = gcd(cf, cg): over Q the leads of
    primitive f and g are ints, in char p they are 1.  Built in one dict,
    without the two lead terms, which cancel."""
    kf, cf = f.lead()
    kg, cg = g.lead()
    assert kf[0] == kg[0]
    top = tuple(map(max, kf[1], kg[1]))
    q = gcd(cf, cg)
    mf, mg, p = cg // q, cf // q, f.ring.char
    sf, sg = tuple(map(sub, top, kf[1])), tuple(map(sub, top, kg[1]))
    data = {(k[0], tuple(map(add, k[1], sf))): c * mf % p if p else c * mf
            for k, c in f.data.items() if k != kf}
    for k, c in g.data.items():
        if k != kg:
            k = (k[0], tuple(map(add, k[1], sg)))
            s = data.get(k, 0) - c * mg
            if p:
                s %= p
            if s:
                data[k] = s
            else:
                del data[k]
    return Vec(f.ring, data)


def buchberger(vecs, guard=None, known=0):
    """Primitive, unreduced Groebner basis of the submodule generated by
    ``vecs``: the input, then each S-pair remainder.  The first ``known``
    vectors must be a Groebner basis: no S-pair of two of them is formed,
    and each later input enters reduced modulo the basis so far and is
    dropped if that is zero."""
    guard = guard or DEFAULT_GUARD
    known = sum(map(bool, vecs[:known]))  # the count left once zeros are dropped
    vecs = [v.primitive() for v in vecs if v]
    if not vecs:
        return []
    # remainders of rank-1 input stay in component 0
    rank1 = all(j == 0 for g in vecs for j, _ in g.data)
    G = []
    leads = []  # leads[i] = (component, exps) of G[i]
    same = {}  # component -> [(i, exps)] for the G[i] leading there
    index = {}  # the lead_index of G, extended with each new element
    # ``pairs`` maps the pending pairs (i, j), i < j, to their lcm for the
    # chain criterion; ``queue`` pops them by (degree, i, j).
    pairs = {}
    queue = []

    def add_pairs(g):
        new = len(leads)
        (comp, exps), c = g.lead()
        here = same.setdefault(comp, [])
        if new >= known:  # two known elements form no pair
            for k, ek in here:
                lcm = tuple(map(max, ek, exps))
                pairs[(k, new)] = lcm
                heappush(queue, (sum(lcm), k, new))
        here.append((new, exps))
        leads.append((comp, exps))
        index.setdefault(comp, []).append((exps, c, g))

    for n, g in enumerate(vecs):
        if known and n >= known:  # a new input enters reduced, or not at all
            g = _reduce(g, index)[0].primitive()
            if not g:
                continue
        G.append(g)
        add_pairs(g)
    while queue:
        deg, i, j = heappop(queue)
        lcm = pairs.pop((i, j))
        (comp, ei), (_, ej) = leads[i], leads[j]
        # product criterion (valid only in the ideal case)
        if rank1 and all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue
        # chain criterion
        for k, ek in same[comp]:
            if (
                k != i
                and k != j
                and _divides(ek, lcm)
                and (min(i, k), max(i, k)) not in pairs
                and (min(j, k), max(j, k)) not in pairs
            ):
                break
        else:
            # only a pair that is reduced counts against the degree budget
            guard.check_degree(deg)
            rem, _ = _reduce(_spair(G[i], G[j]), index)
            if rem:
                G.append(rem.primitive())
                guard.check_basis(len(G))
                add_pairs(G[-1])
    return G


def interreduce(G):
    """Minimal reduced basis: prune divisible leads, tail-reduce, sort."""
    G = [g.primitive() for g in G if g]
    if not G:
        return []
    lkey = G[0].ring.order.lead_key
    G.sort(key=lambda g: sum(g.lead()[0][1]))
    index = {}  # the lead_index of the minimal elements
    for g in G:
        (j, e), c = g.lead()
        if not any(_divides(m, e) for m, _, _ in index.get(j, ())):
            index.setdefault(j, []).append((e, c, g))
    out = []
    for g in (g for entries in index.values() for _, _, g in entries):
        # a lead divides no smaller term of its own component, so g never
        # reduces its own tail: reducing modulo every minimal element is safe
        k, c = g.lead()
        tail, s = _reduce(Vec(g.ring, {t: d for t, d in g.data.items() if t != k}), index)
        out.append(Vec(g.ring, {k: c * s, **tail.data}, (k, c * s)).monic())
    out.sort(key=lambda g: (g.lead()[0][0], lkey(g.lead()[0][1])))
    return out


def groebner_basis(polys, guard=None):
    """Reduced Groebner basis of an ideal, as polynomials."""
    vecs = [Vec.from_poly(f) for f in polys]
    return [v.component(0) for v in interreduce(buchberger(vecs, guard))]


def syzygies(vecs, rank, guard=None, modulo=()):
    """Generators of {h : sum h_i v_i in <modulo>} inside R^len(vecs), on
    their reduced basis: the syzygy module of ``vecs`` when ``modulo`` is
    empty.

    ``vecs`` live in R^rank and ``modulo`` is a Groebner basis there.  The
    graph module {(v_i, e_i)} puts the target components first, behind
    ``modulo`` as Buchberger's known basis, so no S-pair of two elements of
    ``modulo`` is formed.  Under position-over-term, the basis elements whose
    lead lies in the components >= rank lie there and span the kernel
    (Eisenbud, *Commutative Algebra*, 15.10; Greuel-Pfister, *A Singular
    Introduction to Commutative Algebra*, 2.8); no other lead divides their
    terms, so they interreduce alone.
    """
    vecs, modulo = list(vecs), list(modulo)
    if not vecs:
        return []
    ring = vecs[0].ring
    aug = []
    for i, v in enumerate(vecs):
        data = dict(v.data)
        data[(rank + i, ring._zero_exp)] = ring.field.one()
        aug.append(Vec(ring, data))
    G = buchberger(modulo + aug, guard, known=len(modulo))
    return [
        Vec(ring, {(j - rank, e): c for (j, e), c in g.data.items()})
        for g in interreduce([g for g in G if g.lead()[0][0] >= rank])
    ]


def module_contains(v, gb):
    """Whether v reduces to 0 modulo the Vecs ``gb`` or their ``lead_index``."""
    return not _nf_vec(v, gb if isinstance(gb, dict) else lead_index(gb))


def submodule_equal(gens_a, gens_b, guard=None):
    """Whether two lists of Vecs generate the same submodule."""
    ga = lead_index(buchberger(gens_a, guard=guard))
    gb = lead_index(buchberger(gens_b, guard=guard))
    return all(module_contains(v, gb) for v in gens_a) and all(
        module_contains(v, ga) for v in gens_b
    )
