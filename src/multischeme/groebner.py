"""Buchberger's algorithm for ideals and submodules of free modules.

Free-module terms are ordered position-over-term: lower component first,
ties broken by the ring's monomial order, so a basis is an elimination
basis for the components put first, which is how ``syzygies`` extracts a
kernel.

A term is one ``ring.Vec`` key, j*BIG + K(e) with K the ring's monomial
key: ascending keys are the position-over-term order, greatest term first,
a shift is one addition, d*BIG for ``Vec.shifted``, and a lead divides a
term of its component when ``(kc - kg) & GUARD == 0``, kc - kg being the
shift.  An S-pair or reduction sum whose exponent reaches ``LIMIT`` (2^15)
sets its guard bit and trips ``ResourceGuardExceeded`` in ``_reduce``,
never wrapping.  A polynomial is a Vec in component 0, so an ideal's
generators go in and its basis comes out as they are; ``Vec.data``, the
terms decoded to (component, exponents), is for tests and tools: no
computation of the package reads it.

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
is its terms' position-over-term lead: ``_reduce`` returns each remainder
with it set, ``primitive()`` and ``monic()`` keep it, and ``primitive()``
marks its result.  ``_spair`` and ``_reduce`` keep their multiply-subtract
inline, 10-15% faster than through ``ring.add_terms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .ring import ResourceGuardExceeded, _cleared


@dataclass
class Guard:
    """The resource budget: basis size ``max_basis`` and S-pair degree ``max_degree``."""

    max_basis: int = 20000
    max_degree: int = 40

    def check_basis(self, n):
        if n > self.max_basis:
            raise ResourceGuardExceeded("basis size %d exceeds budget %d" % (n, self.max_basis))

    def check_degree(self, d):
        if d > self.max_degree:
            raise ResourceGuardExceeded("S-pair degree %d exceeds budget %d" % (d, self.max_degree))


DEFAULT_GUARD = Guard()


def lead_index(basis):
    """component -> [(packed lead key, lead coeff, Vec)] in basis order; the
    first divisor reduces.  The Vecs are primitive (``Vec.primitive``)."""
    index = {}
    for g in filter(None, basis):
        g = g.primitive()
        k, c = g.top()
        index.setdefault(k >> g.pk.cs, []).append((k, c, g))
    return index


def normal_form(v, basis):
    """Fully reduce v (every term, not just the lead) modulo a list of Vecs
    or their prebuilt ``lead_index``."""
    return _normal_form(v, basis if isinstance(basis, dict) else lead_index(basis))


def _normal_form(v, index):
    """The exact normal form of v modulo a ``lead_index``."""
    den, terms = _cleared(v.terms)
    rem, scale = _reduce(v._with(terms), index)
    scale *= den
    return rem if scale == 1 or not rem else rem.scale(Fraction(1, scale))


def _reduce(v, index):
    """(r, s) with r = s * (normal form of v) for an int s > 0.  Over Q, v and
    the index hold ints, and so does r: a step by g scales everything by
    cg / gcd(cc, cg) rather than dividing by cg.  In char p, s is 1.

    Terms leave the heap greatest first and a step only creates smaller
    ones, so ``rem`` is filled in descending order: r carries its first
    term, read after the last scaling, as its lead."""
    field = v.ring.field
    p = v.ring.char
    cs, guard = v.pk.cs, v.pk.guard
    work = dict(v.terms)
    # The keys of ``work``, least (greatest term) first.  An entry whose term
    # has left ``work`` (cancelled, or re-created and already handled) is skipped.
    heap = list(work)
    heapify(heap)
    rem = {}
    scale = 1
    while heap:
        kc = heappop(heap)
        cc = work.get(kc)
        if cc is None:
            continue
        if kc & guard:  # an exponent reached LIMIT: decoding it trips the guard
            v.pk.exps(kc & v.pk.mask)
        for kg, cg, g in index.get(kc >> cs, ()):
            shift = kc - kg
            if not shift & guard:
                break
        else:
            rem[kc] = cc
            del work[kc]
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
        # the lead term cancels kc itself; every other term is smaller
        for k, cg2 in g.terms.items():
            k += shift
            s = work.get(k, 0) - factor * cg2
            if p:
                s %= p
            if s:
                if k not in work:
                    heappush(heap, k)
                work[k] = s
            else:
                work.pop(k, None)
    return v._with(rem, next(iter(rem.items()), None)), scale


def _spair(f, g):
    """(cg/q) x^a f - (cf/q) x^b g for q = gcd(cf, cg): over Q the leads of
    primitive f and g are ints, in char p they are 1.  Built in one dict,
    without the two lead terms, which cancel."""
    (kf, cf), (kg, cg) = f.top(), g.top()
    (jf, ef), (jg, eg) = f.lead()[0], g.lead()[0]
    assert jf == jg
    top = (jf << f.pk.cs) + f.pk.key(tuple(map(max, ef, eg)))
    q = gcd(cf, cg)
    mf, mg, p = cg // q, cf // q, f.ring.char
    sf, sg = top - kf, top - kg
    data = {k + sf: c * mf % p if p else c * mf for k, c in f.terms.items() if k != kf}
    for k, c in g.terms.items():
        if k != kg:
            k += sg
            s = data.get(k, 0) - c * mg
            if p:
                s %= p
            if s:
                data[k] = s
            else:
                del data[k]
    return f._with(data)


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
    pk = vecs[0].pk
    cs, bits, enc, key = pk.cs, pk.guard, pk.enc.get, pk.key
    rank1 = not any(k >> cs for g in vecs for k in g.terms)
    G = []
    same = {}  # component -> [(i, lead exps, lead key)] for the G[i] leading there
    index = {}  # the lead_index of G, extended with each new element
    # ``pairs`` maps the pending pairs (i, j), i < j, to the packed key of
    # their lcm for the criteria; ``queue`` pops them by (degree, i, j).
    pairs = {}
    queue = []

    def add_pairs(g):
        new = len(G) - 1
        (comp, exps), c = g.lead()
        kg = g.top()[0]
        here = same.setdefault(comp, [])
        if new >= known:  # two known elements form no pair
            for k, ek, _ in here:
                lcm = tuple(map(max, ek, exps))
                pairs[(k, new)] = (comp << cs) + (enc(lcm) or key(lcm))
                heappush(queue, (sum(lcm), k, new))
        here.append((new, exps, kg))
        index.setdefault(comp, []).append((kg, c, g))

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
        # product criterion (valid only in the ideal case): the lcm is the product
        if rank1 and lcm == G[i].top()[0] + G[j].top()[0] - pk.off:
            continue
        # chain criterion
        for k, _, kk in same[lcm >> cs]:
            if (
                k != i
                and k != j
                and not (lcm - kk) & bits
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
    cs, guard = G[0].pk.cs, G[0].pk.guard
    G.sort(key=lambda g: sum(g.lead()[0][1]))
    index = {}  # the lead_index of the minimal elements
    for g in G:
        k, c = g.top()
        here = index.setdefault(k >> cs, [])
        if all((k - m) & guard for m, _, _ in here):
            here.append((k, c, g))
    out = []
    for g in (g for entries in index.values() for _, _, g in entries):
        # a lead divides no smaller term of its own component, so g never
        # reduces its own tail: reducing modulo every minimal element is safe
        k, c = g.top()
        tail, s = _reduce(g._with({t: d for t, d in g.terms.items() if t != k}), index)
        out.append(g._with({k: c * s, **tail.terms}, (k, c * s)).monic())
    out.sort(key=lambda g: g.top()[0])
    return out


def groebner_basis(polys, guard=None):
    """Reduced Groebner basis of the ideal of a list of polynomials."""
    return interreduce(buchberger(polys, guard))


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
    pk = vecs[0].pk  # e_(rank+i) has key (rank+i)*BIG + OFF
    aug = [v._with({**v.terms, ((rank + i) << pk.cs) + pk.off: 1}) for i, v in enumerate(vecs)]
    G = buchberger(modulo + aug, guard, known=len(modulo))
    return [g.shifted(-rank) for g in interreduce([g for g in G if g.lead()[0][0] >= rank])]


def module_contains(v, gb):
    """Whether v reduces to 0 modulo the Vecs ``gb`` or their ``lead_index``."""
    return not _normal_form(v, gb if isinstance(gb, dict) else lead_index(gb))


def submodule_equal(gens_a, gens_b, guard=None):
    """Whether two lists of Vecs generate the same submodule."""
    ga = lead_index(buchberger(gens_a, guard=guard))
    gb = lead_index(buchberger(gens_b, guard=guard))
    return all(module_contains(v, gb) for v in gens_a) and all(
        module_contains(v, ga) for v in gens_b
    )
