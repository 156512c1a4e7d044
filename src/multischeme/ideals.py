"""Ideal calculus: colon, saturation, intersection, elimination, Ext
annihilators, Fitting ideals, and dimension/degree bookkeeping.

An ``Ideal`` keeps the unreduced output of one Buchberger run and asks it
everything but the printed basis: the leads (the Hilbert series, the unit
ideal, an empty V(I)) and membership, since a normal form is the same modulo
any Groebner basis.  It is interreduced only when the reduced basis is asked
for; an ideal made ``from_basis``, as I_X and its powers are, runs nothing.
Every colon, intersection and Ext annihilator is one ``module_colon``: one
``syzygies`` of a stacked vector modulo the image's known basis; a sum I + J
extends I's unreduced basis, J's generators entering reduced.  Each zero-locus
question has one test: f in rad(I) when I + (f - 1) is the unit ideal, and
V(I) empty by ``is_irrelevant_primary``.  An Ext window beyond the
codimension (``ext_window``) runs over any minimal resolution: the CM
verdicts read it over the support ring.  Minimal generators survive the unit
prune of their syzygies, so R/I is resolved over R only for the tests'
reference: its hull by one saturation (``unmixed_part``) and Ext annihilators.

The resource budget is fixed where an ideal is built: ``Ideal(ring, gens,
guard)`` (and ``from_basis``, ``parse``) keeps the ``Guard`` it is given, the
default one if none, and runs every computation under it, so no cache needs
the guard in its key.  What is derived from an ideal keeps its guard: a sum,
a product, a colon, a saturation, the hull, an Ext annihilator of R/I, and an
intersection the first ideal's.  ``fitting_ideal`` builds its ideal with
its module's guard; ``module_colon`` starts from vectors, with no ideal or
module in reach, so it takes the guard explicitly.

All operations are exact and work over Q or a prime field.
"""

from __future__ import annotations

from .groebner import (
    DEFAULT_GUARD,
    buchberger,
    groebner_basis,
    interreduce,
    lead_index,
    module_contains,
    normal_form,
    syzygies,
)
from .hilbert import ideal_hilbert_series
from .modules import GradedModule, _prune_units, free_resolution, minors
from .parse import parse_ideal
from .ring import Vec


class Ideal:
    """An ideal with its Groebner bases (in the ring's order: the unreduced one
    of one Buchberger run, interreduced on demand), Hilbert series and
    minimal resolution of R/I cached.  Every one of them is computed under
    the ideal's own ``guard``, fixed when it is built."""

    def __init__(self, ring, gens, guard=None):
        self.ring = ring
        self.gens = tuple(g for g in gens if g)
        for g in self.gens:
            if g.ring is not ring and g.ring != ring:
                raise ValueError("a generator over %r in an ideal over %r" % (g.ring, ring))
        self.guard = guard or DEFAULT_GUARD
        self._raw = None  # the unreduced Groebner basis, as Vecs
        self._gb = None  # the reduced basis
        self._known = 0  # the first _known gens are a Groebner basis
        self._index = None  # lead_index of the unreduced basis
        self._series = None
        self._res = None

    @classmethod
    def from_basis(cls, ring, basis, guard=None):
        """The ideal generated by a reduced Groebner basis, kept as its basis
        (reduced and unreduced alike)."""
        out = cls(ring, basis, guard)
        out._gb = out._raw = list(out.gens)
        return out

    @classmethod
    def parse(cls, ring, text, guard=None):
        return cls(ring, parse_ideal(ring, text), guard)

    def groebner(self):
        if self._gb is None:
            self._gb = interreduce(self.unreduced())
        return self._gb

    def unreduced(self):
        """The unreduced basis of one Buchberger run (an ideal made
        ``from_basis`` holds its basis already)."""
        if self._raw is None:
            self._raw = buchberger(list(self.gens), self.guard, self._known)
        return self._raw

    def leads(self):
        """Lead exponents of the unreduced basis: they span in(I)."""
        return [v.lead()[0][1] for v in self.unreduced()]

    def reduce(self, f):
        """The normal form of f, read modulo the unreduced basis."""
        if self._index is None:
            self._index = lead_index(self.unreduced())
        return normal_form(f, self._index)

    def contains(self, f):
        return self.reduce(f).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def equals(self, other):
        return self.groebner() == other.groebner()

    def is_zero(self):
        return not self.gens

    def is_one(self):
        return not all(map(any, self.leads()))  # some lead is constant

    def plus(self, other):
        """I + J, extending I's unreduced basis (computed first if need be):
        J's generators enter it reduced.  It keeps I's guard."""
        known = self.unreduced()
        out = Ideal(self.ring, (*known, *other.gens), self.guard)
        out._known = len(known)
        return out

    def times(self, other):
        """I*J on the products of generators, each kept once, in first-seen
        order: (x, y)^3 has 4 generators, not 8.  It keeps I's guard."""
        products = dict.fromkeys(f * g for f in self.gens for g in other.gens)
        return Ideal(self.ring, products, self.guard)

    def hilbert_series(self):
        if self._series is None:
            self._series = ideal_hilbert_series(self.ring, self.leads())
        return self._series

    def hilbert_polynomial(self):
        return self.hilbert_series().polynomial()

    def dimension_degree(self):
        """(projective dimension of V(I), degree); empty scheme gives (-1, 0)."""
        return self.hilbert_series().dimension_degree()

    def codimension(self):
        return (self.ring.nvars - 1) - self.dimension_degree()[0]

    def minimal_gens(self):
        """A minimal homogeneous generating set, sorted by degree: the reduced
        basis less the elements ``_prune_units`` removes from its first
        syzygies, as ``free_resolution`` does for R/I.  With no unit entry
        left, none is redundant (graded Nakayama; Eisenbud, Ch. 19)."""
        basis = self.groebner()
        rows = _prune_units(self.ring, syzygies(basis, rank=1, guard=self.guard), len(basis))[0]
        return sorted((basis[a] for a in rows), key=lambda g: g.degree())

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.gens)


def eliminate(ideal, names):
    """Generators of ideal ∩ k[remaining variables], in the original ring."""
    ring = ideal.ring
    rest = [n for n in ring.names if n not in names]
    elim_ring = ring.subring(tuple(rest)).extended(tuple(names))
    moved = [ring.transfer(g, elim_ring) for g in ideal.gens]
    gb = groebner_basis(moved, ideal.guard)
    keep = [g for g in gb if not (g.variables() & set(names))]
    return Ideal(ring, [elim_ring.transfer(g, ring) for g in keep], ideal.guard)


def intersect(*ideals):
    """The intersection of the ideals (one ideal comes back as it is): one
    ``module_colon`` with the basis of ideal k in component k of R^m and
    v = (1, ..., 1), since f*v lies in their span exactly when f lies in
    every ideal.  It keeps the first ideal's guard."""
    if not ideals:
        raise ValueError("intersection of no ideals")
    if len(ideals) == 1:
        return ideals[0]
    ring, m = ideals[0].ring, len(ideals)
    basis = [g.shifted(k) for k, a in enumerate(ideals) for g in a.groebner()]
    ones = sum((Vec.unit(ring, k) for k in range(m)), ring.zero())
    return module_colon(basis, [ones], m, ideals[0].guard)


def colon(ideal, f):
    """ideal : f on its reduced basis, for a polynomial or an ideal f: one
    ``module_colon`` of I's basis by f's generators in rank 1, so one graph
    (g_1, ..., g_k, 1) and one Buchberger call."""
    if isinstance(f, Ideal):
        if f.is_zero():
            raise ValueError("colon by zero ideal")
    elif f.is_zero():
        raise ValueError("colon by zero")
    gens = f.gens if isinstance(f, Ideal) else [f]
    return module_colon(ideal.groebner(), list(gens), 1, ideal.guard)


def saturate(ideal, f):
    """(ideal : f^infinity, e) with e the least exponent reaching the limit;
    f is a polynomial or an ideal."""
    current = ideal
    e = 0
    while True:
        nxt = colon(current, f)
        if nxt.equals(current):
            return current, e
        current = nxt
        e += 1


def radical_contains(ideal, f):
    """f in rad(ideal), for a homogeneous ideal and form.

    V(I) is a cone, so a zero p with f(p) != 0 scales to lambda*p with
    f(lambda*p) = lambda^d * f(p) = 1 over the algebraic closure: a
    nonconstant f lies in the radical exactly when I + (f - 1) is the unit
    ideal, in every characteristic.  A constant f lies in it when it is zero
    or I is the unit ideal.
    """
    if not (f.is_homogeneous() and all(g.is_homogeneous() for g in ideal.gens)):
        raise ValueError("radical membership for an inhomogeneous ideal or form")
    if f.is_constant():
        return f.is_zero() or ideal.is_one()
    return ideal.plus(Ideal(ideal.ring, [f - 1], ideal.guard)).is_one()


def same_zero_locus(a, b):
    """Equality of radicals, generator by generator."""
    return all(radical_contains(b, g) for g in a.gens) and all(
        radical_contains(a, g) for g in b.gens
    )


def is_irrelevant_primary(ideal):
    """Empty projective zero locus, for a homogeneous ideal only.

    V(I) in P^(n-1) is empty exactly when the affine cone V(I) is finite,
    i.e. when in(I) contains a power of every variable (the finiteness
    theorem, Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, Ch. 5
    Sec. 3 Thm 6): some lead of any Groebner basis is constant, or each
    variable has a pure-power lead.  It reads the leads the ideal holds.
    """
    if not all(g.is_homogeneous() for g in ideal.gens):
        raise ValueError("projective zero locus of an inhomogeneous ideal")
    # x_i^k has k == sum only in slot i; a constant lead has it in every slot
    pure = {i for e in ideal.leads() for i, a in enumerate(e) if a == sum(e)}
    return len(pure) == ideal.ring.nvars


# ---------------------------------------------------------------------------
# module colon / annihilator helpers


def fitting_ideal(module, r):
    """Ideal of (g - r)-minors of the relation matrix, g = generator count,
    built with the module's guard.

    Fitt_r = (1) for r >= g and the zero ideal for r < 0; invariant under
    changes of presentation.
    """
    ring, g, guard = module.ring, module.rank, module.guard
    if r >= g:
        return Ideal(ring, [ring.one()], guard)
    # for r < 0 there are no (g - r)-minors
    return Ideal(ring, [m for m in minors(module.matrix(), g - r) if m], guard)


def module_colon(im_gens, vs, rank, guard=None):
    """{f : f*v in <im_gens> for all v in vs} in R^rank, on its reduced basis,
    for a Groebner basis im_gens.  Copy k of R^rank holds v_k and im_gens, so
    f*v_k is in <im_gens> for every k exactly when f times the stacked vector
    (v_0, ..., v_{m-1}) is in the span of the image copies: one
    ``syzygies`` of that vector modulo the copies, a Groebner basis in each
    copy (Greuel-Pfister, *A Singular Introduction to Commutative Algebra*,
    2.8).  The colon ideal is built with ``guard``."""
    ring, m = vs[0].ring, len(vs)
    stacked = sum((v.shifted(k * rank) for k, v in enumerate(vs)), ring.zero())
    copies = [g.shifted(k * rank) for k in range(m) for g in im_gens]
    kernel = syzygies([stacked], rank=m * rank, guard=guard, modulo=copies)
    return Ideal.from_basis(ring, kernel, guard)


# ---------------------------------------------------------------------------
# Ext annihilators and unmixedness


def ext_annihilator(ideal, i):
    """Annihilator of Ext^i(R/I, R), read off the cached resolution of R/I;
    the unit ideal when the Ext vanishes.  No verdict reads it: it is the
    tests' reference over R."""
    if i < 0:
        raise ValueError("negative cohomological index")
    return _ext_annihilator(quotient_resolution(ideal), i)


def _ext_annihilator(resolution, i):
    """ann Ext^i(M, S) = ann(ker d_(i+1)^T / im d_i^T) over a minimal
    resolution of M, over any ring S (R/I's over R, a pushforward's over
    the support ring): one ``module_colon`` of the image by every kernel
    generator outside it."""
    ring, guard = resolution.ring, resolution.guard
    L = resolution.length
    if i > L:
        return Ideal(ring, [ring.one()], guard)
    ranks = [len(degs) for degs in resolution.degrees]
    if i == L:
        kernel = [Vec.unit(ring, b) for b in range(ranks[i])]
    else:
        dual = ring.transpose(resolution.maps[i], ranks[i])
        kernel = syzygies(dual, rank=ranks[i + 1], guard=guard)
    image = ring.transpose(resolution.maps[i - 1], ranks[i - 1]) if i else []
    gb_im = buchberger(image, guard)
    index = lead_index(gb_im)
    nontrivial = [k for k in kernel if not module_contains(k, index)]
    if not nontrivial:
        return Ideal(ring, [ring.one()], guard)
    return module_colon(gb_im, nontrivial, ranks[i], guard)


def ext_window(resolution, codim, top):
    """[(i, ann Ext^i(M, S))] for codim < i <= min(top, pd M), over a minimal
    resolution of M over any ring S.  Ext^i vanishes beyond pd M, the
    resolution's length, so the window stops there."""
    stop = min(top, resolution.length)
    return [(i, _ext_annihilator(resolution, i)) for i in range(codim + 1, stop + 1)]


def quotient_resolution(ideal):
    """Minimal free resolution of R/I, computed once and cached on the ideal.

    It starts from the cached reduced basis; ``free_resolution`` prunes the
    unit entries of the first syzygies, which drops the redundant elements.
    """
    if ideal._res is None:
        columns = ideal.groebner()
        ideal._res = free_resolution(GradedModule(ideal.ring, (0,), columns, ideal.guard))
    return ideal._res


def unmixed_part(ideal):
    """Equidimensional hull: the intersection of the top-dimensional primary
    components, returned on its reduced basis, as one saturation I : J^infinity.

    Let c = codim I and J the intersection of the non-unit annihilators
    ann Ext^i(R/I, R) of the window c < i <= pd(R/I) (``ext_window``, read
    to the top n = nvars, which pd(R/I) never passes).
    Every associated prime of codimension i > c contains ann Ext^i(R/I, R),
    so it contains J; no codimension-c prime P contains any of them, since
    (R/I)_P is Artinian (Eisenbud-Huneke-Vasconcelos, *Direct methods for
    primary decomposition*, Invent. Math. 110, 1992, Thm 1.1), so P avoids
    their product, which lies in J.  Saturating by J thus removes exactly
    the components that are not top-dimensional.  A hull equal to I keeps
    I's cached basis, series and resolution.
    """
    ring = ideal.ring
    if is_irrelevant_primary(ideal):
        return Ideal(ring, [ring.one()], ideal.guard)
    window = ext_window(quotient_resolution(ideal), ideal.codimension(), ring.nvars)
    bad = [ann for _, ann in window if not ann.is_one()]
    hull = saturate(ideal, intersect(*bad))[0] if bad else ideal
    if hull is not ideal:  # saturate returns its input when nothing changes
        return hull  # a colon, so an ideal made from_basis
    same = Ideal.from_basis(ring, ideal.groebner(), ideal.guard)
    same._series, same._res = ideal._series, ideal._res
    return same


def is_unmixed(ideal):
    """No embedded components away from the irrelevant ideal; the window is
    empty for the zero ideal and for an empty V(I).  The term i = nvars
    (depth R/I = 0) has an irrelevant annihilator and is not read."""
    n = ideal.ring.nvars
    window = ext_window(quotient_resolution(ideal), ideal.codimension(), n)
    return all(ann.codimension() > i for i, ann in window if i < n)
