"""Ideal calculus: colon, saturation, intersection, elimination, Ext
annihilators, Fitting ideals, and dimension/degree bookkeeping.

All operations are exact and work over Q or a prime field.
"""

from __future__ import annotations

from .groebner import (
    Vec,
    buchberger,
    groebner_basis,
    module_contains,
    normal_form,
    syzygies,
)
from .hilbert import ideal_hilbert_series
from .modules import GradedModule, free_resolution, minors


class Ideal:
    """An ideal with its Groebner basis (in the ring's order) and series cached."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if g)
        self._gb = None
        self._series = None

    @classmethod
    def parse(cls, ring, text):
        from .parse import parse_ideal

        return cls(ring, parse_ideal(ring, text))

    def groebner(self, guard=None):
        if self._gb is None:
            self._gb = groebner_basis(self.gens, guard=guard)
        return self._gb

    def reduce(self, f, guard=None):
        return normal_form(f, self.groebner(guard=guard))

    def contains(self, f, guard=None):
        return self.reduce(f, guard=guard).is_zero()

    def contains_ideal(self, other, guard=None):
        return all(self.contains(g, guard=guard) for g in other.gens)

    def equals(self, other, guard=None):
        return self.groebner(guard=guard) == other.groebner(guard=guard)

    def is_zero(self):
        return not self.gens

    def is_one(self, guard=None):
        gb = self.groebner(guard=guard)
        return len(gb) == 1 and gb[0].is_constant()

    def plus(self, other):
        return Ideal(self.ring, self.gens + tuple(other.gens))

    def times(self, other):
        gens = [f * g for f in self.gens for g in other.gens]
        return Ideal(self.ring, gens)

    def power(self, k):
        out = Ideal(self.ring, [self.ring.one()])
        for _ in range(k):
            out = out.times(self)
        return out

    def hilbert_series(self, guard=None):
        if self._series is None:
            self._series = ideal_hilbert_series(self.ring, self.groebner(guard=guard))
        return self._series

    def hilbert_polynomial(self, guard=None):
        return self.hilbert_series(guard=guard).polynomial()

    def dimension_degree(self, guard=None):
        """(projective dimension of V(I), degree); empty scheme gives (-1, 0)."""
        return self.hilbert_series(guard=guard).dimension_degree()

    def codimension(self, guard=None):
        return (self.ring.nvars - 1) - self.dimension_degree(guard=guard)[0]

    def minimal_gens(self, guard=None):
        """A minimal homogeneous generating set (greedy by degree)."""
        gens = sorted((g for g in self.gens if g), key=lambda g: g.degree())
        kept, span = [], None
        for g in gens:
            if span is not None and span.contains(g, guard=guard):
                continue
            kept.append(g)
            span = Ideal(self.ring, kept)
        return kept

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.gens)


def eliminate(ideal, names, guard=None):
    """Generators of ideal ∩ k[remaining variables], in the original ring."""
    ring = ideal.ring
    rest = [n for n in ring.names if n not in names]
    elim_ring = ring.subring(tuple(rest)).extended(tuple(names), front=True)
    moved = [ring.transfer(g, elim_ring) for g in ideal.gens]
    gb = groebner_basis(moved, guard=guard)
    keep = [g for g in gb if not (g.variables() & set(names))]
    return Ideal(ring, [elim_ring.transfer(g, ring) for g in keep])


def intersect(a, b, guard=None):
    """a ∩ b via the homogenizing-variable elimination trick."""
    ring = a.ring
    t = ring.fresh_name("t")
    ext = ring.extended((t,), front=True)
    tv = ext.var(t)
    gens = [tv * ring.transfer(f, ext) for f in a.gens]
    gens += [(ext.one() - tv) * ring.transfer(g, ext) for g in b.gens]
    gb = groebner_basis(gens, guard=guard)
    keep = [g for g in gb if t not in g.variables()]
    return Ideal(ring, [ext.transfer(g, ring) for g in keep])


def intersect_many(ideals, guard=None):
    out = None
    for i in ideals:
        out = i if out is None else intersect(out, i, guard=guard)
    return out


def colon(ideal, f, guard=None):
    """ideal : (f) for a single polynomial f."""
    ring = ideal.ring
    if f.is_zero():
        raise ValueError("colon by zero")
    # syzygy formulation: h*f + sum a_i g_i = 0  =>  h in (I : f)
    vecs = [Vec.from_poly(f)] + [Vec.from_poly(g) for g in ideal.gens]
    if not ideal.gens:
        return Ideal(ring, [])
    syz = syzygies(vecs, rank=1, guard=guard)
    firsts = [s.component(0) for s in syz]
    return Ideal(ring, Ideal(ring, firsts).groebner(guard=guard))


def colon_ideal(ideal, other, guard=None):
    """ideal : other for an ideal ``other``."""
    parts = [colon(ideal, f, guard=guard) for f in other.gens if f]
    if not parts:
        raise ValueError("colon by zero ideal")
    return intersect_many(parts, guard=guard)


def saturate(ideal, f, guard=None):
    """(ideal : f^infinity, e) with e the least exponent reaching the limit."""
    if isinstance(f, Ideal):
        step = lambda j: colon_ideal(j, f, guard=guard)
    else:
        step = lambda j: colon(j, f, guard=guard)
    current = ideal
    e = 0
    while True:
        nxt = step(current)
        if nxt.equals(current, guard=guard):
            return current, e
        current = nxt
        e += 1


def radical_contains(ideal, f, guard=None):
    """f in rad(ideal), by the trick of inverting f with a fresh variable."""
    ring = ideal.ring
    if f.is_zero():
        return True
    t = ring.fresh_name("t")
    ext = ring.extended((t,), front=True)
    gens = [ring.transfer(g, ext) for g in ideal.gens]
    gens.append(ext.one() - ext.var(t) * ring.transfer(f, ext))
    gb = groebner_basis(gens, guard=guard)
    return len(gb) == 1 and gb[0].is_constant()


def same_zero_locus(a, b, guard=None):
    """Equality of radicals, generator by generator."""
    return all(radical_contains(b, g, guard=guard) for g in a.gens) and all(
        radical_contains(a, g, guard=guard) for g in b.gens
    )


def is_irrelevant_primary(ideal, guard=None):
    """Empty projective zero locus, for a homogeneous ideal only.

    V(I) in P^(n-1) is empty exactly when R/I has Krull dimension <= 0,
    i.e. when the Hilbert series of the ideal's own cached basis has no
    pole left at t = 1 (Cox-Little-O'Shea, *Ideals, Varieties, and
    Algorithms*, Ch. 9 Sec. 3; Bayer-Stillman, JSC 14, 1992).
    """
    if not all(g.is_homogeneous() for g in ideal.gens):
        raise ValueError("projective zero locus of an inhomogeneous ideal")
    return ideal.dimension_degree(guard=guard)[0] < 0


# ---------------------------------------------------------------------------
# module colon / annihilator helpers


def fitting_ideal(module, r):
    """Ideal of (g - r)-minors of the relation matrix, g = generator count.

    Fitt_r = (1) for r >= g and the zero ideal for r < 0; invariant under
    changes of presentation.
    """
    ring = module.ring
    g = module.rank
    if r >= g:
        return Ideal(ring, [ring.one()])
    if r < 0:
        return Ideal(ring, [])
    rel = module.relations
    if not rel or not rel[0]:
        return Ideal(ring, [])
    mm = [m for m in minors(rel, g - r) if m]
    return Ideal(ring, mm)


def module_colon(im_gens, v, rank, guard=None):
    """{f : f*v in <im_gens>} inside R^rank."""
    ring = v.ring
    syz = syzygies([v] + list(im_gens), rank=rank, guard=guard)
    return Ideal(ring, [s.component(0) for s in syz])


# ---------------------------------------------------------------------------
# Ext annihilators and unmixedness


def _transpose_columns(matrix, ring):
    """Columns of the transposed matrix, as Vecs (rows become columns)."""
    cols = []
    for a, row in enumerate(matrix):
        data = {}
        for b, entry in enumerate(row):
            for e, c in entry.terms.items():
                data[(b, e)] = c
        cols.append(Vec(ring, data))
    return cols


def ext_annihilator(ideal, i, resolution=None, guard=None):
    """Annihilator of Ext^i(R/I, R); the unit ideal when the Ext vanishes."""
    ring = ideal.ring
    if i < 0:
        raise ValueError("negative cohomological index")
    if resolution is None:
        resolution = quotient_resolution(ideal, guard=guard)
    L = resolution.length
    if i > L:
        return Ideal(ring, [ring.one()])
    rank_i = len(resolution.degrees[i])
    if i == L:
        kernel = [Vec.unit(ring, b) for b in range(rank_i)]
    else:
        nxt_cols = _transpose_columns(resolution.map_matrix(i + 1), ring)
        kernel = syzygies(nxt_cols, rank=len(resolution.degrees[i + 1]), guard=guard)
    if i == 0:
        image = []
    else:
        image = _transpose_columns(resolution.map_matrix(i), ring)
    gb_im = buchberger(image, guard=guard)
    nontrivial = [k for k in kernel if not module_contains(k, gb_im)]
    if not nontrivial:
        return Ideal(ring, [ring.one()])
    parts = [module_colon(image, k, rank_i, guard=guard) for k in nontrivial]
    return intersect_many(parts, guard=guard)


def ext_window(ideal, codim, guard=None):
    """(i, ann Ext^i(R/I, R)) for codim < i < nvars, from one resolution."""
    res = quotient_resolution(ideal, guard=guard)
    for i in range(codim + 1, ideal.ring.nvars):
        yield i, ext_annihilator(ideal, i, resolution=res, guard=guard)


def quotient_resolution(ideal, guard=None):
    """Minimal free resolution of R/I."""
    gens = ideal.minimal_gens(guard=guard)
    return free_resolution(GradedModule(ideal.ring, (0,), [gens]), guard=guard)


def unmixed_part(ideal, witness=None, guard=None):
    """Equidimensional hull: the intersection of top-dimensional components.

    With a ``witness`` polynomial (vanishing on every embedded component but
    on no top component) this is a saturation; otherwise it is computed as
    the annihilator of the codimension-th Ext module.
    """
    ring = ideal.ring
    if ideal.is_zero():
        return ideal
    dim, _ = ideal.dimension_degree(guard=guard)
    if dim < 0:
        return Ideal(ring, [ring.one()])
    if witness is not None:
        if ideal.contains(witness, guard=guard):
            raise ValueError("witness lies in the ideal")
        sat, _ = saturate(ideal, witness, guard=guard)
        return sat
    c = ideal.codimension(guard=guard)
    hull = ext_annihilator(ideal, c, guard=guard)
    return Ideal(ring, Ideal(ring, hull.gens).groebner(guard=guard))


def is_unmixed(ideal, guard=None):
    """No embedded components away from the irrelevant ideal."""
    if ideal.is_zero() or ideal.dimension_degree(guard=guard)[0] < 0:
        return True
    window = ext_window(ideal, ideal.codimension(guard=guard), guard=guard)
    return all(ann.codimension(guard=guard) > i for i, ann in window)
