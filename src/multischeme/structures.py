"""Multiple structures on a smooth support: filtrations, layer modules,
Cohen-Macaulay / S1 / type-I verdicts, thickenings, and the line-bundle
quotient search.

The support subscheme X is cut out by a subset of the variables (x, y, ...);
the remaining variables span the "support ring" over which layer modules and
conormal-type modules are presented.  A layer, and the lift of I_j's minimal
generators onto it, stay column Vecs from the syzygies through ``thicken``,
which reads surjectivity off the Fitting ideal Fitt_0.  The verdicts read
only the filtration terms, so a layer is presented, and checked against
its terms' series, only when first read.

Each filtration term past I_X is the hull of J = I_Y + I_X^(j+1): J plus
the lifts of the k[z]-torsion T of M = R/J, the kernel of M → M**
(Bănică-Forster 1986; Vasconcelos 1998).  ``pushforward`` presents
π_*O_Y = R/I_Y over k[z] for the finite Y → X, once per structure and
with no Buchberger run over R, and M is π_*O_Y cut to support degree <= j.
The terms nest, with their layer series, over k[z] (``_nests``): only I_Y
runs Buchberger over R.  The index k certifies I_X ⊆ rad(I_Y), as
I_X^(k+1) ⊆ I_Y, so the last sum is I_Y and takes its hull by the same
rule.  Y is CM where π_*O_Y is locally free: a term's verdict reads the
M/T = R/I_j its hull built, and a Y that is not S1 reads π_*O_Y.  No path
here resolves R/I over R, and I_X is written down as ``power(1)``.

The resource budget is fixed with the embedding: ``Embedding(ring,
support_vars, guard)`` builds I_X with that ``Guard``, and a ``MultiStructure``
builds I_Y with its embedding's.  Every verdict reads the caches of those
ideals and of the ideals derived from them, which keep their guard.
``layer_module`` and ``thicken`` build their modules with the guard of the
ideal or embedding they start from, and a module's Hilbert series and
Fitting ideals run under the module's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import add

from .groebner import DEFAULT_GUARD, ResourceGuardExceeded, lead_index, module_contains, syzygies
from .hilbert import basis_hilbert_series, module_hilbert_series
from .ideals import (
    Ideal,
    ext_window,
    fitting_ideal,
    intersect,
    is_irrelevant_primary,
    radical_contains,
    unmixed_part,
)
from .modules import GradedModule, _apply, _prune_units, free_resolution
from .parse import format_ideal, format_ring


class StructureError(ValueError):
    pass


class IndexBudgetExceeded(ResourceGuardExceeded, StructureError):
    """The nilpotency search ran past 64: inconclusive, and no index to read."""


@dataclass
class Embedding:
    """A support subscheme X ⊂ P^N cut out by a subset of the variables, with
    the resource budget of every structure on it."""

    ring: object
    support_vars: tuple
    guard: object = field(default=None, compare=False, repr=False)
    # I_X = ``power(1)``, written down once so every caller shares its basis and series
    _support: Ideal = field(init=False, compare=False, repr=False)
    # the support ring, built once so every restricted Vec shares it
    _sub: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.support_vars = tuple(self.support_vars)
        self.guard = self.guard or DEFAULT_GUARD
        missing = [v for v in self.support_vars if v not in self.ring._index]
        if missing:
            raise StructureError("unknown support variables %r" % missing)
        if len(set(self.support_vars)) < len(self.support_vars):
            raise StructureError("repeated support variables %r" % (self.support_vars,))
        if len(self.support_vars) == self.ring.nvars:
            raise StructureError(
                "support %r takes every variable, so X is empty" % (self.support_vars,)
            )
        rest = tuple(n for n in self.ring.names if n not in self.support_vars)
        self._sub = self.ring.subring(rest)
        self._support = self.power(1)

    def support_ideal(self):
        return self._support

    def support_ring(self):
        return self._sub

    def restrict(self, v, n):
        """Image of the first n components of v in the support ring's free
        module of rank n (set the support variables to zero)."""
        return self.ring.restrict(v, self.support_ring(), n)

    def extend(self, f):
        """Transfer a support-ring polynomial into the ambient ring."""
        return f.ring.transfer(f, self.ring)

    def power(self, j):
        """I_X^j on its reduced basis, the support monomials of degree j
        written down with no product formed."""
        gens = sorted(self.ring.monomials(j, self.support_vars), key=lambda m: m.top())
        return Ideal.from_basis(self.ring, gens, self.guard)

    def pushforward(self, ideal, t):
        """R/(I + I_X^(t+1)) as a graded module over the support ring k[z]:
        π_*O_Y, Y = V(I) finite over X, when I ⊇ I_X^(t+1).  Its generators
        are the support monomials u of degree <= t, in ``exponents`` order,
        its relations the truncations of u*g below support degree t + 1, g a
        generator of I; ``PolyRing.split`` gives g's k[z]-coefficients once,
        and u shifts them."""
        ring, names, sub = self.ring, self.support_vars, self._sub
        monomials = [e for d in range(t + 1) for e in ring.exponents(d, names)]
        position = {e: j for j, e in enumerate(monomials)}
        relations = []
        for g in ideal.gens:
            parts = ring.split(g, names, sub)
            low = min(map(sum, parts))
            relations += [sum((c.shifted(position[m]) for e, c in parts.items()
                               if (m := tuple(map(add, e, u))) in position), sub.zero())
                          for u in monomials if sum(u) <= t - low]
        return GradedModule(sub, tuple(map(sum, monomials)), relations, ideal.guard)


class MultiStructure:
    """A multiple structure Y on X: rad(I_Y) = I_X.  ``ideal`` is an Ideal
    built with the embedding's guard, or the generators of one."""

    def __init__(self, embedding, ideal, check=True):
        self.embedding = embedding
        if not isinstance(ideal, Ideal):
            ideal = Ideal(embedding.ring, ideal, embedding.guard)
        elif ideal.guard != embedding.guard:
            raise StructureError("I_Y is built with %r, its embedding with %r"
                                 % (ideal.guard, embedding.guard))
        if ideal.ring != embedding.ring:
            raise StructureError("I_Y is over %r, X over %r" % (ideal.ring, embedding.ring))
        self.ideal = ideal
        self._filtration = None
        self._nilpotency = None
        self._verdicts = {}  # term (None: I_Y) -> (CM verdict, locus, Ext indices read)
        if check:
            self.validate()

    def validate(self):
        """Homogeneous generators in I_X, and I_X ⊆ rad(I_Y): the nilpotency
        index certifies it, as I_X^(k+1) ⊆ I_Y.  Only a search past 64 has
        ``radical_contains`` name a support variable the radical misses."""
        ix = self.embedding.support_ideal()
        for g in self.ideal.gens:
            if not g.is_homogeneous():
                raise StructureError("inhomogeneous generator %s" % g)
            if not ix.contains(g):
                raise StructureError("generator %s not supported on X" % g)
        try:
            self.nilpotency_index()
        except IndexBudgetExceeded:
            for v in self.embedding.support_vars:
                if not radical_contains(self.ideal, self.embedding.ring.var(v)):
                    raise StructureError("radical of I_Y misses %s" % v) from None

    def nilpotency_index(self):
        """Minimal k <= 64 with I_X^{k+1} ⊆ I_Y, searched once.  While a pure
        power x_i^(k+1) misses I_Y no other monomial of I_X^(k+1) is tested,
        and then only the others are."""
        if self._nilpotency is None:
            emb, contains = self.embedding, self.ideal.contains
            pure = True  # a pure power may miss I_Y; once none does, none will
            for k in range(65):
                if pure and not all(contains(emb.ring.var(v) ** (k + 1)) for v in emb.support_vars):
                    continue
                pure = False
                if all(contains(g) for g in emb.power(k + 1).gens if len(g.variables()) > 1):
                    break
            else:
                k = 65  # kept, so a later read fails at once
            self._nilpotency = k
        if self._nilpotency > 64:
            raise IndexBudgetExceeded("nilpotency index exceeds 64, the search budget")
        return self._nilpotency

    def multiplicity(self):
        dim_y, deg_y = self.ideal.dimension_degree()
        dim_x, deg_x = self.embedding.support_ideal().dimension_degree()
        if dim_y != dim_x or deg_y % deg_x:
            raise StructureError("degree ratio is not an integer multiplicity")
        return deg_y // deg_x

    def hilbert_polynomial(self):
        return self.ideal.hilbert_polynomial()

    def filtration(self):
        # the built Filtration has no Ideal to live on, so it is kept here
        if self._filtration is None:
            self._filtration = s1_filtration(self)
        return self._filtration

    def is_S1(self):
        # the last filtration term is the hull of I_Y (I_Y = I_X, prime, at k = 0)
        return self.filtration().reaches_top

    def locally_cm(self, term=None):
        """(verdict, non-CM locus) of Y, or of the filtration term I_term."""
        return self._cm(term)[:2]

    def is_type_I(self):
        """(verdict, per-term CM flags); requires the filtration."""
        filt = self.filtration()
        flags = [self._cm(j)[0] for j in range(len(filt.ideals))]
        return all(flags) and filt.reaches_top, flags

    def _cm(self, term):
        """The CM verdict of I_term, read off the module R/I_term over k[z]
        its hull built, or of I_Y for None, decided once.  Every term is S1,
        and I_Y is the last one when the filtration reaches it; otherwise
        the verdict reads π_*O_Y as the filtration presented it."""
        filt = self.filtration()
        if term is None and filt.reaches_top:
            term = len(filt.ideals) - 1
        if term not in self._verdicts:
            module = filt.direct_image if term is None else filt.modules[term]
            self._verdicts[term] = _module_cm(self.embedding, module, s1=term is not None)
        return self._verdicts[term]

    def report(self, seed=None):
        filt = self.filtration()
        cm, locus, indices = self._cm(None)
        type1, flags = self.is_type_I()
        layers = [{"rank": layer.rank, "gen_twists": layer.twists(), "hilb": hilb_to_json(poly)}
                  for layer, poly in zip(filt.layers, filt.layer_polynomials)]
        return {
            "ring": format_ring(self.embedding.ring),
            "ideal": format_ideal(self.ideal.groebner()),
            "support": list(self.embedding.support_vars),
            "char": self.embedding.ring.char,
            "multiplicity": self.multiplicity(),
            "nilpotency_index": self.nilpotency_index(),
            "filtration": [{"ideal": format_ideal(i.groebner()), "locally_cm": flag}
                           for i, flag in zip(filt.ideals, flags)],
            "layers": layers,
            "verdicts": {"cm": cm, "s1": self.is_S1(), "type_i": type1},
            "certificates": {
                "ext_indices": indices,
                "non_cm_locus": None if cm else format_ideal(locus.groebner()),
            },
            "seed": seed,
        }


def hilb_to_json(hp):
    return {"basis": "P", "coeffs": {str(i): c for i, c in hp.coeffs}}


@dataclass
class Filtration:
    """The S1-filtration I_0 = I_X ⊇ I_1 ⊇ ... ⊇ I_k, each R/I_j and π_*O_Y
    over k[z], and the layers I_j/(I_X I_j + I_(j+1)), presented on first read."""

    embedding: Embedding
    ideals: list
    layer_polynomials: list  # HilbertPoly per layer, from its terms' k[z] modules
    reaches_top: bool        # I_k == I_Y (holds exactly when Y is S1)
    modules: list            # per term: R/I_j over k[z], as its hull presented it
    direct_image: GradedModule  # π_*O_Y, ``pushforward`` at the nilpotency index

    @cached_property
    def _presentations(self):
        built = [layer_module(self.embedding, upper, lower)
                 for upper, lower in zip(self.ideals, self.ideals[1:])]
        return [layer for layer, _ in built], [lift for _, lift in built]

    # GradedModules over the support ring, each checked against its series,
    # and per layer the images of I_j's minimal gens, as column Vecs
    layers = property(lambda self: self._presentations[0])
    layer_lifts = property(lambda self: self._presentations[1])


def s1_filtration(structure):
    """The filtration I_j = hull(I_Y + I_X^{j+1}), j <= k the nilpotency
    index.  Each layer polynomial is the difference of the series of its
    terms' k[z] modules, read off their reduced relations K_j with no run;
    the presentations, which no verdict reads, are built on first use.

    Each sum J has radical I_X, so its hull, the I_X-primary component
    J k(z)[x, y] ∩ R, is the preimage of the k[z]-torsion of R/J, π_*O_Y
    presented once and cut (``_primary_component``).  The last sum is I_Y
    itself, as I_X^(k+1) ⊆ I_Y; a hull that stays I_Y is I_Y, caches and
    all, so the filtration reaches the top exactly when its last term is I_Y.
    """
    emb, iy = structure.embedding, structure.ideal
    k = structure.nilpotency_index()
    pushed = emb.pushforward(iy, k)
    # (term, R/term over k[z], its cut), from I_X, R/I_X = k[z] on u = 1: I_Y itself at k = 0
    terms = [(iy if k == 0 else emb.support_ideal(),
              GradedModule(emb.support_ring(), (0,), [], iy.guard), (1, [0], []))]
    terms += [_primary_component(emb, iy, pushed, j) for j in range(1, k + 1)]
    ideals, modules, cuts = map(list, zip(*terms))
    for j in range(k):
        if not _nests(modules[j], cuts[j], modules[j + 1], cuts[j + 1][1]):
            raise StructureError("filtration terms fail to nest at step %d" % j)
    # dim(upper/lower)_t = dim(R/lower)_t - dim(R/upper)_t, each R/I_j over k[z]
    series = [basis_hilbert_series(m, m.relations) for m in modules]
    polys = [(lower - upper).polynomial() for upper, lower in zip(series, series[1:])]
    return Filtration(emb, ideals, polys, ideals[-1] is iy, modules, pushed)


def _nests(module, cut, below, below_rows):
    """Whether I_(j+1) ⊆ I_j over k[z]: I_(j+1) is I_Y, I_X^(j+2) and the lifts
    of ``below``'s K_(j+1), so each vector of K_(j+1), at ``below_rows`` and
    cut to I_j's n generators (one of support degree > j is in I_X^(j+1)),
    moved through I_j's prune steps in order, is 0 modulo its reduced K_j."""
    (n, rows, steps), zero = cut, module.ring.zero()
    position, index = {a: i for i, a in enumerate(rows)}, lead_index(module.relations)

    def moved(v):
        parts = {a: f for i, f in v.components().items() if (a := below_rows[i]) < n}
        for a, subst in steps:  # g_a = sum c * g_i in the cokernel
            f = parts.pop(a, zero)
            parts.update({i: parts.get(i, zero) + f * c for i, c in subst.items()})
        return sum((f.shifted(position[a]) for a, f in parts.items()), zero)

    return all(module_contains(moved(v), index) for v in below.relations)


def _primary_component(emb, iy, pushed, j):
    """(hull, R/hull over k[z], (n, rows, steps)) of J = I_Y + I_X^(j+1), I_Y
    itself at the top, j the nilpotency index.  M = R/J is π_*O_Y (``pushed``)
    cut to its n generators u of support degree <= j, zero relations dropped,
    as u*g has support degree >= deg u + low(g), g's least; ``_prune_units``
    leaves M's ``rows`` by its ``steps``.  hull/J is the k[z]-torsion
    of M, the kernel of M → M** (Vasconcelos 1998): its preimage K in M's
    free module, on the generators left by the unit prune, is the kernel
    of the rows of M* = ker(rel^T), and each vector of K lifts to sum
    K_a u_a in R, as ``thicken`` lifts.  R/hull is coker K on those
    generators, the free module on them when M keeps no relation, and J is
    its own hull.  At the top the hull is I_Y, caches and all, when every
    lift is in it."""
    ring, sub, guard = emb.ring, emb.support_ring(), iy.guard
    n = sum(d <= j for d in pushed.gen_degrees)
    top = n == pushed.rank  # the truncation kept every generator
    cut = list(filter(None, (sub.restrict(v, sub, n) for v in pushed.relations)))
    rows, _, rel, steps = _prune_units(sub, cut, n)
    lifts, kernel = [], []
    if rel:
        m = len(rows)
        dual = syzygies(sub.transpose(rel, m), rank=len(rel), guard=guard)
        kernel = syzygies(sub.transpose(dual, m), rank=len(dual), guard=guard)
        units = [u for d in range(j + 1) for u in ring.monomials(d, emb.support_vars)]
        lifts = [_apply([units[a] for a in rows], sub.restrict(v, ring, m)) for v in kernel]
    quotient = GradedModule(sub, [pushed.gen_degrees[a] for a in rows], kernel, guard)
    if top and all(map(iy.contains, lifts)):
        return iy, quotient, (n, rows, steps)
    power = () if top else emb.power(j + 1).gens
    return iy.plus(Ideal(ring, (*power, *lifts), guard)), quotient, (n, rows, steps)


def layer_module(emb, upper, lower):
    """L = upper/(I_X*upper + lower) presented over the support ring.

    The relations are the syzygies of upper's minimal generators g modulo
    lower's cached basis, restricted to the support ring.  Returns the
    minimal presentation, checked against the series, and its lift, which
    maps upper's minimal generators onto it: the images ``thicken`` takes to
    rebuild lower from upper.
    """
    gens = upper.minimal_gens()
    # sum h_i g_i in I_X*upper + lower iff h is in (relations modulo lower)
    # + I_X*R^s; restricting kills I_X, so taking lower alone loses nothing
    kernel = syzygies(gens, rank=1, guard=upper.guard, modulo=lower.groebner())
    # the nonzero restrictions, in syzygy order (which fixes the pivot order)
    restricted = (emb.restrict(h, len(gens)) for h in kernel)
    degs = tuple(g.degree() for g in gens)
    presented = GradedModule(emb.support_ring(), degs, [v for v in restricted if v], upper.guard)
    minimal, lift = presented.minimal_with_map()
    # dim(S/lower)_t - dim(S/upper)_t = dim(upper/lower)_t
    _check_layer_series(minimal, lower.hilbert_series() - upper.hilbert_series())
    return minimal, lift


def _check_layer_series(layer, ambient_diff):
    """The presentation's series must equal the ideal-quotient difference."""
    own, pole = module_hilbert_series(layer).reduced()
    ambient, ambient_pole = ambient_diff.reduced()
    # two zero series are equal whatever their pole orders
    if own != ambient or (own and pole != ambient_pole):
        raise StructureError("layer Hilbert series mismatch")


def is_locally_CM(emb, ideal, t):
    """(verdict, non-CM locus, Ext indices read) of Y = V(I), I ⊇ I_X^(t+1),
    from M = π_*O_Y, R/I over k[z] (``Embedding.pushforward``, read by
    ``_module_cm``); a t below the nilpotency index, where M presents
    R/(I + I_X^(t+1)), is refused.  The public path and the tests' reference."""
    missed = next((m for m in emb.power(t + 1).gens if not ideal.contains(m)), None)
    if missed is not None:
        raise StructureError("t = %d is below the nilpotency index: %s in I_X^(t+1) is "
                             "not in I" % (t, missed))
    return _module_cm(emb, emb.pushforward(ideal, t), s1=False)


def _module_cm(emb, module, s1):
    """(verdict, non-CM locus, Ext indices read) of Y from M = π_*O_Y over
    k[z], any presentation of it.  Y → X = P^(s-1) is finite, so Y is CM
    exactly where M is free (Hironaka's criterion; Eisenbud, *Commutative
    Algebra*, Cor. 18.17): off the zeros of ann Ext^i(M, k[z]),
    1 <= i <= s - 1 (``ext_window`` from codim 0), which with I_X make the
    locus.  An S1 Y gives M depth >= 1 at each point, so pd <= s - 2 there
    (Auslander-Buchsbaum) and i = s - 1 is not read."""
    window = ext_window(free_resolution(module), 0, emb.support_ring().nvars - (2 if s1 else 1))
    bad = [ann for _, ann in window if not is_irrelevant_primary(ann)]
    indices = [i for i, _ in window]
    if not bad:
        return True, Ideal(emb.ring, [emb.ring.one()], module.guard), indices
    locus = [emb.extend(g) for g in intersect(*bad).groebner()] + list(emb.support_ideal().gens)
    return False, Ideal(emb.ring, locus, module.guard), indices


def is_S1(ideal):
    """I is its own Ext-window hull over R: the tests' reference for
    ``MultiStructure.is_S1``, which no verdict calls."""
    return unmixed_part(ideal).equals(ideal)


def thicken(structure, layer, images):
    """Thicken Y by a quotient of I_Y/(I_X I_Y) onto the module ``layer``
    over the support ring.

    ``images`` are the images of I_Y's minimal generators g_i (in the order
    of ``minimal_gens``, as ``minimal_with_map`` lifts them), as column Vecs
    on the layer's generators.  The map must be onto: Fitt_0 of
    coker [images | relations] has no projective zero, as Supp = V(Fitt_0)
    (Eisenbud, *Commutative Algebra*, §20.2).  The new ideal is
    I_X*I_Y plus the lifts sum_i h_i g_i (``modules._apply``) of the kernel
    vectors h of [images | relations], their relation components dropped by
    ``restrict``.  Every step runs under the structure's guard.
    """
    emb = structure.embedding
    ring, guard = emb.ring, emb.guard
    iy = structure.ideal
    gens = iy.minimal_gens()
    if len(images) != len(gens):
        raise StructureError("%d images for %d minimal generators" % (len(images), len(gens)))
    columns = list(images) + layer.relations
    locus = fitting_ideal(GradedModule(layer.ring, layer.gen_degrees, columns, guard), 0)
    if not is_irrelevant_primary(locus):
        raise StructureError(
            "the images are not onto the layer; Fitt_0 = (%s)"
            % ", ".join(str(m) for m in locus.groebner())
        )
    kernel = syzygies(columns, rank=layer.rank, guard=guard)
    lifted = (_apply(gens, layer.ring.restrict(h, ring, len(gens))) for h in kernel)
    # from generators: I_X*I_Y holds no basis, and ``plus`` would compute one (more S-pairs)
    new_ideal = Ideal(ring, (*emb.support_ideal().times(iy).gens, *lifted), guard)
    return MultiStructure(emb, new_ideal, check=True)
