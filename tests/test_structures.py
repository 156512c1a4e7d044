import json
import os
import re

import pytest
from test_ideals import _rabinowitsch_contains

from multischeme.catalog import load_catalog
from multischeme.families import build_family
from multischeme.groebner import Guard, buchberger, interreduce, submodule_equal, syzygies
from multischeme.hilbert import HilbertPoly, HilbertSeries, module_hilbert_series
from multischeme.ideals import (
    Ideal,
    ext_window,
    fitting_ideal,
    intersect,
    is_irrelevant_primary,
    quotient_resolution,
    same_zero_locus,
    unmixed_part,
)
from multischeme.modules import GradedModule, _prune_units
from multischeme.parse import parse_ideal
from multischeme.ring import LEX, PolyRing, ResourceGuardExceeded
from multischeme.scenarios import run_scenario
from multischeme.structures import (
    Embedding,
    IndexBudgetExceeded,
    MultiStructure,
    StructureError,
    _check_layer_series,
    is_locally_CM,
    is_S1,
    layer_module,
    s1_filtration,
    thicken,
)


@pytest.fixture
def ring():
    return PolyRing(("z0", "z1", "x", "y"))


def _structure(ring, text, check=True):
    """The structure ``text`` on X = V(x, y)."""
    return MultiStructure(Embedding(ring, ("x", "y")), parse_ideal(ring, text), check=check)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_power_writes_down_the_reduced_basis_of_the_product(order):
    """I_X^j written down by ``Embedding.power`` is the reduced basis of
    the repeated product, for j <= 6 on 1-3 support variables anywhere in
    the ring, which holds the pure powers x_i^j.  The product starts from I_X
    computed by Buchberger, not from ``support_ideal``, which is ``power(1)``."""
    names = ("z0", "x", "z1", "y", "w")
    ring = PolyRing(names, order=LEX) if order == "lex" else PolyRing(names)
    for support in (("y",), ("x", "z1"), ("w", "x", "z0")):
        emb = Embedding(ring, support)
        product = ix = Ideal(ring, [ring.var(v) for v in support])
        for j in range(1, 7):
            written = emb.power(j)
            assert written.gens == tuple(written.groebner()) == tuple(product.groebner())
            assert {ring.var(v) ** j for v in support} <= set(written.gens)
            product = product.times(ix)


def test_the_support_ideal_is_written_down_with_no_buchberger_run(ring, rebind):
    """I_X is ``power(1)``: building the embedding and reading I_X's basis,
    leads, membership and series run no Buchberger and no interreduction."""
    import multischeme.groebner as groebner

    calls = dict.fromkeys(("buchberger", "interreduce"), 0)
    for name in calls:
        def counting(original, _name=name):
            def wrapped(*args, **kwargs):
                calls[_name] += 1
                return original(*args, **kwargs)

            return wrapped

        rebind(groebner, name, counting)
    ix = Embedding(ring, ("x", "y")).support_ideal()
    assert [str(g) for g in ix.groebner()] == ["x", "y"]
    assert ix.leads() == [(0, 0, 1, 0), (0, 0, 0, 1)]
    assert ix.contains(ring.var("x")) and not ix.contains(ring.var("z0"))
    assert ix.hilbert_series().dimension_degree() == (1, 1)
    assert calls == {"buchberger": 0, "interreduce": 0}


def test_embedding_basics(ring):
    emb = Embedding(ring, ("x", "y"))
    assert emb.support_ideal().codimension() == 2
    assert emb.support_ring().names == ("z0", "z1")
    f = ring.var("z0") ** 2 + ring.var("x") * ring.var("z1")
    v = f + ring.var("z1").shifted(1)
    sub = emb.support_ring()
    # the support variables go to zero, and only the first n components stay
    assert emb.restrict(v, 1).data == (sub.var("z0") ** 2).data
    assert emb.restrict(v, 2).component(1) == sub.var("z1")
    assert emb.extend(emb.support_ring().var("z1")) == ring.var("z1")
    with pytest.raises(StructureError):
        Embedding(ring, ("w",))
    with pytest.raises(StructureError, match="repeated support variables"):
        Embedding(ring, ("x", "y", "x"))


def test_embedding_rejects_a_support_with_every_variable():
    # X = V(x, y) in P^1 is empty
    with pytest.raises(StructureError, match=r"support \('x', 'y'\) takes every variable"):
        Embedding(PolyRing(("x", "y")), ("x", "y"))


def test_support_ring_is_built_once(ring, monkeypatch):
    st = _structure(ring, "(x^2 + z0*y, y^2)")
    emb = st.embedding
    sub = emb.support_ring()
    assert sub is emb.support_ring()
    upper, lower = st.filtration().ideals[:2]
    restricted = []
    restrict = Embedding.restrict

    def recording(self, v, n):
        restricted.append(restrict(self, v, n))
        return restricted[-1]

    monkeypatch.setattr(Embedding, "restrict", recording)
    layer, _ = layer_module(emb, upper, lower)
    assert restricted and all(v.ring is sub for v in restricted)
    assert layer.ring is sub


def test_structure_validation_rejects_wrong_support(ring):
    with pytest.raises(StructureError):
        _structure(ring, "(x)")  # radical misses y
    with pytest.raises(StructureError):
        _structure(ring, "(x^2, y^2, z0)")  # z0 not supported on X
    with pytest.raises(StructureError):
        _structure(ring, "(x^2 + x, y)")  # inhomogeneous


@pytest.mark.parametrize(
    "text",
    [
        "(x^2, y)",
        "(x^2 + z0*y, y^2)",
        "(x^2, x*y, z0*y^2)",
        "(x^2, x*y, z0*y^2, z1*y^2)",
        "(x*z0 + y*z1, x^2, y^2)",
        "(x^3, x*y*z1, y^2*z0)",
    ],
)
def test_support_check_at_one_agrees_with_the_radical(ring, text):
    st = _structure(ring, text, check=False)
    expected = all(_rabinowitsch_contains(st.ideal, ring.var(v)) for v in ("x", "y"))
    try:
        st.validate()
        verdict = True
    except StructureError as exc:
        assert "radical of I_Y misses" in str(exc)
        verdict = False
    assert verdict == expected


@pytest.mark.parametrize("text", ["(x)", "(x^2, x*y)", "(x, z0*y^2)"])
def test_a_radical_that_misses_y_is_named(ring, text):
    # no power of I_X lies in I_Y, so the nilpotency search runs to 64 and
    # fails; the radical test then names the variable, from either entry
    with pytest.raises(StructureError, match="radical of I_Y misses y"):
        _structure(ring, text)
    emb = Embedding(ring, ("x", "y"))
    with pytest.raises(StructureError, match="radical of I_Y misses y"):
        MultiStructure(emb, Ideal.parse(ring, text), check=True)
    st = MultiStructure(emb, Ideal.parse(ring, text), check=False)
    with pytest.raises(StructureError, match="nilpotency index exceeds 64"):
        st.nilpotency_index()


@pytest.mark.parametrize("text, missed", [("(x)", "y"), ("(x^2, y, w^3, x*v, u^2)", "v")])
def test_a_radical_that_misses_a_variable_is_refused_before_any_power(monkeypatch, text, missed):
    # a pure power x_i^(k+1) outside I_Y keeps I_X^(k+1) out too, so the
    # search to 64 forms no power of I_X at all: (x, y, w, v, u)^65 alone
    # has C(69, 4) generators
    ring = PolyRing(("z0", "z1", "x", "y", "w", "v", "u"))
    emb = Embedding(ring, ("x", "y", "w", "v", "u"))

    def times(a, b):
        raise AssertionError("a product of ideals was formed")

    monkeypatch.setattr(Ideal, "times", times)
    with pytest.raises(StructureError, match="radical of I_Y misses %s$" % missed):
        MultiStructure(emb, Ideal.parse(ring, text))


def test_an_index_past_the_search_budget_is_searched_once(ring, monkeypatch):
    # the radical of (x^40, y^40) holds x and y, so it validates; its index
    # 78 is past the search's 64, and every later reading is that outcome,
    # a spent budget, with no second search
    st = _structure(ring, "(x^40, y^40)")
    tested, contains = [], Ideal.contains
    monkeypatch.setattr(Ideal, "contains", lambda self, f: tested.append(f) or contains(self, f))
    for read in (st.nilpotency_index, st.filtration, st.locally_cm, st.is_type_I, st.report):
        with pytest.raises(ResourceGuardExceeded, match="nilpotency index exceeds 64") as exc:
            read()
        assert isinstance(exc.value, IndexBudgetExceeded)
    assert tested == []


def test_the_index_search_tests_each_generator_once(ring, monkeypatch):
    # the pure powers x^(k+1), y^(k+1) are tested before I_X^(k+1) is formed,
    # and only its other generators after
    st = _structure(ring, "(x^2 + z0*y, y^2)", check=False)
    tested, contains = [], Ideal.contains

    def spy(self, f):
        if self is st.ideal:
            tested.append(str(f))
        return contains(self, f)

    monkeypatch.setattr(Ideal, "contains", spy)
    assert st.nilpotency_index() == 3
    assert tested == ["x", "x^2", "x^3", "x^4", "y^4", "x^3*y", "x^2*y^2", "x*y^3"]


def test_nilpotency_index_and_multiplicity(ring):
    double = _structure(ring, "(x^2, y)")
    assert double.nilpotency_index() == 1
    assert double.multiplicity() == 2
    quad = _structure(ring, "(x^2 + z0*y, y^2)")
    assert quad.nilpotency_index() == 3
    assert quad.multiplicity() == 4
    assert quad.hilbert_polynomial() == HilbertPoly.make({1: 4, 0: -4})


def test_s1_and_cm_verdicts(ring):
    good = _structure(ring, "(x^2 + z0*y, y^2)")
    assert good.is_S1()
    cm, locus = good.locally_cm()
    assert cm and locus.is_one()
    bad = _structure(ring, "(x^2 + z0*y, y^2, x^3)")
    assert not bad.is_S1()


def _theorem_rows():
    """Every thm-3.6 and thm-3.8 row, in characteristic 0."""
    return [
        (e.id, e.structure(char=0))
        for table in ("thm-3.6", "thm-3.8")
        for e in load_catalog(table)
        if 0 in e.chars
    ]


def test_structure_s1_verdict_is_the_filtration_reaching_the_top(ring):
    rows = _theorem_rows()
    rows.append(("embedded point", _structure(ring, "(x^2 + z0*y, y^2, x^3)")))
    for name, st in rows:
        assert st.is_S1() == is_S1(st.ideal), name
    assert not rows[-1][1].is_S1()
    # each term past I_X read as a structure of its own, as the term-s1
    # check of thm-5.1 reads it, on the hull families and the embedded point;
    # every such term is a hull, so S1 (the embedded point's last one too)
    found = {True: 0, False: 0}
    for char in (0, 5):
        rows = [("embedded point", _structure(PolyRing(ring.names, char=char),
                                              "(x^2 + z0*y, y^2, x^3)"))]
        for name, params in _HULL_FAMILIES:
            rows += [(name, st) for st in build_family(name, char=char, **params).structures]
        for name, st in rows:
            for j, term in enumerate(st.filtration().ideals[1:], 1):
                verdict = MultiStructure(st.embedding, term, check=False).is_S1()
                assert verdict == is_S1(term), (name, char, j)
                found[verdict] += 1
    assert found == {True: 52, False: 0}


def test_report_computes_each_hull_once(monkeypatch):
    import multischeme.structures as structures

    entry = next(e for e in load_catalog("thm-3.8") if e.id == "thm-3.8/1")
    st = entry.structure(char=0)
    calls = []
    for name in ("unmixed_part", "_primary_component"):

        def counting(*args, _name=name, _counted=getattr(structures, name)):
            calls.append(_name)
            return _counted(*args)

        monkeypatch.setattr(structures, name, counting)
    rep = st.report()
    assert rep["verdicts"]["s1"] is True
    # one hull per filtration term past I_X: the I_X-primary components of
    # the two sums and of I_Y itself, and no Ext-window hull
    assert st.nilpotency_index() == 3
    assert calls == ["_primary_component"] * 3


# (family, parameters) of the hull cross-check, each in characteristics 0 and 5
_HULL_FAMILIES = (
    ("nontypeI", {"a": 1, "b": 1}),
    ("nontypeI", {"a": 1, "b": 2}),
    ("nontypeI", {"a": 2, "b": 2}),
    ("primitive", {}),
    ("koszul", {}),
    ("split", {}),
    ("nystruktur", {}),
    ("bundle", {}),
    ("ci_subsets", {}),
)


def test_primary_component_is_the_hull_of_every_filtration_term(monkeypatch):
    """The hull of each sum J = I_Y + I_X^(j+1), j = 1..k, the last one I_Y
    itself, equals the Ext-window hull ``unmixed_part`` on every catalog row
    in each asserted characteristic, on the families, on a structure with an
    embedded point and on one with an embedded line, in characteristics 0
    and 5.  The module it returns presents R/hull over k[z]: its series is
    the hull's, and it is free after its own unit prune exactly when graded
    Nakayama says so, R/hull having the series of its fibre R/(hull + (z))
    over (1 - t)^s.  Some J is free, some hull is J though R/J is not free,
    and some hull removes torsion; an I_Y term that is its own hull is I_Y,
    caches and all, and the embedded point's and line's are not."""
    import multischeme.structures as structures

    rows = [e.structure(char=c) for e in load_catalog() for c in e.chars]
    for char in (0, 5):
        for name, params in _HULL_FAMILIES:
            rows += build_family(name, char=char, **params).structures
        ring = PolyRing(("z0", "z1", "x", "y"), char=char)
        rows.append(_structure(ring, "(x^2 + z0*y, y^2, x^3)"))
        rows.append(MultiStructure(Embedding(ring, ("x",)), Ideal.parse(ring, "(x^2, x*y)"),
                                   check=False))
    branches, own = set(), set()
    component = structures._primary_component

    def checked(emb, iy, j, top):
        hull, module = component(emb, iy, j, top)
        ring = emb.ring
        total = iy if top else Ideal(ring, (*iy.gens, *emb.power(j + 1).gens))
        assert hull.groebner() == unmixed_part(total).groebner(), (total, j)
        assert module_hilbert_series(module).reduced() == hull.hilbert_series().reduced()
        free = not _prune_units(module.ring, module.relations, module.rank)[2]
        fibre = Ideal(ring, (*hull.gens, *map(ring.var, emb.support_ring().names)))
        s = emb.support_ring().nvars
        assert free == (hull.hilbert_series().reduced() == (fibre.hilbert_series().reduced()[0], s))
        if not hull.equals(total):
            branches.add("torsion removed")
        else:
            branches.add("free" if free else "torsion-free, not free")
        if top:
            assert (hull is iy) == hull.equals(iy), iy
            own.add(hull is iy)
        return hull, module

    monkeypatch.setattr(structures, "_primary_component", checked)
    for st in rows:
        st.filtration()
    assert branches == {"free", "torsion-free, not free", "torsion removed"}
    assert own == {True, False}


def _cm_over_the_whole_ring(ideal):
    """The reference CM test, on R/I alone: (verdict, locus) from the
    annihilators of Ext^i(R/I, R), codim I < i <= pd(R/I), that have a
    projective zero; the locus is the union of those zero sets."""
    ring = ideal.ring
    window = ext_window(quotient_resolution(ideal), ideal.codimension(), ring.nvars)
    bad = [ann for _, ann in window if not is_irrelevant_primary(ann)]
    return not bad, intersect(*bad) if bad else Ideal(ring, [ring.one()], ideal.guard)


def _cm_rows():
    """Every catalog row in each asserted characteristic, the families of
    the hull cross-check and the extended Koszul structure, and two
    structures with an embedded component, in characteristics 0 and 5."""
    rows = [("%s@p%d" % (e.id, c), e.structure(char=c)) for e in load_catalog() for c in e.chars]
    for char in (0, 5):
        for name, params in _HULL_FAMILIES + (("koszul", {"extend": True}),):
            structures = build_family(name, char=char, **params).structures
            rows += [("%s%s@p%d" % (name, params, char), st) for st in structures]
        ring = PolyRing(("z0", "z1", "x", "y"), char=char)
        rows.append(("embedded point@p%d" % char, _structure(ring, "(x^2 + z0*y, y^2, x^3)")))
        line = Ideal.parse(ring, "(x^2, x*y)")
        rows.append(("embedded line@p%d" % char,
                     MultiStructure(Embedding(ring, ("x",)), line, check=False)))
    return rows


def test_cm_verdicts_over_the_support_ring_match_the_ext_window_of_the_quotient():
    """Each verdict over k[z], of I_Y and of every filtration term, agrees
    with the reference on R/I, and a non-CM locus has the reference's zero
    set.  The split triple is locally free over k[z] but not free, so a
    test of global freeness would call it not CM."""
    found = {True: 0, False: 0}
    for name, st in _cm_rows():
        terms = [(None, st.ideal)] + list(enumerate(st.filtration().ideals))
        for term, ideal in terms:
            cm, locus = st.locally_cm(term)
            expected, expected_locus = _cm_over_the_whole_ring(ideal)
            assert cm == expected, (name, term)
            assert cm or same_zero_locus(locus, expected_locus), (name, term, locus)
            found[cm] += 1
    assert found[True] >= 250 and found[False] >= 12, found


def _is_locally_free(module, rank):
    """Locally free of the given rank on Proj of the support ring: Fitt_(rank-1)
    is zero and Fitt_rank has no projective zero (Eisenbud, *Commutative
    Algebra*, Prop. 20.8).  A nonzero Fitt_(rank-1) means a smaller rank."""
    if rank > module.rank:
        raise StructureError("expected rank exceeds generator count")
    if not fitting_ideal(module, rank - 1).is_zero():
        raise StructureError("module rank is below the expected %d" % rank)
    return is_irrelevant_primary(fitting_ideal(module, rank))


def test_the_terms_are_cm_up_to_j_plus_1_exactly_when_the_layers_to_j_are_locally_free():
    """0 -> L_j -> O_(Y_(j+1)) -> O_(Y_j) -> 0 with Y_0 = X smooth: by the
    depth lemma (Bruns-Herzog 1.2.9) Y_0, ..., Y_(j+1) are all CM exactly
    when L_0, ..., L_j are maximal CM on X, that is locally free."""
    chains = {True: 0, False: 0}
    for name, st in _cm_rows():
        filt = st.filtration()
        flags = st.is_type_I()[1]
        free = []
        for j, (layer, poly) in enumerate(zip(filt.layers, filt.layer_polynomials)):
            # X is linear, so the top P-coefficient is the generic rank
            free.append(_is_locally_free(layer, poly.coeffs[-1][1] if poly.coeffs else 0))
            assert all(flags[:j + 2]) == all(free), (name, j, flags, free)
            chains[all(free)] += 1
    assert chains[True] >= 100 and chains[False] >= 10, chains


def test_each_term_verdict_read_off_its_hull_module_is_that_of_its_pushforward():
    """The verdict each filtration term reads off the module its hull built,
    I_X's free k[z] included, is the one ``is_locally_CM`` reads off the
    term presented anew: the same verdict, locus basis and Ext indices,
    as both read a presentation of the one module R/I_j over k[z].  Every
    hull family is covered in characteristics 0 and 5, and enough terms
    are not free to read a non-empty Ext window."""
    windows = 0
    for name, st in _cm_rows():
        for j, term in enumerate(st.filtration().ideals):
            read = [(cm, locus.groebner(), indices) for cm, locus, indices
                    in (st._cm(j), is_locally_CM(st.embedding, term, j, s1=True))]
            assert read[0] == read[1], (name, j)
            windows += bool(read[0][2])
    assert windows >= 25, windows


def test_report_lists_the_ext_indices_it_read(ring):
    # R/(x^2, y) is free over k[z0, z1], so no Ext over k[z] is read
    assert _structure(ring, "(x^2, y)").report()["certificates"]["ext_indices"] == []
    # a plane with an embedded line is not S1, so its window is 1 <= i <=
    # s - 1 = 2, cut at pd = 1: M = k[z0,z1,y] + k[z0,z1,y]/(y) x
    mixed = MultiStructure(Embedding(ring, ("x",)), Ideal.parse(ring, "(x^2, x*y)"), check=False)
    assert mixed.report()["certificates"]["ext_indices"] == [1]


def test_layer_relations_modulo_the_lower_term_match_the_full_modulus(monkeypatch):
    """layer_module takes the relations of I_j's generators modulo I_{j+1}
    only; restricted to the support ring they generate the same submodule
    as the relations modulo the full I_X*I_j + I_{j+1}."""
    presented = []
    original = GradedModule.minimal_with_map

    def recording(self):
        presented.append(self)
        return original(self)

    rows = _theorem_rows()
    rows.append(("nontypeI(1,2)", build_family("nontypeI", a=1, b=2).structures[0]))
    layers = 0
    for name, st in rows:
        emb, filt = st.embedding, st.filtration()
        for upper, lower in zip(filt.ideals, filt.ideals[1:]):
            monkeypatch.setattr(GradedModule, "minimal_with_map", recording)
            layer_module(emb, upper, lower)
            monkeypatch.setattr(GradedModule, "minimal_with_map", original)
            # the presentation is the first module layer_module minimalizes
            ours = presented[0].relations
            del presented[:]
            gens = upper.minimal_gens()
            modulus = emb.support_ideal().times(upper).plus(lower)
            vecs = gens + list(modulus.gens)
            full = [emb.restrict(s, len(gens)) for s in syzygies(vecs, rank=1)]
            assert submodule_equal(ours, [v for v in full if v]), (name, layers)
            layers += 1
    assert layers == 29


def _layer_by_cut_syzygies(emb, upper, lower):
    """The layer presentation the old way: the full syzygies of upper's
    minimal generators and lower's generators, cut to the first components
    and restricted to the support ring."""
    gens = upper.minimal_gens()
    vecs = gens + list(lower.gens)
    restricted = (emb.restrict(s, len(gens)) for s in syzygies(vecs, rank=1))
    return GradedModule(emb.support_ring(), tuple(g.degree() for g in gens),
                        [v for v in restricted if v])


def test_layer_kernels_modulo_the_lower_basis_match_the_cut_full_syzygies(monkeypatch):
    presented = []
    original = GradedModule.minimal_with_map

    def recording(self):
        presented.append(self)
        return original(self)

    rows = _theorem_rows()
    rows.append(("nontypeI(1,2)", build_family("nontypeI", a=1, b=2).structures[0]))
    layers = 0
    for name, st in rows:
        emb, filt = st.embedding, st.filtration()
        for layer, upper, lower in zip(filt.layers, filt.ideals, filt.ideals[1:]):
            with monkeypatch.context() as mp:
                mp.setattr(GradedModule, "minimal_with_map", recording)
                layer_module(emb, upper, lower)
            ours = presented.pop(0).relations
            del presented[:]
            reference = _layer_by_cut_syzygies(emb, upper, lower)
            assert submodule_equal(ours, reference.relations), (name, layers)
            # the reduced kernel basis is unique, so even the columns agree
            assert [v.data for v in ours] == [v.data for v in reference.relations]
            minimal, _ = reference.minimal_with_map()
            assert (layer.rank, layer.twists()) == (minimal.rank, minimal.twists())
            assert (module_hilbert_series(layer).reduced()
                    == module_hilbert_series(minimal).reduced()), (name, layers)
            layers += 1
    assert layers == 29


def test_kernel_modulo_the_relations_of_a_thicken_step_matches_the_cut_full_syzygies():
    """The presented step of thm-3.8/5: the kernel of the rows modulo the
    image of the relation columns is the full kernel of [rows | relations]
    cut to the rows' components, the part ``thicken`` lifts."""
    import test_groebner  # test_groebner imports this module

    entry = next(e for e in load_catalog("thm-3.8") if e.id == "thm-3.8/5")
    st = entry.structure(char=0, check=False)
    filt = st.filtration()
    layer, images = filt.layers[1], filt.layer_lifts[1]
    base = MultiStructure(st.embedding, filt.ideals[1], check=True)
    assert thicken(base, layer, images).ideal.equals(filt.ideals[2])
    s = len(images)
    columns = images + layer.relations
    image = interreduce(buchberger(columns[s:]))
    ours = syzygies(columns[:s], rank=layer.rank, modulo=image)
    reference = test_groebner._cut_syzygies(columns[:s], columns[s:], layer.rank)
    assert len(image) >= 3 and submodule_equal(ours, reference)
    assert [v.data for v in ours] == [v.data for v in interreduce(buchberger(reference))]


def test_s1_filtration_converts_no_presentation(conversions):
    # layer presentations stay column Vecs from the syzygies to the
    # minimal presentation and its Hilbert series
    layers = 0
    calls = conversions()
    for name, st in _theorem_rows():
        layers += len(s1_filtration(st).layers)
        assert calls == {"columns_to_vecs": 0, "vecs_to_columns": 0}, name
    assert layers == 26


def test_non_cm_locus_is_reported():
    ring = PolyRing(("z0", "z1", "x", "y"))
    # a plane with an embedded line: fails CM along x = y = 0
    st = MultiStructure(Embedding(ring, ("x",)), Ideal.parse(ring, "(x^2, x*y)"), check=False)
    cm, locus = st.locally_cm()
    assert not cm
    assert locus.equals(Ideal.parse(ring, "(x, y)"))


def test_filtration_shape_and_type_one(ring):
    st = _structure(ring, "(x^2 + z0*y, y^2)")
    filt = st.filtration()
    assert len(filt.ideals) == 4
    assert filt.reaches_top
    assert [l.rank for l in filt.layers] == [1, 1, 1]
    type1, flags = st.is_type_I()
    assert type1 and flags == [True, True, True, True]
    # layer polynomials add up to the structure polynomial
    total = HilbertPoly.make({1: 1})  # the reduced line
    for hp in filt.layer_polynomials:
        total = total + hp
    assert total == st.hilbert_polynomial()


def test_reduced_structure_filtration_starts_from_its_own_ideal(rebind):
    import multischeme.modules as modules

    entry = next(e for e in load_catalog("thm-3.6") if e.id == "thm-3.6/1")
    st = entry.structure()
    assert st.nilpotency_index() == 0
    calls = []

    def counting(counted):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return counted(*args, **kwargs)

        return wrapped

    rebind(modules, "free_resolution", counting)
    filt = st.filtration()
    assert filt.ideals[0] is st.ideal
    assert st.locally_cm()[0] and st.is_type_I() == (True, [True])
    # R/(x, y) = k[z] is free over the support ring: the CM verdict reads
    # term 0's module, which has no relation, so its one resolution forms
    # no syzygy
    assert [module.relations for module, in calls] == [[]]


def test_layer_series_check(ring):
    st = _structure(ring, "(x^2 + z0*y, y^2)")
    filt = st.filtration()
    layer = filt.layers[0]
    diff = filt.ideals[1].hilbert_series() - filt.ideals[0].hilbert_series()
    # the layer lives over k[z0, z1], the difference over k[z0, z1, x, y]
    assert layer.ring.nvars == 2 and diff.nvars == 4
    _check_layer_series(layer, diff)
    wrong = diff - HilbertSeries.make({3: -1}, 4)  # diff + t^3
    with pytest.raises(StructureError, match="layer Hilbert series mismatch"):
        _check_layer_series(layer, wrong)
    # equal numerators over different pole orders are different series
    sub = layer.ring
    with pytest.raises(StructureError, match="layer Hilbert series mismatch"):
        _check_layer_series(GradedModule(sub, (0,), [[]]), HilbertSeries.make({0: 1}, 3))
    # a zero layer matches a zero difference whatever the pole orders
    _check_layer_series(GradedModule(sub, (0,), [[sub.one()]]), HilbertSeries.make({}, 4))


def test_report_shape(ring):
    st = _structure(ring, "(x^2, y)")
    rep = st.report(seed=7)
    assert rep["support"] == ["x", "y"]
    assert rep["multiplicity"] == 2
    assert rep["verdicts"] == {"cm": True, "s1": True, "type_i": True}
    assert rep["certificates"]["non_cm_locus"] is None
    assert rep["seed"] == 7
    assert rep["layers"][0]["hilb"]["basis"] == "P"
    json.dumps(rep)  # serializable


def test_is_locally_free(ring):
    sub = PolyRing(("z0", "z1"))
    z0, z1 = map(sub.var, sub.names)
    free = GradedModule(sub, (0,), [[]])
    assert _is_locally_free(free, 1)
    twisted = GradedModule(sub, (0, 0), [[z0], [z1]])
    assert _is_locally_free(twisted, 1)
    not_free = GradedModule(sub, (0, 0), [[z0], [sub.zero()]])
    assert not _is_locally_free(not_free, 1)
    with pytest.raises(StructureError, match="exceeds generator count"):
        _is_locally_free(free, 2)
    # coker of (z0, z1)^T has rank 1, so Fitt_1 = (z0, z1) is not zero
    with pytest.raises(StructureError, match="below the expected 2"):
        _is_locally_free(twisted, 2)


def test_every_catalog_layer_is_locally_free_of_its_generic_rank():
    layers = 0
    for entry in load_catalog():
        for char in entry.chars:
            filt = entry.structure(char=char).filtration()
            for layer, poly in zip(filt.layers, filt.layer_polynomials):
                # X is linear, so the top P-coefficient is the generic rank
                assert poly.degree() == layer.ring.nvars - 1
                assert _is_locally_free(layer, poly.coeffs[-1][1]), (entry.id, char)
                layers += 1
    assert layers >= 80


def test_layers_are_presented_on_first_read_only(rebind):
    # the verdicts and the layer polynomials read the terms alone; the first
    # read of the layers presents each one once, lifts included, and the
    # filtration keeps them
    import multischeme.structures as structures

    calls = []

    def counting(original):
        def wrapped(emb, upper, lower):
            calls.append((upper, lower))
            return original(emb, upper, lower)

        return wrapped

    rebind(structures, "layer_module", counting)
    layers = 0
    for entry in load_catalog():
        for char in entry.chars:
            st = entry.structure(char=char)
            st.is_type_I(), st.locally_cm(), st.is_S1()
            filt = st.filtration()
            assert len(filt.layer_polynomials) == st.nilpotency_index()
            assert calls == []
            presented, built = filt.layers, list(calls)
            assert built == list(zip(filt.ideals, filt.ideals[1:])), (entry.id, char)
            assert len(filt.layer_lifts) == len(presented)
            assert filt.layers is presented and st.filtration().layers is presented
            assert calls == built
            layers += len(calls)
            calls.clear()
    assert layers == 88


def test_thicken_produces_next_multiplicity(ring):
    st = _structure(ring, "(x, y)")
    sub = st.embedding.support_ring()
    thick = thicken(st, GradedModule(sub, (1,), []), [sub.one(), sub.zero()])
    # kernel of (1, 0) row is spanned by e_2 => keep y, square x
    assert thick.ideal.equals(Ideal.parse(ring, "(x^2, y)"))
    assert thick.multiplicity() == 2


def test_thicken_rejects_degenerate_rows(ring):
    st = _structure(ring, "(x, y)")
    sub = st.embedding.support_ring()
    free = GradedModule(sub, (1,), [])
    with pytest.raises(StructureError, match="not onto"):
        thicken(st, free, [sub.var("z0"), sub.zero()])
    with pytest.raises(StructureError, match="1 images for 2 minimal generators"):
        thicken(st, free, [sub.one()])
    # an image outside the layer's one generator
    with pytest.raises(ValueError, match="outside rank 1"):
        thicken(st, free, [sub.one().shifted(1), sub.zero()])
    # images over the ambient ring, not the layer's
    with pytest.raises(ValueError, match="in a module over"):
        thicken(st, free, [ring.one(), ring.zero()])


def test_thicken_by_a_presented_quotient(ring):
    st = _structure(ring, "(x, y)")
    sub = st.embedding.support_ring()
    # L = O/(z1): the row (1, 0) maps x onto L and y to 0, so z1*x joins the kernel
    presented = GradedModule(sub, (1,), [[sub.var("z1")]])
    thick = thicken(st, presented, [sub.one(), sub.zero()])
    assert thick.ideal.equals(Ideal.parse(ring, "(x^2, y, z1*x)"))
    free = GradedModule(sub, (1,), [])
    assert thicken(st, free, [sub.one(), sub.zero()]).ideal.equals(Ideal.parse(ring, "(x^2, y)"))


def test_thicken_rejects_a_presented_quotient_it_does_not_reach(ring):
    st = _structure(ring, "(x, y)")
    sub = st.embedding.support_ring()
    # Fitt_0 of coker [z1, 0 | z1] is (z1), which vanishes at z1 = 0
    with pytest.raises(StructureError, match=r"Fitt_0 = \(z1\)"):
        thicken(st, GradedModule(sub, (1,), [[sub.var("z1")]]), [sub.var("z1"), sub.zero()])


def test_layer_lifts_round_trip(ring):
    # a free layer of a small example, and the presented rank-3 layer of
    # thm-3.8/5 (three relation columns)
    presented = next(e for e in load_catalog("thm-3.8") if e.id == "thm-3.8/5")
    cases = [
        (_structure(ring, "(x^2 + z0*y, y^2)"), 0, 0),
        (presented.structure(char=0, check=False), 1, 3),
    ]
    for st, j, relation_cols in cases:
        filt = st.filtration()
        layer, images = filt.layers[j], filt.layer_lifts[j]
        assert len(images) == len(filt.ideals[j].minimal_gens())
        # one column Vec per generator of I_j, on the layer's generators
        assert all(not v or max(v.terms) >> v.pk.cs < layer.rank for v in images)
        assert len(layer.relations) == relation_cols
        base = MultiStructure(st.embedding, filt.ideals[j], check=True)
        thick = thicken(base, layer, images)
        assert thick.ideal.equals(filt.ideals[j + 1])


def test_thicken_roundtrip_converts_only_for_its_fitting_minors(conversions):
    # each step reads Fitt_0's minors off one matrix and converts nothing back
    calls = conversions()
    assert run_scenario("thicken-roundtrip").status == "PASS"
    assert calls == {"columns_to_vecs": 0, "vecs_to_columns": 36}


@pytest.mark.parametrize("text, named", [
    ("(x^2 + z0*y, y^2, x^3)", ("x", "x^2")),
    ("(x^2, x*y*z0, y^2)", ("x", "x*y")),
])
def test_a_t_below_the_nilpotency_index_is_refused(ring, text, named):
    # below the index the pushforward presents R/(I + I_X^(t+1)), which is
    # CM where R/I is not, so the CM verdict refuses that t
    emb = Embedding(ring, ("x", "y"))
    ideal = Ideal(ring, parse_ideal(ring, text))
    assert MultiStructure(emb, ideal).nilpotency_index() == 2
    for t, monomial in enumerate(named):
        message = r"t = %d is below the nilpotency index: %s in" % (t, re.escape(monomial))
        with pytest.raises(StructureError, match=message):
            is_locally_CM(emb, ideal, t)
        low, summed = emb.pushforward(ideal, t), emb.pushforward(ideal.plus(emb.power(t + 1)), t)
        assert low.gen_degrees == summed.gen_degrees
        assert submodule_equal(low.relations, summed.relations)
    assert not is_locally_CM(emb, ideal, 2)[0]


def test_is_locally_cm_on_plain_ideal(ring):
    ok, locus, _ = is_locally_CM(Embedding(ring, ("x", "y")), Ideal.parse(ring, "(x^3, y)"), 2)
    assert ok and locus.is_one()


def _pinned_structures():
    ring = PolyRing(("z0", "z1", "z2", "x", "y"))
    entry = next(e for e in load_catalog("thm-3.8") if e.id == "thm-3.8/5")
    return {
        "example-2.9": _structure(ring, "(x^2 + z0*y, y^2)"),
        "thm-3.8/5@p0": entry.structure(char=0),
        "nontypeI(1,2)": build_family("nontypeI", a=1, b=2).structures[0],
    }


def test_report_matches_pinned():
    # thm-3.8/5 has a presented layer; nontypeI(1,2) a non-CM term
    path = os.path.join(os.path.dirname(__file__), "data", "pinned_reports.json")
    with open(path) as fh:
        pinned = json.load(fh)
    reports = {name: st.report() for name, st in _pinned_structures().items()}
    assert json.loads(json.dumps(reports)) == pinned


def test_verdicts_after_report_resolve_nothing(monkeypatch):
    import multischeme.ideals as ideals
    import multischeme.structures as structures

    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for name, st in _pinned_structures().items():
        rep = st.report()
        monkeypatch.setattr(ideals, "free_resolution", counting("resolution", ideals.free_resolution))
        for hull in ("unmixed_part", "_primary_component"):
            monkeypatch.setattr(structures, hull, counting("hull", getattr(structures, hull)))
        assert st.is_type_I() == (rep["verdicts"]["type_i"], [t["locally_cm"] for t in rep["filtration"]])
        assert st.locally_cm()[0] == rep["verdicts"]["cm"]
        monkeypatch.undo()
        assert calls == [], name


def test_an_ideal_over_another_ring_is_refused(ring):
    emb = Embedding(ring, ("x", "y"))
    mod5 = PolyRing(ring.names, char=5)
    with pytest.raises(StructureError, match=r"I_Y is over GF\(5\)\[z0,z1,x,y\]"):
        MultiStructure(emb, Ideal.parse(mod5, "(x^2, y)"))
    wider = PolyRing(("z0", "z1", "z2", "x", "y"))
    with pytest.raises(StructureError, match=r"I_Y is over QQ\[z0,z1,z2,x,y\]"):
        MultiStructure(emb, Ideal.parse(wider, "(x^2, y)"))
    # generators over another ring are refused by the ideal they would build
    with pytest.raises(ValueError, match="in an ideal over"):
        MultiStructure(emb, parse_ideal(mod5, "(x^2, y)"))


def test_layers_keep_the_structure_guard(ring):
    guard = Guard(max_degree=30)
    st = MultiStructure(Embedding(ring, ("x", "y"), guard), parse_ideal(ring, "(x^2, x*y, y^2)"))
    layers = st.filtration().layers
    assert layers and all(layer.guard is guard for layer in layers)


def test_a_verdict_does_not_depend_on_call_history():
    # each structure computes under its embedding's guard, so a verdict
    # reached under the default budget leaves a strict budget's trip standing
    ring = PolyRing(("z0", "z1", "z2", "x", "y"))
    text = "(x^2 + z0*y, y^2)"
    strict_emb = Embedding(ring, ("x", "y"), Guard(max_degree=2))
    strict = MultiStructure(strict_emb, parse_ideal(ring, text), check=False)
    default = _structure(ring, text)
    assert strict.ideal.guard is strict_emb.guard and default.locally_cm()[0]
    with pytest.raises(ResourceGuardExceeded, match="S-pair degree 3 exceeds budget 2"):
        strict.locally_cm()
    # an ideal built with another budget than its embedding's is refused
    with pytest.raises(StructureError, match="built with"):
        MultiStructure(strict_emb, default.ideal, check=False)
