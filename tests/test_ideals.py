import random

import pytest
from prop_suites import _random_form
from test_modules import _random_presentation

from multischeme.catalog import load_catalog
from multischeme.groebner import (
    DEFAULT_GUARD,
    Guard,
    buchberger,
    groebner_basis,
    interreduce,
    normal_form,
    syzygies,
)
from multischeme.hilbert import ideal_hilbert_series
from multischeme.ideals import (
    Ideal,
    _ext_annihilator,
    colon,
    eliminate,
    ext_annihilator,
    fitting_ideal,
    intersect,
    is_irrelevant_primary,
    is_unmixed,
    module_colon,
    quotient_resolution,
    radical_contains,
    same_zero_locus,
    saturate,
    unmixed_part,
)
from multischeme.modules import GradedModule
from multischeme.ring import PolyRing, TermOrder, Vec, poly_divide_exact


@pytest.fixture
def ring():
    return PolyRing(("z0", "x", "y"))


def _ideal(ring, text):
    return Ideal.parse(ring, text)


def test_membership_and_reduction(ring):
    I = _ideal(ring, "(x^2 + z0*y, y^2)")
    x, y, z0 = ring.var("x"), ring.var("y"), ring.var("z0")
    assert I.contains(x ** 2 * y + z0 * y * y)
    assert not I.contains(x * y)
    assert I.reduce(x ** 2) == -(z0 * y)


def test_ideal_equality_and_sum(ring):
    a = _ideal(ring, "(x, y)")
    b = _ideal(ring, "(x + y, y)")
    assert a.equals(b)
    assert a.plus(_ideal(ring, "(z0)")).equals(_ideal(ring, "(x, y, z0)"))
    assert a.times(a).equals(_ideal(ring, "(x^2, x*y, y^2)"))


def _product_loop_power(ideal, k):
    """I^k the old way: every product of generators, repeats kept."""
    out = Ideal(ideal.ring, [ideal.ring.one()])
    for _ in range(k):
        out = Ideal(ideal.ring, [f * g for f in out.gens for g in ideal.gens])
    return out


def test_powers_keep_each_product_once(ring):
    xy = _ideal(ring, "(x, y)")
    assert len(_product_loop_power(xy, 3).gens) == 8
    assert [str(g) for g in xy.times(xy).times(xy).gens] == ["x^3", "x^2*y", "x*y^2", "y^3"]
    assert Ideal(ring, [ring.one()]).times(xy).gens == xy.gens
    rng = random.Random(3)
    for _ in range(12):
        I = Ideal(ring, [_random_form(rng, ring, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))])
        power = Ideal(ring, [ring.one()])
        for k in range(4):
            assert power.groebner() == _product_loop_power(I, k).groebner()
            power = power.times(I)
        assert len(set(I.times(xy).gens)) == len(I.times(xy).gens)


def test_the_sum_of_i_y_and_a_support_power_is_pinned(monkeypatch):
    """I_Y + I_X^3 of thm-3.8/5 is I_Y.  The sum extends I_Y's unreduced
    basis, so the four cubes enter reduced to zero, no S-pair of the sum is
    formed and its basis is I_Y's.  With that basis cached, reduced or
    unreduced, ``plus`` forms no pair either; without it, ``plus`` runs I_Y's
    Buchberger first, whose pairs are pinned.  The sum makes no reduced
    basis of I_Y."""
    import multischeme.groebner as groebner

    calls = []
    spair = groebner._spair

    def counting(f, g):
        calls.append(1)
        return spair(f, g)

    entry = next(e for e in load_catalog("thm-3.8") if e.id == "thm-3.8/5")
    # (I_Y's basis cached, S-pairs formed by plus)
    for cached, pinned in (("reduced", 0), ("unreduced", 0), (None, 10)):
        st = entry.structure(char=0, check=False)
        iy, support = st.ideal, st.embedding.support_ideal()
        cube = support.times(support).times(support)
        if cached == "reduced":
            iy.groebner()
        elif cached == "unreduced":
            iy.leads()
        with monkeypatch.context() as mp:
            mp.setattr(groebner, "_spair", counting)
            del calls[:]
            total = iy.plus(cube)
            at_plus = len(calls)
            total.leads()
        assert (len(cube.gens), at_plus, len(calls) - at_plus, len(total._raw)) == (4, pinned, 0, 7)
        assert (iy._gb is None) == (cached != "reduced")
        assert total.equals(iy)


def test_colon_oracles(ring):
    I = _ideal(ring, "(x^2, x*y)")
    x, y = ring.var("x"), ring.var("y")
    assert colon(I, x).equals(_ideal(ring, "(x, y)"))
    assert colon(I, y).equals(_ideal(ring, "(x)"))
    assert colon(I, _ideal(ring, "(x, y)")).equals(_ideal(ring, "(x)"))
    # the colon by a polynomial comes back on its reduced basis
    assert colon(I, x).gens == tuple(_ideal(ring, "(x, y)").groebner())
    assert colon(Ideal(ring, []), x).is_zero()
    with pytest.raises(ValueError, match="colon by zero$"):
        colon(I, ring.zero())
    with pytest.raises(ValueError, match="colon by zero ideal"):
        colon(I, Ideal(ring, []))
    with pytest.raises(ValueError, match="colon by zero ideal"):
        colon(I, Ideal(ring, [ring.zero()]))


def _t_trick_intersect(*ideals):
    """The former intersection: a pairwise fold of the t-trick
    a ∩ b = (t*a + (1 - t)*b) ∩ R in one ring extended by t."""
    ring = ideals[0].ring
    t = "t"
    assert t not in ring.names
    ext = ring.extended((t,))
    tv = ext.var(t)
    out = ideals[0]
    for b in ideals[1:]:
        gens = [tv * ring.transfer(f, ext) for f in out.gens]
        gens += [(ext.one() - tv) * ring.transfer(g, ext) for g in b.gens]
        gb = groebner_basis(gens)
        out = Ideal(ring, [ext.transfer(g, ring) for g in gb if t not in g.variables()])
    return out


def _rabinowitsch_contains(ideal, f):
    """The former radical membership: f lies in rad(I) exactly when
    I + (1 - t*f) is the unit ideal in the ring extended by a fresh t."""
    ring = ideal.ring
    if f.is_zero():
        return True
    t = "t"
    assert t not in ring.names
    ext = ring.extended((t,))
    gens = [ring.transfer(g, ext) for g in ideal.gens]
    gens.append(ext.one() - ext.var(t) * ring.transfer(f, ext))
    gb = groebner_basis(gens)
    return len(gb) == 1 and gb[0].is_constant()


def _syzygy_module_colon(im_gens, vs, rank):
    """The former module colon: per vector, the first coordinates of the
    syzygies of [v] + im_gens, then the t-trick intersection."""
    return _t_trick_intersect(*(
        Ideal(v.ring, [s.component(0) for s in syzygies([v] + list(im_gens), rank=rank)])
        for v in vs
    ))


def _syzygy_colon(ideal, f):
    gens = f.gens if isinstance(f, Ideal) else [f]
    return _syzygy_module_colon(ideal.groebner(), list(gens), 1)


@pytest.mark.parametrize("char", [0, 5])
def test_one_graph_colon_matches_the_syzygy_reference(char):
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(char)
    proper = wide = 0
    for _ in range(40):
        # a common factor h makes the colons by h and by ideals through h proper
        h = _random_form(rng, ring, 1)
        I = Ideal(ring, [h * _random_form(rng, ring, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
                  + [_random_form(rng, ring, rng.randint(2, 3))])
        J = Ideal(ring, [h] + [_random_form(rng, ring, rng.randint(1, 2)) for _ in range(rng.randint(0, 3))])
        for f in (h, _random_form(rng, ring, rng.randint(1, 2)), J):
            quotient = colon(I, f)
            assert quotient.gens == tuple(_syzygy_colon(I, f).groebner())
            proper += not quotient.equals(I)
        for q in quotient.gens:
            assert all(I.contains(q * g) for g in J.gens)
        wide += len(J.gens) >= 3
    assert proper >= 40 and wide >= 10


@pytest.mark.parametrize("char", [0, 5])
def test_one_graph_module_colon_matches_the_syzygy_reference(char):
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(char)
    proper = 0
    for _ in range(30):
        degs, cols = _random_presentation(ring, rng)
        rank = len(degs)
        for m in (1, 2, 3):
            vs = [cols[0]]
            for _ in range(m - 1):
                d = max(degs) + rng.randint(0, 1)
                forms = [_random_form(rng, ring, d - a) for a in degs]
                vs.append(Vec(ring, {(i, e): c for i, f in enumerate(forms) for (_, e), c in f.data.items()}))
            quotient = module_colon(interreduce(buchberger(cols[1:])), vs, rank)
            assert quotient.gens == tuple(_syzygy_module_colon(cols[1:], vs, rank).groebner())
            proper += not (quotient.is_zero() or quotient.is_one())
    assert proper >= 10


def test_ext_annihilators_of_theorem_rows_match_the_syzygy_reference(monkeypatch):
    import multischeme.ideals as ideals

    widths = []

    def reference_colon(im_gens, vs, rank, guard):
        widths.append(len(vs))
        return _syzygy_module_colon(im_gens, vs, rank)

    for table in ("thm-3.6", "thm-3.8"):
        for entry in load_catalog(table):
            for char in entry.chars:
                I = entry.structure(char=char).ideal
                for i in range(quotient_resolution(I).length + 1):
                    expected = ext_annihilator(I, i)
                    with monkeypatch.context() as mp:
                        mp.setattr(ideals, "module_colon", reference_colon)
                        reference = _ext_annihilator(quotient_resolution(I), i)
                    assert expected.groebner() == reference.groebner(), (entry.id, char, i)
    # several ext annihilators fold two or more kernel vectors into one graph
    assert sum(w >= 2 for w in widths) >= 3


def test_module_colon_forms_no_s_pair_of_two_image_basis_elements(ring, monkeypatch):
    """The image copies go to Buchberger, through ``syzygies``, as its known
    basis.  They are the only elements without a term in the indicator
    component: the graph element has one, and so has every remainder, since
    a remainder lying in the image copies would reduce to zero by their
    basis."""
    import multischeme.groebner as groebner
    import multischeme.ideals as ideals

    original, spair = ideals.syzygies, groebner._spair
    indicator = []  # the rank of the current module_colon call's syzygies
    pairs = []  # per S-pair: whether both elements lie in the image copies

    def recording(vecs, rank, guard=None, modulo=()):
        indicator.append(rank)
        try:
            return original(vecs, rank, guard=guard, modulo=modulo)
        finally:
            indicator.pop()

    def image_only(v):
        return all(j < indicator[-1] for j, _ in v.data)

    def checking(f, g):
        if indicator:
            pairs.append(image_only(f) and image_only(g))
        return spair(f, g)

    monkeypatch.setattr(ideals, "syzygies", recording)
    monkeypatch.setattr(groebner, "_spair", checking)
    I = _ideal(ring, "(x^2 + z0*y, y^2, x^3, x*y*z0)")
    # without a known basis these form 3, 3 and 89 S-pairs of two image elements
    entry = next(e for e in load_catalog("thm-3.8") if e.id == "thm-3.8/5")
    J = entry.structure(char=0).ideal
    for run in (
        lambda: colon(I, _ideal(ring, "(x, y*z0)")),
        lambda: intersect(_ideal(ring, "(x^2, x*y, z0^2)"), _ideal(ring, "(y^2, x*z0, y*z0)"),
                          _ideal(ring, "(x*y, y^3, z0^3)")),
        lambda: [_ext_annihilator(quotient_resolution(J), i)
                 for i in range(1, quotient_resolution(J).length + 1)],
    ):
        del pairs[:]
        run()
        assert pairs and not any(pairs)


def test_colon_and_ext_annihilator_are_one_buchberger_without_intersect(ring, monkeypatch):
    import multischeme.groebner as groebner
    import multischeme.ideals as ideals

    calls = dict.fromkeys(("buchberger", "groebner_basis", "syzygies", "intersect"), 0)
    # Buchberger runs called from ideals.py and those inside syzygies count alike
    for module, name in ((ideals, "buchberger"), (groebner, "buchberger"), (ideals, "groebner_basis"),
                         (ideals, "syzygies"), (ideals, "intersect")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    I = _ideal(ring, "(x^2 + z0*y, y^2, x^3)")
    I.groebner()
    for f in (ring.var("x"), _ideal(ring, "(x, y, z0^2)")):
        before = dict(calls)
        colon(I, f)
        assert {k: calls[k] - before[k] for k in calls} == {
            "buchberger": 1, "groebner_basis": 0, "syzygies": 1, "intersect": 0
        }
    for i in range(quotient_resolution(I).length + 1):
        ext_annihilator(I, i)
    assert calls["intersect"] == 0
    # an intersection of ideals with cached bases is one graph as well
    a, b, c = (_ideal(ring, t) for t in ("(x^2, y)", "(x, y^2)", "(z0, x*y)"))
    expected = tuple(_ideal(ring, "(x^2*z0, x*y, y^2*z0)").groebner())
    for i in (a, b, c):
        i.groebner()
    before = dict(calls)
    assert intersect(a, b, c).gens == expected
    delta = {k: calls[k] - before[k] for k in ("buchberger", "groebner_basis", "syzygies")}
    assert delta == {"buchberger": 1, "groebner_basis": 0, "syzygies": 1}


@pytest.mark.parametrize("char", [0, 5])
def test_intersect_matches_the_t_trick_reference(char):
    ring = PolyRing(("a", "b", "c", "d"), char=char)
    rng = random.Random(char)
    proper = 0
    for _ in range(150):
        # a common factor h keeps some intersections apart from the products
        h = _random_form(rng, ring, 1)
        ideals = []
        for _ in range(rng.randint(2, 3)):
            factor = h if rng.random() < 0.5 else ring.one()
            degrees = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
            ideals.append(Ideal(ring, [factor * _random_form(rng, ring, d) for d in degrees]))
        meet = intersect(*ideals)
        assert meet.gens == tuple(_t_trick_intersect(*ideals).groebner())
        product = ideals[0]
        for i in ideals[1:]:
            product = product.times(i)
        proper += not meet.equals(product)
    assert proper >= 100


def test_saturation_oracles(ring):
    I = _ideal(ring, "(x^2, x*y)")
    y = ring.var("y")
    sat, e = saturate(I, y)
    assert sat.equals(_ideal(ring, "(x)"))
    assert e == 1
    again, e2 = saturate(sat, y)
    assert e2 == 0 and again.equals(sat)
    # saturating by an ideal
    sat2, _ = saturate(I, _ideal(ring, "(x, y)"))
    assert sat2.equals(_ideal(ring, "(x)"))


def test_elimination_oracle():
    ring = PolyRing(("t", "x", "y"))
    I = Ideal.parse(ring, "(x - t, y - t^2)")
    out = eliminate(I, ("t",))
    assert out.equals(Ideal.parse(ring, "(x^2 - y)"))


def test_intersection_oracle(ring):
    a = _ideal(ring, "(x)")
    b = _ideal(ring, "(y)")
    assert intersect(a, b).equals(_ideal(ring, "(x*y)"))
    c = intersect(_ideal(ring, "(x, y)"), _ideal(ring, "(x, z0)"))
    assert c.equals(_ideal(ring, "(x, y*z0)"))


def test_intersect_of_several_ideals(ring):
    a, b, c = (_ideal(ring, t) for t in ("(x^2, y)", "(x, y^2)", "(z0, x*y)"))
    three = intersect(a, b, c)
    assert three.equals(intersect(intersect(a, b), c))
    assert three.equals(intersect(a, intersect(b, c)))
    assert three.equals(_ideal(ring, "(x^2*z0, x*y, y^2*z0)"))
    assert intersect(a) is a
    with pytest.raises(ValueError, match="intersection of no ideals"):
        intersect()


def test_membership_builds_one_lead_index_per_basis(ring, monkeypatch):
    import multischeme.groebner as groebner
    import multischeme.ideals as ideals

    I = _ideal(ring, "(x^2 + z0*y, y^2, x^3)")
    I.groebner()
    calls = []
    original = groebner.lead_index

    def counting(basis):
        calls.append(1)
        return original(basis)

    for mod in (groebner, ideals):
        monkeypatch.setattr(mod, "lead_index", counting)
    other = _ideal(ring, "(x^2*y, y^3, x^2*z0 + z0^2*y, x^4, x*y^2)")
    assert I.contains_ideal(other)
    assert not I.contains_ideal(_ideal(ring, "(x, y)"))
    assert len(calls) == 1


@pytest.mark.parametrize("char", [0, 5])
def test_reduce_by_the_cached_index_equals_the_list_path(char):
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(char)
    for _ in range(20):
        I = Ideal(ring, [_random_form(rng, ring, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))])
        for _ in range(5):
            f = _random_form(rng, ring, rng.randint(1, 4))
            assert I.reduce(f) == normal_form(f, I.groebner())


def test_radical_membership(ring):
    I = _ideal(ring, "(x^2, y^3)")
    assert radical_contains(I, ring.var("x"))
    assert radical_contains(I, ring.var("x") + ring.var("y"))
    assert not radical_contains(I, ring.var("z0"))
    assert I._gb is None  # the unreduced run answers; nothing is interreduced
    assert same_zero_locus(I, _ideal(ring, "(x, y)"))
    assert not same_zero_locus(I, _ideal(ring, "(x)"))


def _radical_case(rng, ring, k):
    """A homogeneous (ideal, form) pair; k cycles through a zero form, a
    constant (against a unit ideal half the time), a form through the
    radical of powers, and a random form."""
    gens = [_random_form(rng, ring, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
    powers = [g ** rng.randint(1, 3) for g in gens]
    kind = k % 5
    if kind == 0:
        return Ideal(ring, powers), ring.zero()
    if kind == 1:
        unit = [ring.one()] if k % 10 == 1 else []
        return Ideal(ring, powers + unit), ring.const(rng.randint(1, 4))
    if kind == 2:
        return Ideal(ring, powers), gens[-1] * _random_form(rng, ring, rng.randint(0, 1))
    return Ideal(ring, powers), _random_form(rng, ring, rng.randint(1, 2))


@pytest.mark.parametrize("char", [0, 5])
def test_radical_membership_matches_the_rabinowitsch_reference(char):
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(char)
    verdicts = []
    for k in range(200):
        ideal, f = _radical_case(rng, ring, k)
        verdict = radical_contains(ideal, f)
        assert verdict == _rabinowitsch_contains(ideal, f), (ideal, f)
        verdicts.append(verdict)
    assert 50 < sum(verdicts) < 150


def test_radical_membership_rejects_inhomogeneous_input(ring):
    x = ring.var("x")
    with pytest.raises(ValueError, match="inhomogeneous"):
        radical_contains(_ideal(ring, "(x^2, y - 1)"), x)
    with pytest.raises(ValueError, match="inhomogeneous"):
        radical_contains(_ideal(ring, "(x^2, y)"), x + 1)


def test_irrelevant_primary_detection(ring):
    assert is_irrelevant_primary(_ideal(ring, "(x^2, y, z0^3)"))
    assert not is_irrelevant_primary(_ideal(ring, "(x, y)"))
    assert not is_irrelevant_primary(Ideal(ring, []))
    assert is_irrelevant_primary(_ideal(ring, "(1)"))
    assert is_irrelevant_primary(_ideal(ring, "(z0^2, x^2, y^2)"))
    assert not is_irrelevant_primary(_ideal(ring, "(x^2, x*y)"))
    with pytest.raises(ValueError, match="inhomogeneous"):
        is_irrelevant_primary(_ideal(ring, "(x^2, y, z0 - 1)"))


def _zero_locus_case(rng, ring, k):
    """Homogeneous generators; k cycles through the unit ideal, an m-primary
    ideal (pure powers of independent linear forms, triangularly mixed), n - 1
    forms (a nonempty V(I)) and one to four random forms."""
    n = ring.nvars
    kind = k % 4
    if kind == 0:
        return [_random_form(rng, ring, rng.randint(1, 2)), ring.const(rng.randint(1, 4))]
    if kind == 1:
        xs = [ring.var(n) for n in ring.names]
        lin = [xs[i] + sum((ring.const(rng.randint(-2, 2)) * xs[j] for j in range(i)), ring.zero())
               for i in range(n)]
        gens = []
        for i, l in enumerate(lin):
            g = l ** rng.randint(1, 3)
            if g.degree() > 1:
                for j in range(i):
                    g = g + lin[j] * _random_form(rng, ring, g.degree() - 1)
            gens.append(g)
        return gens
    count = n - 1 if kind == 2 else rng.randint(1, 4)
    return [_random_form(rng, ring, rng.randint(1, 3)) for _ in range(count)]


@pytest.mark.parametrize("char", [0, 5])
@pytest.mark.parametrize("order", ["grevlex", "lex", "block"])
def test_irrelevant_primary_matches_the_hilbert_series_reference(char, order):
    """The pure-power verdict against the Hilbert pole of the monic Fraction
    reference basis: V(I) is empty exactly when dim < 0."""
    from test_groebner import _reference_buchberger  # test_groebner imports this module

    order = TermOrder(order, front=1 if order == "block" else 0)
    ring = PolyRing(("x", "y", "z"), char=char, order=order)
    rng = random.Random(char)
    verdicts = []
    for k in range(48):
        gens = _zero_locus_case(rng, ring, k)
        basis = _reference_buchberger(gens)
        series = ideal_hilbert_series(ring, [v.lead()[0][1] for v in basis])
        verdict = is_irrelevant_primary(Ideal(ring, gens))
        assert verdict == (series.dimension_degree()[0] < 0), gens
        verdicts.append(verdict)
    assert all(verdicts[0::4]) and all(verdicts[1::4]) and not any(verdicts[2::4])
    assert 24 <= sum(verdicts) < 48


@pytest.mark.parametrize("char", [0, 5])
def test_one_buchberger_run_serves_the_leads_and_the_reduced_basis(char, monkeypatch):
    """hilbert_series, is_one and is_irrelevant_primary, then groebner: one
    ``buchberger`` call per ideal, whichever module calls it, for a plain ideal
    (known = 0) and for a sum that extends a cached basis (known > 0), and the
    reduced basis is the plain one."""
    import multischeme.groebner as groebner
    import multischeme.ideals as ideals

    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(char)
    calls = []
    original = groebner.buchberger

    def counting(vecs, guard=None, known=0):
        calls.append(known)
        return original(vecs, guard, known)

    for module in (groebner, ideals):
        monkeypatch.setattr(module, "buchberger", counting)
    knowns = []
    for k in range(24):
        gens = _zero_locus_case(rng, ring, k)
        ideal = Ideal(ring, gens)
        if k % 2:
            first = Ideal(ring, gens[:1])
            first.groebner()
            ideal = first.plus(Ideal(ring, gens[1:]))
        expected = groebner_basis(gens)
        del calls[:]
        ideal.hilbert_series()
        one = ideal.is_one()
        is_irrelevant_primary(ideal)
        assert ideal.groebner() == expected
        assert one == ideal.is_one() == (ideal.groebner() == [ring.one()])
        assert len(calls) == 1
        knowns.append(calls[0])
    assert not any(knowns[0::2]) and all(knowns[1::2])


@pytest.mark.parametrize("char", [0, 5])
def test_membership_reads_the_unreduced_run(char, monkeypatch):
    """``reduce`` takes the normal form modulo the unreduced basis, which is
    the one modulo the reduced basis, so ``contains`` interreduces nothing:
    for a plain ideal, for a sum that extends a cached basis (known > 0) and
    for an ideal made ``from_basis``, which runs no Buchberger at all."""
    import multischeme.ideals as ideals

    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(char)
    runs = []
    original = ideals.buchberger

    def counting(vecs, guard=None, known=0):
        runs.append(known)
        return original(vecs, guard, known)

    monkeypatch.setattr(ideals, "buchberger", counting)
    members = outside = 0
    for k in range(24):
        gens = _zero_locus_case(rng, ring, k)
        first = Ideal(ring, gens[:1])
        first.groebner()
        fresh = (Ideal(ring, gens), first.plus(Ideal(ring, gens[1:])))
        cases = fresh + (Ideal.from_basis(ring, groebner_basis(gens)),)
        probes = [_random_form(rng, ring, rng.randint(1, 3)) for _ in range(3)]
        probes += [g * _random_form(rng, ring, 1) for g in gens]  # members
        # one run each for the plain ideal and the sum, none from_basis
        for ideal, expected in zip(cases, ([0], [len(first.groebner())], [])):
            del runs[:]
            verdicts = [ideal.contains(f) for f in probes]
            assert runs == expected
            members += sum(verdicts)
            outside += len(verdicts) - sum(verdicts)
        assert all(ideal._gb is None for ideal in fresh)
        for ideal in cases:
            for f in probes:
                assert ideal.reduce(f) == normal_form(f, ideal.groebner())
    assert members >= 24 and outside >= 24


def test_is_one_reads_the_leads_with_and_without_the_reduced_basis():
    ring = PolyRing(("x", "y"))
    x, y = map(ring.var, ring.names)
    cases = [([], False), ([x, x + ring.one()], True), ([x * y, x * x + y * y], False)]
    for gens, unit in cases:
        ideal = Ideal(ring, gens)
        assert ideal.is_one() == unit and ideal._gb is None
        ideal.groebner()
        assert ideal.is_one() == unit and ideal._gb is not None
        assert Ideal.from_basis(ring, ideal.groebner()).is_one() == unit


def test_exact_division(ring):
    x, y = ring.var("x"), ring.var("y")
    f = (x + y) * (x - y)
    assert poly_divide_exact(f, x + y) == x - y
    with pytest.raises(ArithmeticError):
        poly_divide_exact(x, y)


def test_fitting_ideals_of_column_presentation(ring):
    z0, z1 = ring.var("z0"), ring.var("x")
    col = [[ring.var("z0")], [ring.var("x")], [ring.var("y")]]
    mod = GradedModule(ring, (0, 0, 0), col)
    # coker of a single column in R^3
    assert fitting_ideal(mod, 3).is_one()
    assert fitting_ideal(mod, 2).equals(_ideal(ring, "(z0, x, y)"))
    assert fitting_ideal(mod, 1).is_zero()
    assert fitting_ideal(mod, 0).is_zero()
    assert fitting_ideal(mod, -1).is_zero()


def test_fitting_ideals_of_free_module(ring):
    free = GradedModule(ring, (0, 0), [[], []])
    assert fitting_ideal(free, 2).is_one()
    assert fitting_ideal(free, 1).is_zero()
    assert fitting_ideal(free, 0).is_zero()


def test_ext_annihilator_of_complete_intersection(ring):
    I = _ideal(ring, "(x^2, y^2)")
    # codimension 2 CI: only Ext^2 is nonzero, with annihilator I itself
    assert ext_annihilator(I, 0).is_one()
    assert ext_annihilator(I, 1).is_one()
    assert ext_annihilator(I, 2).equals(I)


def test_ext_annihilator_detects_embedded_point():
    ring = PolyRing(("z0", "x", "y"))
    I = Ideal.parse(ring, "(x^2 + z0*y, y^2, x^3)")
    # Ext^2 sees the top-dimensional part; Ext^3 sees the embedded point
    assert ext_annihilator(I, 2).equals(Ideal.parse(ring, "(x^2 + z0*y, x*y, y^2)"))
    assert is_irrelevant_primary(ext_annihilator(I, 3))
    # the embedded component sits at the irrelevant ideal, so projectively
    # the scheme still counts as unmixed
    assert is_unmixed(I)
    assert is_unmixed(Ideal.parse(ring, "(x^2 + z0*y, y^2)"))
    # a plane together with a lower-dimensional component is mixed
    assert not is_unmixed(Ideal.parse(ring, "(x*z0, x*y)"))


def test_unmixed_part_strips_embedded_component():
    ring = PolyRing(("z0", "x", "y"))
    I = Ideal.parse(ring, "(x^2 + z0*y, y^2, x^3)")
    hull = unmixed_part(I)
    expected = Ideal.parse(ring, "(x^2 + z0*y, x*y, y^2)")
    assert hull.equals(expected)
    assert hull.gens == tuple(expected.groebner())


@pytest.mark.parametrize("char", [0, 2, 5])
def test_unmixed_part_saturates_by_the_annihilator_when_no_element_avoids_top_primes(char):
    ring = PolyRing(("a", "b", "c", "d"), char=char)
    I = Ideal.parse(ring, "(a^3*b, a^2*b^2, a*b^3, a^2*c, a*b*c, b^2*c, c^2)")
    assert I.codimension() == 2
    ann = ext_annihilator(I, 3)
    assert ann.equals(Ideal.parse(ring, "(a^2, a*b, b^2, c)"))
    # every basis element lies in a top prime, (a, c) or (b, c)
    assert all(Ideal(ring, I.groebner() + [f]).codimension() == 2 for f in ann.groebner())
    hull = unmixed_part(I)
    assert hull.equals(ext_annihilator(I, 2))
    assert hull.equals(Ideal.parse(ring, "(a*b, c)"))


def test_unmixed_part_is_one_saturation(monkeypatch):
    import multischeme.ideals as ideals

    saturations, built = [], []
    real_saturate, real_init = ideals.saturate, Ideal.__init__

    def counting(ideal, f):
        saturations.append(f)
        return real_saturate(ideal, f)

    def recording(self, ring, gens, guard=None):
        real_init(self, ring, gens, guard)
        built.append(self.gens)

    monkeypatch.setattr(ideals, "saturate", counting)
    monkeypatch.setattr(Ideal, "__init__", recording)
    ring = PolyRing(("z0", "x", "y"))
    mixed = Ideal.parse(ring, "(x^2 + z0*y, y^2, x^3)")
    assert unmixed_part(mixed).equals(Ideal.parse(ring, "(x^2 + z0*y, x*y, y^2)"))
    assert len(saturations) == 1
    # the rational quartic curve is prime, so unmixed, but not arithmetically
    # CM: ann Ext^3 is a non-unit annihilator in its window
    ring = PolyRing(("a", "b", "c", "d"))
    quartic = Ideal.parse(ring, "(b*c - a*d, c^3 - b*d^2, a*c^2 - b^2*d, b^3 - a^2*c)")
    basis = tuple(quartic.groebner())
    assert not ext_annihilator(quartic, 3).is_one()
    saturations.clear()
    built.clear()
    assert unmixed_part(quartic).gens == basis
    assert len(saturations) <= 1
    assert not [g for g in built if len(g) == len(basis) + 1 and g[:-1] == basis]


def test_unmixed_part_of_an_unmixed_ideal_keeps_its_caches(ring):
    I = _ideal(ring, "(x^2 + z0*y, y^2, 2*y^2 + x^2 + z0*y)")
    hull = unmixed_part(I)
    assert hull.gens == tuple(I.groebner())
    assert hull.hilbert_series() is I.hilbert_series()
    assert quotient_resolution(hull) is quotient_resolution(I)


def test_dimension_degree_and_codimension(ring):
    I = _ideal(ring, "(x^2 + z0*y, y^2)")
    assert I.dimension_degree() == (0, 4)
    assert I.codimension() == 2
    assert _ideal(ring, "(1)").dimension_degree() == (-1, 0)


def test_minimal_gens_drops_redundant(ring):
    I = _ideal(ring, "(x, y, x^2 + y^2)")
    assert sorted(map(str, I.minimal_gens())) == ["x", "y"]


def test_minimal_gens_of_the_zero_and_unit_ideals_are_their_bases(ring):
    assert Ideal(ring, []).minimal_gens() == []
    assert [str(g) for g in _ideal(ring, "(x, x + 1)").minimal_gens()] == ["1"]


def test_minimal_gens_builds_one_basis_per_kept_generator(ring, monkeypatch):
    import multischeme.ideals as ideals

    I = _ideal(ring, "(x, y, x^2 + y^2, x*y, z0*x - y, z0^2, x^2*z0, z0^2 + x*y)")
    # the kept list of the former loop, which built a fresh Ideal per candidate
    expected = []
    for g in sorted(I.gens, key=lambda g: g.degree()):
        if not (expected and Ideal(ring, expected).contains(g)):
            expected.append(g)
    calls = []
    counted = ideals.groebner_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(ideals, "groebner_basis", counting)
    kept = I.minimal_gens()
    assert kept == expected
    assert sorted(map(str, kept)) == ["x", "y", "z0^2"]
    assert len(calls) <= len(kept)


def test_a_generator_over_another_ring_is_refused():
    a = PolyRing(("a", "b", "c")).var("a")
    # read over k[x, y], a^2's packed key would be another monomial
    both = r"over QQ\[a,b,c\]/grevlex in an ideal over QQ\[x,y\]/grevlex"
    with pytest.raises(ValueError, match=both):
        Ideal(PolyRing(("x", "y")), [a * a])


def test_derived_ideals_keep_the_guard(ring):
    guard = Guard(max_degree=30)
    I = Ideal.parse(ring, "(x^2, x*y)", guard)
    J = Ideal.parse(ring, "(y)")
    derived = [
        I.plus(J), I.times(J), colon(I, J), saturate(I, J)[0], intersect(I, J),
        unmixed_part(I), ext_annihilator(I, 2), eliminate(I, ("z0",)),
        Ideal.from_basis(ring, I.groebner(), guard),
    ]
    assert all(d.guard is guard for d in derived)
    assert intersect(J, I).guard is J.guard is DEFAULT_GUARD
