import pytest

from multischeme.ideals import (
    Ideal,
    colon,
    eliminate,
    ext_annihilator,
    fitting_ideal,
    intersect,
    is_irrelevant_primary,
    is_unmixed,
    quotient_resolution,
    radical_contains,
    same_zero_locus,
    saturate,
    unmixed_part,
)
from multischeme.modules import GradedModule
from multischeme.ring import PolyRing, poly_divide_exact


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
    assert a.power(2).equals(_ideal(ring, "(x^2, x*y, y^2)"))


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


def test_radical_membership(ring):
    I = _ideal(ring, "(x^2, y^3)")
    assert radical_contains(I, ring.var("x"))
    assert radical_contains(I, ring.var("x") + ring.var("y"))
    assert not radical_contains(I, ring.var("z0"))
    assert same_zero_locus(I, _ideal(ring, "(x, y)"))
    assert not same_zero_locus(I, _ideal(ring, "(x)"))


def test_irrelevant_primary_detection(ring):
    assert is_irrelevant_primary(_ideal(ring, "(x^2, y, z0^3)"))
    assert not is_irrelevant_primary(_ideal(ring, "(x, y)"))
    assert not is_irrelevant_primary(Ideal(ring, []))
    assert is_irrelevant_primary(_ideal(ring, "(1)"))
    assert is_irrelevant_primary(_ideal(ring, "(z0^2, x^2, y^2)"))
    assert not is_irrelevant_primary(_ideal(ring, "(x^2, x*y)"))
    with pytest.raises(ValueError, match="inhomogeneous"):
        is_irrelevant_primary(_ideal(ring, "(x^2, y, z0 - 1)"))


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
