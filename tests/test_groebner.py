from fractions import Fraction

import pytest

from multischeme.groebner import (
    Guard,
    ResourceGuardExceeded,
    Vec,
    buchberger,
    groebner_basis,
    module_contains,
    normal_form,
    submodule_equal,
    syzygies,
)
from multischeme.parse import parse_ideal, parse_poly
from multischeme.ring import PolyRing


@pytest.fixture
def ring():
    return PolyRing(("x", "y"))


def _gb_strings(ring, text):
    return sorted(str(f) for f in groebner_basis(parse_ideal(ring, text)))


def test_monomial_ideal_is_its_own_basis(ring):
    assert _gb_strings(ring, "(x^2, x*y)") == ["x*y", "x^2"]


def test_linear_ideal_reduces_to_variables(ring):
    assert _gb_strings(ring, "(x + y, y)") == ["x", "y"]


def test_circle_and_parabola_intersection(ring):
    # V(y - x^2) meet V(x^2 + y^2 - 1); the basis eliminates x^2
    gb = _gb_strings(ring, "(y - x^2, x^2 + y^2 - 1)")
    assert gb == ["x^2 - y", "y^2 + y - 1"]


def test_basis_is_reduced_no_lead_divides_other_term(ring):
    gb = groebner_basis(parse_ideal(ring, "(x^3 - 2*x*y, x^2*y - 2*y^2 + x)"))
    leads = [f.lead_exp() for f in gb]
    for f in gb:
        for e in f.terms:
            dividing = [
                l for l in leads if all(a >= b for a, b in zip(e, l))
            ]
            if e == f.lead_exp():
                assert dividing == [f.lead_exp()]
            else:
                assert not dividing


def test_prime_characteristic_basis():
    ring = PolyRing(("x", "y"), char=2)
    gb = _gb_strings(ring, "(x^2 + y^2, x*y)")
    # over GF(2): x^2 + y^2 = (x + y)^2
    assert "x*y" in gb


def test_koszul_syzygy_of_two_variables(ring):
    x, y = ring.gens()
    syz = syzygies([Vec.from_poly(x), Vec.from_poly(y)], rank=1)
    assert len(syz) == 1
    assert str(syz[0].component(0)) == "y"
    assert str(syz[0].component(1)) == "-x"


def test_syzygies_of_degree_two_monomials(ring):
    x, y = ring.gens()
    gens = [x * x, x * y, y * y]
    syz = syzygies([Vec.from_poly(f) for f in gens], rank=1)
    # the two Koszul-style relations generate
    expected = [
        Vec(ring, {(0, (0, 1)): 1, (1, (1, 0)): -1}),
        Vec(ring, {(1, (0, 1)): 1, (2, (1, 0)): -1}),
    ]
    assert submodule_equal(syz, expected)
    # every syzygy annihilates the generators
    for s in syz:
        total = ring.zero()
        for i, g in enumerate(gens):
            total = total + s.component(i) * g
        assert total.is_zero()


def test_module_contains(ring):
    x, y = ring.gens()
    gb = buchberger([Vec.from_poly(x * x), Vec.from_poly(x * y)])
    assert module_contains(Vec.from_poly(x * x * y), gb)
    assert not module_contains(Vec.from_poly(y * y), gb)


def test_submodule_equality_is_generator_independent(ring):
    x, y = ring.gens()
    a = [Vec.from_poly(x), Vec.from_poly(y)]
    b = [Vec.from_poly(x + y), Vec.from_poly(y)]
    c = [Vec.from_poly(x + y)]
    assert submodule_equal(a, b)
    assert not submodule_equal(a, c)


def test_position_over_term_prefers_lower_component(ring):
    x, y = ring.gens()
    v = Vec(ring, {(0, (0, 1)): 1, (1, (5, 0)): 1})
    (comp, exp), _c = v.lead()
    assert comp == 0 and exp == (0, 1)


def test_coprime_module_leads_in_one_component_need_their_s_pair(ring):
    # the product criterion holds only for ideals: f = x*e0 + e1 and g = y*e0
    # have coprime leads, yet S(f, g) = y*e1 does not reduce to zero
    f = Vec(ring, {(0, (1, 0)): 1, (1, (0, 0)): 1})
    g = Vec(ring, {(0, (0, 1)): 1})
    gb = buchberger([f, g])
    assert [v.data for v in gb] == [f.data, g.data, {(1, (0, 1)): 1}]
    assert not module_contains(Vec(ring, {(1, (0, 1)): 1}), [f, g])


def test_degree_guard_interrupts(ring):
    guard = Guard(max_degree=2)
    gens = parse_ideal(ring, "(x^5 - y, x*y^4 - x - 1)")
    with pytest.raises(ResourceGuardExceeded):
        groebner_basis(gens, guard=guard)


def test_elimination_through_block_order():
    ring = PolyRing(("t", "x", "y"))
    t, x, y = ring.gens()
    # graph of (t, t^2): eliminating t leaves the parabola
    gb = groebner_basis([x - t, y - t * t])
    polys = [f for f in gb if "t" not in f.variables()]
    assert [str(f) for f in polys] == ["x^2 - y"]


def _naive_normal_form(v, basis):
    """Reference reducer: always reduce the greatest remaining term."""
    field = v.ring.field
    rem = Vec(v.ring, {})
    while v:
        (j, e), c = v.lead()
        for g in basis:
            (jg, eg), cg = g.lead()
            if jg == j and all(a <= b for a, b in zip(eg, e)):
                v = v.sub(g.mul_term(tuple(a - b for a, b in zip(e, eg)), c * field.inv(cg)))
                break
        else:
            term = Vec(v.ring, {(j, e): c})
            rem = rem.add(term)
            v = v.sub(term)
    return rem


@pytest.mark.parametrize("char", [0, 5])
def test_normal_form_when_a_cancelled_monomial_reappears(char):
    # Reducing -y^4 by y^2 - 1 cancels y^2; reducing x^2 by x^2 + y^2 then
    # brings y^2 back, which must be reduced again.
    ring = PolyRing(("x", "y"), char=char)
    v = parse_poly(ring, "x^2*y^2 + x^2 + y^2")
    basis = parse_ideal(ring, "(x^2 + y^2, y^2 - 1)")
    assert normal_form(v, basis) == ring.const(-1)
    vecs = [Vec.from_poly(g) for g in basis]
    assert normal_form(Vec.from_poly(v), vecs).data == _naive_normal_form(Vec.from_poly(v), vecs).data


def test_char0_basis_of_int_coefficients_is_exact(ring):
    # x^2 normalised by 1/3 used to give the float 0.333... in char 0
    def gens(c):
        return [Vec(ring, {(0, (2, 0)): c(3), (0, (0, 2)): c(1)}), Vec(ring, {(0, (1, 1)): c(1)})]

    from_int = buchberger(gens(int))
    from_fraction = buchberger(gens(Fraction))
    assert [v.data for v in from_int] == [v.data for v in from_fraction]
    coeffs = [c for v in from_int for c in v.data.values()]
    assert coeffs and all(type(c) in (int, Fraction) for c in coeffs)
    assert Fraction(1, 3) in coeffs


def test_vec_scale_keeps_integral_rational_coefficients_as_ints(ring):
    v = Vec(ring, {(0, (1, 0)): 3, (1, (0, 1)): 6, (1, (1, 0)): 1})
    monic = v.monic()
    assert monic.data == {(0, (1, 0)): 1, (1, (0, 1)): 2, (1, (1, 0)): Fraction(1, 3)}
    assert [type(c) for c in monic.data.values()] == [int, int, Fraction]
    scaled = v.scale(Fraction(2, 3))
    assert [type(c) for c in scaled.data.values()] == [int, int, Fraction]


def test_spair_count_is_pinned(monkeypatch):
    """The pair order and the product and chain criteria decide how many
    S-pairs are formed; these counts pin both on a rank-1 and a module input."""
    import multischeme.groebner as groebner

    calls = []
    spair = groebner._spair

    def counting(f, g):
        calls.append(1)
        return spair(f, g)

    monkeypatch.setattr(groebner, "_spair", counting)
    ring = PolyRing(("a", "b", "c", "d"))
    cyclic4 = parse_ideal(
        ring, "(a + b + c + d, a*b + b*c + c*d + d*a, a*b*c + b*c*d + c*d*a + d*a*b, a*b*c*d - 1)"
    )
    assert len(buchberger([Vec.from_poly(f) for f in cyclic4])) == 7
    assert len(calls) == 11
    del calls[:]
    quadrics = parse_ideal(ring, "(a^2, a*b, b^2, c*a, c*d, d^2)")
    assert len(syzygies([Vec.from_poly(f) for f in quadrics], rank=1)) == 11
    assert len(calls) == 23
