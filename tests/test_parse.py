import re
from itertools import product

import pytest

from multischeme.groebner import ResourceGuardExceeded
from multischeme.parse import (
    ParseError,
    format_ideal,
    format_ring,
    parse_ideal,
    parse_poly,
    parse_ring,
)
from multischeme.ring import PolyRing, Vec


def test_ring_declaration_round_trip():
    ring = parse_ring("ring z0,z1,z2,x,y / char 0 / grevlex")
    assert ring.names == ("z0", "z1", "z2", "x", "y")
    assert ring.char == 0
    assert format_ring(ring) == "ring z0,z1,z2,x,y / char 0 / grevlex"


def test_ring_declaration_prime_field_and_lex():
    ring = parse_ring("ring x,y / char 7 / lex")
    assert ring.char == 7
    assert ring.order.kind == "lex"


def test_ring_declaration_errors():
    with pytest.raises(ParseError):
        parse_ring("nope x,y")
    with pytest.raises(ParseError):
        parse_ring("ring x,y / char 0 / mystery")
    with pytest.raises(ParseError):
        parse_ring("ring ")
    # a name the polynomial grammar cannot read back as one variable
    for decl, name in [("ring z0 x y", "z0 x y"), ("ring z0,2x,y", "2x"), ("ring z,x-1,y", "x-1"),
                       ("ring z,x y / char 3", "x y"), ("ring z,x^2", "x^2")]:
        with pytest.raises(ParseError, match=re.escape("variable name %r is not one" % name)):
            parse_ring(decl)


def test_polynomial_grammar():
    ring = PolyRing(("z0", "x", "y"))
    f = parse_poly(ring, "x^2 + z0*y")
    x, y, z0 = ring.var("x"), ring.var("y"), ring.var("z0")
    assert f == x * x + z0 * y
    assert parse_poly(ring, "2x y") == x * y.scale(2)
    assert parse_poly(ring, "x - x").is_zero()


def test_fraction_coefficients():
    ring = PolyRing(("x",))
    from fractions import Fraction

    assert parse_poly(ring, "3/4*x").data == {(0, (1,)): Fraction(3, 4)}


@pytest.mark.parametrize("text, exponent", [("x^40000", 40000), ("x^16384*x^16384", 32768),
                                            ("(y + x^2)^20000", 40000), ("2^40000", 40000)])
def test_an_exponent_past_the_limit_is_refused_when_parsed(text, exponent):
    """Every exponent stays below 2^15, the packed key's field: a power or a
    product past it trips the guard with the limit and the exponent it
    would have made, and never carries into the next field."""
    ring = PolyRing(("x", "y"))
    message = "Groebner kernel: exponent %d exceeds the limit 32767" % exponent
    with pytest.raises(ResourceGuardExceeded, match=message):
        parse_poly(ring, text)
    assert parse_poly(ring, "x^32767*y^32767").data == {(0, (32767, 32767)): 1}
    assert parse_poly(ring, "x^16383*x^16384").data == {(0, (32767, 0)): 1}


@pytest.mark.parametrize("within, past, what", [
    ("(x+y+z+w+u)^12", "(x+y+z+w+u)^13", "(5 terms, 1-bit)^13"),
    ("(x+y+z)^20*(x+y+z)^20", "(x+y+z)^20*(x+y+z)^21", "(231 terms, 27-bit)*(253 terms, 29-bit)"),
    ("(2^30000*x)^2", "(2^30000*x)^3", "(1 terms, 30001-bit)^3"),
    ("2^30000*2^30000", "2^30000*2^30000*2^30000", "(1 terms, 60001-bit)*(1 terms, 30001-bit)"),
    # the budget is the whole input's: each product and power here is within it
    ("(x+y+z)^20*(x+y+z)^20", "(x+y+z)^20*(x+y+z)^20 + (x+y+z)^20", "(3 terms, 1-bit)^20"),
])
def test_a_product_or_power_past_the_size_budget_is_refused(within, past, what):
    """One parse spends at most 2^16 term products, a term weighing
    1 + b // 256 for a b-bit coefficient: a product its factors' weights
    multiplied, a power the square of the weight bound of its largest
    factor, each counted before the product or power is built."""
    ring = PolyRing(("x", "y", "z", "w", "u"))
    assert parse_poly(ring, within)
    with pytest.raises(ResourceGuardExceeded, match=re.escape(
            "parser: %s takes the input past the size budget 65536" % what)):
        parse_poly(ring, past)


def test_a_power_of_a_unit_monomial_weighs_one_term():
    # x^n is one term with coefficient 1, so each power spends one term
    # product of the budget, not a coefficient grown by n/2 bits
    ring = PolyRing(("x", "y"))
    f = parse_poly(ring, " + ".join("x^%d" % n for n in range(1, 4001)))
    assert len(f.terms) == 4000


@pytest.mark.parametrize("char", [0, 5])
def test_a_long_sum_is_added_into_one_term_dict(char, monkeypatch):
    # adding each summand to the Vec built so far copies its terms, which
    # makes a long sum quadratic: 8000 summands, each a distinct monomial
    # of degree below 60 (so within the size budget), signs alternating, and
    # mod 5 a fifth of the coefficients cancelling
    ring = PolyRing(("x", "y", "z"), char=char)
    exps = list(product(range(20), repeat=3))
    text = " ".join("%s %d*x^%d*y^%d*z^%d" % ("-+"[i % 2], i, *e) for i, e in enumerate(exps, 1))
    added = []
    for name in ("__add__", "__sub__"):
        monkeypatch.setattr(Vec, name, lambda *args, _name=name: added.append(_name))
    f = parse_poly(ring, text)
    monkeypatch.undo()
    assert added == []
    assert f == ring.poly({e: i if i % 2 else -i for i, e in enumerate(exps, 1)})


def test_ideal_requires_parentheses():
    ring = PolyRing(("x", "y"))
    assert parse_ideal(ring, "( )") == []
    polys = parse_ideal(ring, "(x^2, x*y + y^2)")
    assert len(polys) == 2
    with pytest.raises(ParseError):
        parse_ideal(ring, "x^2, y")
    with pytest.raises(ParseError):
        parse_ideal(ring, "(x^2")


def test_unknown_variable_is_rejected():
    ring = PolyRing(("x", "y"))
    with pytest.raises(ParseError):
        parse_poly(ring, "x + w")


def test_format_parse_round_trip():
    ring = PolyRing(("z0", "x", "y"))
    texts = ["x^2 + z0*y", "x*y - y^2", "3*z0^2 - 1/2*x*y", "0"]
    for text in texts:
        f = parse_poly(ring, text)
        assert parse_poly(ring, str(f)) == f


def test_format_ideal_is_parenthesized_list():
    ring = PolyRing(("x", "y"))
    polys = parse_ideal(ring, "(x^2, y)")
    assert format_ideal(polys) == "(x^2, y)"
