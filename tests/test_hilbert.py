import random
from fractions import Fraction
from itertools import combinations
from math import factorial
from operator import le

import pytest

from multischeme.catalog import load_catalog
from multischeme.groebner import groebner_basis
from multischeme.hilbert import (
    HilbertPoly,
    HilbertSeries,
    degree3_catalog,
    dense_to_p_basis,
    euler_characteristic,
    ideal_hilbert_series,
    module_hilbert_series,
    monomial_numerator,
    reduced_degree3_membership,
    twisted_free_hilbert,
)
from multischeme.modules import GradedModule
from multischeme.parse import parse_ideal
from multischeme.ring import PolyRing
from multischeme.structures import hilb_to_json


def _series(ring, text):
    gb = groebner_basis(parse_ideal(ring, text))
    return ideal_hilbert_series(ring, [g.lead()[0][1] for g in gb])


def test_monomial_numerator_regular_sequence():
    # R/(x^2, y^3): numerator (1 - t^2)(1 - t^3)
    assert monomial_numerator([(2, 0), (0, 3)], 2) == {0: 1, 2: -1, 3: -1, 5: 1}


def test_monomial_numerator_with_overlap():
    # R/(x^2, x*y): numerator 1 - t^2 - t^2 + t^3
    assert monomial_numerator([(2, 0), (1, 1)], 2) == {0: 1, 2: -2, 3: 1}


def _taylor_numerator(gens):
    """Inclusion-exclusion over the Taylor complex, kept as a reference:
    sum over subsets S of gens of (-1)^|S| t^deg(lcm S)."""
    out = {}
    for r in range(len(gens) + 1):
        for subset in combinations(gens, r):
            d = sum(map(max, zip(*subset))) if subset else 0
            out[d] = out.get(d, 0) + (-1) ** r
    return {d: c for d, c in out.items() if c}


def test_monomial_numerator_matches_inclusion_exclusion():
    rng = random.Random(39)
    seen = dict.fromkeys(("duplicate", "divisible", "unit", "pure power"), 0)
    for case in range(600):
        nvars = rng.randint(1, 5)
        gens = [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(rng.randint(0, 8))]
        if gens and case % 4 == 0:  # a duplicate, or a multiple of a generator
            g = rng.choice(gens)
            gens.append(g if rng.random() < 0.5 else tuple(e + rng.randint(0, 2) for e in g))
        elif case % 4 == 1 and len(gens) < 8:  # pure powers
            gens += [tuple(rng.randint(1, 4) * (j == i) for j in range(nvars))
                     for i in rng.sample(range(nvars), rng.randint(1, nvars))][:8 - len(gens)]
        elif case % 20 == 2 and gens:
            gens[-1] = (0,) * nvars  # the unit ideal
        pairs = list(combinations(gens, 2))
        seen["duplicate"] += any(a == b for a, b in pairs)
        seen["divisible"] += any(a != b and (all(map(le, a, b)) or all(map(le, b, a)))
                                 for a, b in pairs)
        seen["unit"] += (0,) * nvars in gens
        seen["pure power"] += any(sum(1 for e in g if e) == 1 for g in gens)
        assert monomial_numerator(gens, nvars) == _taylor_numerator(gens), gens
    assert min(seen.values()) >= 25, seen


def test_series_values_count_monomials():
    ring = PolyRing(("x", "y"))
    s = _series(ring, "(x^2, x*y)")
    # basis: 1; x, y; y^2; y^3; ... one monomial per degree >= 2
    assert [s.value(t) for t in range(5)] == [1, 2, 1, 1, 1]


def test_dimension_and_degree():
    ring = PolyRing(("z0", "x", "y"))
    dim, deg = _series(ring, "(x^2 + z0*y, y^2)").dimension_degree()
    assert (dim, deg) == (0, 4)
    assert _series(ring, "(1)").dimension_degree() == (-1, 0)


def test_point_in_projective_four_space():
    ring = PolyRing(("z0", "z1", "z2", "x", "y"))
    hp = _series(ring, "(x, y, z1, z2)").polynomial()
    assert hp.as_dict() == {0: 1}


def test_double_point_polynomial():
    ring = PolyRing(("z0", "z1", "x", "y"))
    # coordinate double structure on a line: 2*P_1 at top
    hp = _series(ring, "(x^2, y)").polynomial()
    assert hp == HilbertPoly.make({1: 2, 0: -1})


def test_twisted_free_hilbert_oracles():
    assert twisted_free_hilbert(2, 0) == HilbertPoly.make({2: 1})
    assert twisted_free_hilbert(2, -1) == HilbertPoly.make({2: 1, 1: -1})
    assert twisted_free_hilbert(2, -2) == HilbertPoly.make({2: 1, 1: -2, 0: 1})
    assert twisted_free_hilbert(1, -3, rank=2) == HilbertPoly.make({1: 2, 0: -6})
    assert twisted_free_hilbert(2, 1) == HilbertPoly.make({2: 1, 1: 1, 0: 1})
    assert twisted_free_hilbert(3, 2, rank=2) == HilbertPoly.make({3: 2, 2: 4, 1: 6, 0: 8})


def test_dense_to_p_basis_round_trip():
    # t^2 + t + 1 = 2*P_2 - 2*P_1 + P_0 with P_2 = (t+1)(t+2)/2, P_1 = t + 1
    hp = dense_to_p_basis([1, 1, 1])
    assert hp == HilbertPoly.make({2: 2, 1: -2, 0: 1})
    assert [hp(t) for t in range(4)] == [1, 3, 7, 13]
    with pytest.raises(ValueError):
        dense_to_p_basis([0, Fraction(1, 3)])


def test_dense_to_p_basis_integer_valued_fractions_and_empty():
    # (t^2 + t)/2 takes integer values: P_2 - P_1
    hp = dense_to_p_basis([0, Fraction(1, 2), Fraction(1, 2)])
    assert hp == HilbertPoly.make({2: 1, 1: -1})
    assert dense_to_p_basis([]) == HilbertPoly.zero()
    assert dense_to_p_basis([0, 0]) == HilbertPoly.zero()


def test_hilbert_poly_arithmetic_and_str():
    a = HilbertPoly.make({2: 1, 0: -1})
    b = HilbertPoly.make({2: 1, 1: 4})
    assert (a + b).as_dict() == {2: 2, 1: 4, 0: -1}
    assert (a - b).as_dict() == {1: -4, 0: -1}
    assert a.scale(3).as_dict() == {2: 3, 0: -3}
    assert a.lead_degree_term() == (2, 1)
    assert HilbertPoly.zero().lead_degree_term() == (-1, 0)
    assert str(a) == "P_2 - P_0"
    assert str(HilbertPoly.make({3: -2, 1: 1})) == "-2*P_3 + P_1"
    assert str(HilbertPoly.zero()) == "0"


def test_euler_characteristic_of_resolution():
    chi = euler_characteristic(4, [[(-1, 15), (0, 4)], [(-2, 35)], [(-3, 20)], [(-5, 2)]])
    assert chi == HilbertPoly.make({4: 2, 3: 5, 2: 5, 0: -10})


def test_euler_characteristic_with_positive_twists():
    # Euler sequence 0 -> O -> O(1)^3 -> T -> 0 on P^2
    chi = euler_characteristic(2, [[(1, 3)], [(0, 1)]])
    assert chi == HilbertPoly.make({2: 2, 1: 3, 0: 3})
    # O(2) - O(1) on P^1 is the constant 1
    assert euler_characteristic(1, [[(2, 1)], [(1, 1)]]) == HilbertPoly.make({0: 1})


def test_module_series_matches_ideal_series():
    ring = PolyRing(("x", "y"))
    x, y = map(ring.var, ring.names)
    mod = GradedModule(ring, (0,), [[x * x, x * y]])
    s1 = module_hilbert_series(mod)
    s2 = _series(ring, "(x^2, x*y)")
    assert s1.numerator == s2.numerator


def test_series_sub_and_add():
    ring = PolyRing(("x", "y"))
    a = _series(ring, "( )")
    b = _series(ring, "(x)")
    c = a - b
    assert isinstance(c, HilbertSeries)
    assert [c.value(t) for t in range(4)] == [0, 1, 2, 3]
    assert a - c == b
    # numerators over poles of different orders have no difference
    with pytest.raises(ValueError, match="poles of order 2 and 3"):
        a - HilbertSeries.make({0: 1}, 3)


def test_laurent_series_values_and_polynomial():
    # t^-2/(1-t)^2 is the series of S(2) over k[z0, z1]: t + 3 from t = -2 on
    s = HilbertSeries.make({-2: 1}, 2)
    assert [s.value(t) for t in range(-3, 2)] == [0, 1, 2, 3, 4]
    assert s.polynomial() == twisted_free_hilbert(1, 2) == HilbertPoly.make({1: 1, 0: 2})


def test_degree3_catalog_membership():
    ok, name = reduced_degree3_membership(HilbertPoly.make({4: 3, 3: -3, 2: 1}), 4)
    assert ok and name == "cubic-hypersurface-in-P5"
    ok, name = reduced_degree3_membership(HilbertPoly.make({4: 3, 3: -1, 2: -2, 1: 1}), 4)
    assert ok and name == "quadric-union-3P_4-P_3-2P_2+P_1"
    ok, name = reduced_degree3_membership(HilbertPoly.make({4: 3, 3: -4}), 4)
    assert not ok and name is None
    # second-coefficient window passes even off catalog
    ok, name = reduced_degree3_membership(HilbertPoly.make({4: 3, 3: -3, 1: 7}), 4)
    assert ok and name == "three-linear-spaces-a=3"
    with pytest.raises(ValueError):
        reduced_degree3_membership(HilbertPoly.make({4: 2}), 4)


def test_degree3_catalog_entries_have_lead_three():
    for n in (1, 2, 3, 4):
        cat = degree3_catalog(n)
        assert cat
        for hp in cat.values():
            assert hp.lead_degree_term() == (n, 3)


def test_hilbert_poly_json_shape():
    hp = HilbertPoly.make({2: 2, 0: -1})
    assert hilb_to_json(hp) == {"basis": "P", "coeffs": {"2": 2, "0": -1}}


def _dense_fraction_polynomial(series):
    """The former series -> polynomial route, kept as a reference: expand
    each t^i/(1-t)^n into dense Fraction coefficients of binom(t - i + n - 1,
    n - 1), then peel P-basis terms off the top."""

    def shifted_binom(m, shift):
        coeffs = [Fraction(1)]
        for j in range(1, m + 1):
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c * (j + shift)
                nxt[i + 1] += c
            coeffs = nxt
        return [c / factorial(m) for c in coeffs]

    n = series.nvars
    dense = [Fraction(0)] * n
    for i, c in series.numerator:
        for k, v in enumerate(shifted_binom(n - 1, -i)):
            dense[k] += c * v
    out = {}
    while dense and dense[-1] == 0:
        dense.pop()
    while dense:
        m = len(dense) - 1
        lead = dense[-1] * factorial(m)
        assert lead.denominator == 1
        out[m] = int(lead)
        dense = [a - lead * b for a, b in zip(dense, shifted_binom(m, 0))]
        while dense and dense[-1] == 0:
            dense.pop()
    return HilbertPoly.make(out)


def _dict_reduced(series):
    """The former reduced(), kept as a reference: divide the numerator dict by
    (1 - t) one degree at a time while it vanishes at t = 1."""

    def divide_by_one_minus_t(numer):
        out = {}
        acc = 0
        for d in range(min(numer, default=0), max(numer, default=-1) + 1):
            acc += numer.get(d, 0)
            if acc:
                out[d] = acc
        return out

    numer, pole = dict(series.numerator), series.nvars
    while numer and sum(numer.values()) == 0:
        numer = divide_by_one_minus_t(numer)
        pole -= 1
    return numer, pole


def test_polynomial_matches_the_dense_fraction_reference():
    """polynomial() against the dense Fraction route and reduced() against the
    dict division, on every catalog and layer series and on edge cases."""
    series = []
    for entry in load_catalog():
        for char in entry.chars:
            st = entry.structure(char=char)
            filt = st.filtration()
            series += [i.hilbert_series() for i in [st.ideal] + list(filt.ideals)]
            series += [module_hilbert_series(layer) for layer in filt.layers]
    assert len(series) == 244  # 156 ideal series and 88 layer series
    # Laurent numerators: O(2) on P^1 and O(1)^3 - O on P^2 (twisted_free_hilbert,
    # euler_characteristic), a finite-length R/(x^2, y^3) of pole 0, the zero series
    series += [HilbertSeries.make({-2: 1}, 2), HilbertSeries.make({-1: 3, 0: -1}, 3),
               HilbertSeries.make({-3: 2, -1: 1, 0: -1}, 4),
               HilbertSeries.make(monomial_numerator([(2, 0), (0, 3)], 2), 2),
               HilbertSeries.make({}, 3), HilbertSeries.make({}, 0)]
    rng = random.Random(8)
    for _ in range(200):
        nvars = rng.randint(1, 5)
        lo = rng.randint(-4, 2)
        numer = {d: rng.randint(-5, 5) for d in range(lo, lo + rng.randint(1, 6))}
        for _ in range(rng.randint(0, 3)):  # times (1 - t)
            numer = {d: numer.get(d, 0) - numer.get(d - 1, 0)
                     for d in range(min(numer), max(numer) + 2)}
        series.append(HilbertSeries.make(numer, nvars))
    for s in series:
        assert s.polynomial() == _dense_fraction_polynomial(s), s
        assert s.reduced() == _dict_reduced(s), s
    assert HilbertSeries.make(monomial_numerator([(2, 0), (0, 3)], 2), 2).reduced() == (
        {0: 1, 1: 2, 2: 2, 3: 1}, 0)
    assert HilbertSeries.make({}, 3).reduced() == ({}, 3)
    # P_1(t + 2) = P_1 + 2 P_0, and 3 P_2(t + 1) - P_2 = 2 P_2 + 3 P_1 + 3 P_0
    assert twisted_free_hilbert(1, 2) == series[244].polynomial() == HilbertPoly.make({1: 1, 0: 2})
    assert euler_characteristic(2, [[(1, 3)], [(0, 1)]]) == series[245].polynomial() == (
        HilbertPoly.make({2: 2, 1: 3, 0: 3}))
