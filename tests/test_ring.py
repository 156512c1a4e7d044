import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multischeme.hilbert import HilbertPoly, HilbertSeries
from multischeme.ring import (
    GREVLEX,
    LEX,
    PolyRing,
    Rationals,
    TermOrder,
    Vec,
    add_terms,
    poly_divide_exact,
)


@pytest.fixture
def ring():
    return PolyRing(("x", "y", "z"))


def test_rational_arithmetic_is_exact(ring):
    x, y = ring.var("x"), ring.var("y")
    f = x.scale(Fraction(1, 3)) + y.scale(Fraction(1, 6))
    g = f + f + f + f + f + f
    assert g == x.scale(2) + y


def test_rationals_hand_out_ints_for_integral_values(ring):
    qq = Rationals()
    integral = [qq.coerce(3), qq.coerce(Fraction(6, 2))]
    integral += [qq.inv(1), qq.inv(Fraction(1, 2))]
    assert all(type(v) is int for v in integral)
    assert qq.inv(2) == Fraction(1, 2) and type(qq.inv(2)) is Fraction
    assert qq.inv(-1) == -1 and type(qq.inv(Fraction(-1))) is int
    assert qq.coerce(Fraction(6, 4)) == Fraction(3, 2)
    x, y = ring.var("x"), ring.var("y")
    f = (x.scale(3) + y.scale(Fraction(1, 2))) * (x - y.scale(2))
    coeffs = list(f.terms.values()) + list(f.scale(qq.inv(f.lead()[1])).terms.values())
    coeffs += [qq.inv(c) for c in coeffs]
    assert all(type(c) in (int, Fraction) for c in coeffs)


def test_prime_field_coefficients_stay_reduced():
    ring = PolyRing(("x", "y"), char=3)
    x = ring.var("x")
    assert (x + x + x).is_zero()
    assert x.scale(2) + x == ring.zero()
    assert (x - x.scale(4)).is_zero()
    assert all(0 <= c < 3 for c in (x.scale(2) * x.scale(2)).terms.values())


def test_prime_characteristic_check_matches_trial_division():
    def accepted(p):
        try:
            PolyRing(("x",), char=p)
        except ValueError:
            return False
        return True

    for p in range(2, 3000):
        assert accepted(p) == all(p % q for q in range(2, int(p**0.5) + 1)), p
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not accepted(n)
    assert accepted(2**61 - 1)
    assert not accepted((2**19 - 1) * (2**61 - 1))
    assert not accepted(2**89 - 1)  # prime, but above the certified bound


def test_negation_in_prime_characteristic_normalizes():
    ring = PolyRing(("x",), char=5)
    x = ring.var("x")
    assert (-x).data == {(0, (1,)): 4}


def test_grevlex_prefers_total_degree_then_reverse_lex(ring):
    x, y, z = map(ring.var, ring.names)
    assert (x * x * y + x * y * y).lead()[0] == (0, (2, 1, 0))
    assert (z ** 3 + x * y).lead()[0] == (0, (0, 0, 3))


def test_lex_order_ignores_total_degree():
    ring = PolyRing(("x", "y"), order=LEX)
    x, y = map(ring.var, ring.names)
    assert (x + y ** 5).lead()[0] == (0, (1, 0))


def test_block_order_eliminates_front_variables():
    base = PolyRing(("x", "y"))
    ext = base.extended(("t",))
    t, x = ext.var("t"), ext.var("x")
    assert (t + x ** 4).lead()[0] == (0, (1, 0, 0))


def test_block_order_must_fit_the_ring():
    with pytest.raises(ValueError, match="block of 3 variables in a ring of 2"):
        PolyRing(("x", "y"), order=TermOrder("block", front=3))
    # a subring keeps as much of the front block as it has variables
    ring = PolyRing(("s", "t", "x", "y"), order=TermOrder("block", front=3))
    assert ring.subring(("x", "y")).order == TermOrder("block", front=2)
    assert ring.subring(("s", "x", "y")).order == ring.order


def test_power_matches_repeated_multiplication(ring):
    x, y, _ = map(ring.var, ring.names)
    f = x + y.scale(2)
    assert f ** 3 == f * f * f
    assert f ** 0 == ring.one()


def test_a_negative_power_is_refused(ring):
    x, y, _ = map(ring.var, ring.names)
    for f in (x, x + y, ring.one()):
        with pytest.raises(ValueError, match="negative exponent -1"):
            f ** -1
    assert (x + y) ** 1 == x + y and ring.zero() ** 0 == ring.one()


def test_substitute_evaluates_variable_images(ring):
    x, y, z = map(ring.var, ring.names)
    f = x * x + y * z
    image = f.substitute({"x": y, "y": z})
    assert image == y * y + z * z


@pytest.mark.parametrize("char", [0, 5])
def test_substitute_builds_each_power_once(char, monkeypatch):
    src = PolyRing(("a", "b", "c"), char=char)
    ring = PolyRing(("x", "y", "z"), char=char)
    x, y, z = map(ring.var, ring.names)
    rng = random.Random(char)
    f = src.poly({
        tuple(rng.randint(0, 3) for _ in range(3)): Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for _ in range(12)
    })
    images = {"a": x + y.scale(Fraction(2, 3)), "b": x * z - y, "c": z.scale(3) + x}
    imgs = [images[n] for n in src.names]
    # the term-by-term result: each term raises each image to its exponent
    expected = ring.zero()
    for (_, exps), c in f.data.items():
        t = ring.const(c)
        for img, a in zip(imgs, exps):
            t = t * img ** a
        expected = expected + t
    calls = []
    power = Vec.__pow__
    monkeypatch.setattr(Vec, "__pow__", lambda v, n: calls.append(n) or power(v, n))
    assert f.substitute(images) == expected
    # one power per (variable, exponent >= 2) pair that occurs in f; the
    # first power is the image itself
    pairs = {(i, a) for _, exps in f.data for i, a in enumerate(exps) if a > 1}
    assert len(calls) == len(pairs) < sum(1 for _, exps in f.data for a in exps if a > 1)


def test_transfer_between_rings_matches_names():
    big = PolyRing(("z0", "x", "y"))
    small = PolyRing(("z0",))
    f = big.var("z0") ** 2
    assert big.transfer(f, small) == small.var("z0") ** 2
    with pytest.raises(ValueError):
        big.transfer(big.var("x"), small)


def test_exponents_count_order_and_named_variables():
    ring = PolyRing(("z0", "x", "z1", "y", "z2"))
    assert ring.exponents(0) == [(0, 0, 0, 0, 0)]
    assert [len(ring.exponents(d)) for d in range(4)] == [1, 5, 15, 35]
    assert ring.exponents(-1) == ring.exponents(-1, ("x",)) == []
    # the first variable's highest power first, in combinations_with_replacement's order
    sub = PolyRing(("z0", "z1", "z2"))
    assert sub.exponents(2) == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    # named variables in ring coordinates, run through in the order they are named
    assert ring.exponents(2, ("y", "x")) == [(0, 0, 0, 2, 0), (0, 1, 0, 1, 0), (0, 2, 0, 0, 0)]
    assert ring.exponents(0, ("x", "y")) == [(0,) * 5]
    for d in range(4):
        for names in (None, ("y", "x"), ("z2", "x", "z0")):
            assert ring.monomials(d, names) == [ring.poly({e: 1}) for e in ring.exponents(d, names)]


@pytest.mark.parametrize("char", [0, 5])
def test_split_by_front_monomials_round_trips(char):
    block = PolyRing(("x", "y", "z0", "z1"), char, TermOrder("block", front=2))
    ring = PolyRing(("z0", "z1", "x", "y"), char)
    rng = random.Random(char)
    for _ in range(30):
        exps = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(rng.randrange(8))]
        f = block.poly({e: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for e in exps})
        parts = block.split(f, 2, ring)
        # the sum of coefficient * monomial gives f back
        back = sum(
            (block.poly({head + (0, 0): 1}) * ring.transfer(c, block) for head, c in parts.items()),
            block.zero(),
        )
        assert back == f
        assert all(c and c.ring is ring and c.variables() <= {"z0", "z1"} for c in parts.values())
        # under the block order the first monomial is the lead's
        assert not f or next(iter(parts)) == f.lead()[0][1][:2]


def test_is_homogeneous_by_total_degree(ring):
    x, y, _ = map(ring.var, ring.names)
    f = x + x * y + y
    assert not f.is_homogeneous()
    assert (x + y).is_homogeneous()
    assert (x * y).is_homogeneous()


_coeffs = st.integers(min_value=-6, max_value=6)
_exps = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
_polys = st.dictionaries(_exps, _coeffs, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_polys, _polys, _polys)
def test_distributivity_property(a, b, c):
    ring = PolyRing(("x", "y"))
    f, g, h = (ring.poly(t) for t in (a, b, c))
    assert f * (g + h) == f * g + f * h


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_polys, _polys, st.sampled_from([2, 3, 5, 7]))
def test_modular_arithmetic_commutes_with_reduction(a, b, p):
    ring0 = PolyRing(("x", "y"))
    ringp = PolyRing(("x", "y"), char=p)
    f0, g0 = ring0.poly(a), ring0.poly(b)
    fp, gp = ringp.poly(a), ringp.poly(b)
    product = f0 * g0
    reduced = ringp.poly({e: c.numerator % p for (_, e), c in product.data.items()})
    assert fp * gp == reduced


def _ascending_key(order, exps):
    """Reference encoding of the order: larger monomials get larger keys."""
    if order.kind == "grevlex":
        return (sum(exps), tuple(-e for e in reversed(exps)))
    if order.kind == "lex":
        return tuple(exps)
    f, r = exps[: order.front], exps[order.front:]
    return (
        (sum(f), tuple(-e for e in reversed(f))),
        (sum(r), tuple(-e for e in reversed(r))),
    )


@pytest.mark.parametrize(
    "order", [GREVLEX, LEX, TermOrder("block", front=1), TermOrder("block", front=2)]
)
def test_lead_key_ascending_is_key_descending(order):
    exps = [e for e in itertools.product(range(4), repeat=4) if sum(e) <= 3]
    reference = sorted(exps, key=lambda e: _ascending_key(order, e), reverse=True)
    assert sorted(exps, key=order.lead_key) == reference


def _naive_sum(p, *scaled):
    """The reference for the term kernels: sum c * terms over the (c, terms)
    pairs in one plain dict, then reduce mod p and drop the zeros."""
    out = {}
    for c, terms in scaled:
        for k, v in terms.items():
            out[k] = out.get(k, 0) + c * v
    out = {k: v % p if p else v for k, v in out.items()}
    return {k: v for k, v in out.items() if v}


def _exp_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _slot_add(k, t):
    """The (component, exps) key of a product of two terms."""
    return (k[0] + t[0], _exp_add(k[1], t[1]))


def _naive_product(p, a, b, shift):
    """The reference for a product of term dicts: every pair of terms, keys
    combined by ``shift``, summed by ``_naive_sum``."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = shift(ka, kb)
            out[k] = out.get(k, 0) + ca * cb
    return _naive_sum(p, (1, out))


def _assert_clean(terms, p):
    """No zero stored; reduced in char p, an integral value an int in char 0."""
    assert all(terms.values())
    if p:
        assert all(type(v) is int and 0 <= v < p for v in terms.values())
    else:
        assert all(type(v) is int or v.denominator != 1 for v in terms.values())


@pytest.mark.parametrize("char", [0, 2, 5])
def test_term_kernels_match_a_naive_dict_reference(char):
    ring = PolyRing(("x", "y"), char=char)
    coerce = ring.field.coerce
    rng = random.Random(char)
    halves = [Fraction(1, 2), Fraction(-3, 2)] if char != 2 else []

    def terms(keys):
        # few keys, so sums collide and cancel; halves add up to integers
        return {k: rng.choice([1, -1, 2, 3, 4] + halves) for k in rng.sample(keys, rng.randint(0, 4))}

    monos = [(a, b) for a in range(3) for b in range(2)]
    slots = [(j, e) for j in range(2) for e in monos[:3]]
    for _ in range(60):
        f, g = ring.poly(terms(monos)), ring.poly(terms(monos))
        ft, gt = f.data, g.data  # (0, exps) keys
        cases = [(f + g, _naive_sum(char, (1, ft), (1, gt))),
                 (f - g, _naive_sum(char, (1, ft), (-1, gt))),
                 (f - f, {}),
                 (-f, _naive_sum(char, (-1, ft)))]
        u = Vec(ring, {k: coerce(c) for k, c in terms(slots).items() if coerce(c)})
        v = Vec(ring, {k: coerce(c) for k, c in terms(slots).items() if coerce(c)})
        cases += [((u + v).data, _naive_sum(char, (1, u.data), (1, v.data))),
                  ((u - v).data, _naive_sum(char, (1, u.data), (-1, v.data)))]
        cases.append((f * g, _naive_product(char, ft, gt, _slot_add)))
        for c in [0, 1, -1, 2, 3] + halves:
            cases += [(f.scale(c), _naive_sum(char, (coerce(c), ft))),
                      (u.scale(c).data, _naive_sum(char, (coerce(c), u.data)))]
        for got, expected in cases:
            got = getattr(got, "data", got)
            assert got == expected
            _assert_clean(got, char)
    if not char:
        x = ring.var("x")
        half = x.scale(Fraction(1, 2))
        two = ring.const(2)
        for whole in (half + half, half.scale(2), x - half - half + x, half * two):
            assert whole.data == {(0, (1, 0)): 1} and type(whole.data[(0, (1, 0))]) is int
        whole = half.shifted(1) * ring.poly({(0, 1): 2})
        assert whole.data == {(1, (1, 1)): 1} and type(whole.data[(1, (1, 1))]) is int


def test_hilbert_poly_sum_and_difference_match_a_naive_dict_reference():
    rng = random.Random(7)
    for _ in range(60):
        a = {i: rng.randint(-2, 2) for i in rng.sample(range(4), rng.randint(0, 3))}
        b = {i: rng.randint(-2, 2) for i in rng.sample(range(4), rng.randint(0, 3))}
        pa, pb = HilbertPoly.make(a), HilbertPoly.make(b)
        for got, sign in ((pa + pb, 1), (pa - pb, -1)):
            assert got.as_dict() == _naive_sum(0, (1, a), (sign, b))
            assert all(c for _, c in got.coeffs)
    # a zero coefficient is accepted whether or not its key is stored
    assert add_terms({1: 2}, [(0, 0), (1, 0), (1, -2)], 0) == {}
    # t/(1-t): the first P-coefficient found is 0 and the numerator has no t^0
    assert HilbertSeries.make({1: 1, 2: -1}, 2).polynomial() == HilbertPoly.make({0: 1})


def _ref_clean(p, terms):
    """Reduced mod p, zeros dropped, an integral char-0 value an int."""
    out = {}
    for e, c in terms.items():
        c = c % p if p else (c.numerator if type(c) is Fraction and c.denominator == 1 else c)
        if c:
            out[e] = c
    return out


def _ref_mul(p, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = _exp_add(ea, eb)
            out[e] = out.get(e, 0) + ca * cb
    return _ref_clean(p, out)


def _ref_divide(ring, f, g):
    """The tuple-keyed exact division the packed ``poly_divide_exact``
    replaced: leads by ``lead_key``, divisibility exponent by exponent;
    None when the division is not exact."""
    key, field, p = ring.order.lead_key, ring.field, ring.char
    eg = min(g, key=key)
    q, r = {}, dict(f)
    while r:
        er = min(r, key=key)
        if any(a < b for a, b in zip(er, eg)):
            return None
        shift = tuple(a - b for a, b in zip(er, eg))
        q[shift] = field.coerce(r[er] * field.inv(g[eg]))
        r = _naive_sum(p, (1, r), (-1, _ref_mul(p, {shift: q[shift]}, g)))
    return q


def _ref_format(ring, terms):
    """The tuple-keyed printer: terms in ``lead_key`` order."""
    pieces = []
    for e, c in sorted(terms.items(), key=lambda t: ring.order.lead_key(t[0])):
        mono = "*".join(n if a == 1 else "%s^%d" % (n, a) for n, a in zip(ring.names, e) if a)
        cs = str(c)
        pieces.append(cs if not mono else mono if cs == "1" else "-" + mono if cs == "-1"
                      else cs + "*" + mono)
    return " + ".join(pieces).replace(" + -", " - ") or "0"


def _poly_data(f):
    """A polynomial's terms keyed by exponent tuples: its ``data`` with every
    component 0, that component dropped."""
    assert all(j == 0 for j, _ in f.data)
    return {e: c for (_, e), c in f.data.items()}


@pytest.mark.parametrize("char", [0, 5])
@pytest.mark.parametrize("order", [GREVLEX, LEX, TermOrder("block", 1)])
def test_packed_polynomial_matches_the_tuple_keyed_reference(char, order):
    """Polynomial arithmetic on packed keys agrees term for term with the
    same arithmetic on exponent-tuple dicts: sums, products, powers, scaling,
    leads, degrees, homogeneity, substitution, transfer between rings, exact
    division, the printed term order, and products of a polynomial and a
    vector.  Polynomials and vectors are equal, and hash equal, by value."""
    ring = PolyRing(("x", "y", "z"), char=char, order=order)
    other = PolyRing(("w", "z", "x", "y"), char=char, order=LEX if order == GREVLEX else GREVLEX)
    field, key = ring.field, order.lead_key
    rng = random.Random("%d %s polynomial" % (char, order.kind))
    coeffs = [1, -1, 2, 3, -4] + ([Fraction(1, 2), Fraction(-3, 2)] if not char else [])

    def tuples(homogeneous=False):
        d = rng.randint(0, 3)
        out = {}
        for _ in range(rng.randint(0, 4)):
            e = [rng.randint(0, 3) for _ in range(3)]
            if homogeneous:
                e = [d, 0, 0] if sum(e) == 0 else [a * d // sum(e) for a in e]
                e[0] += d - sum(e)
            out[tuple(e)] = rng.choice(coeffs)
        return _ref_clean(char, {e: field.coerce(c) for e, c in out.items()})

    divided = 0
    for n in range(40):
        a, b, g = tuples(), tuples(n % 2 == 0), tuples()
        f, h = ring.poly(a), ring.poly(b)
        assert _poly_data(f + h) == _naive_sum(char, (1, a), (1, b))
        assert _poly_data(f - h) == _naive_sum(char, (1, a), (-1, b))
        assert _poly_data(f * h) == _ref_mul(char, a, b)
        power = {(0, 0, 0): 1}
        for k in range(4):
            assert _poly_data(f ** k) == power
            power = _ref_mul(char, power, a)
        c = rng.choice(coeffs)
        assert _poly_data(f.scale(c)) == _naive_sum(char, (field.coerce(c), a))
        if a:
            lead = min(a, key=key)
            assert f.lead() == ((0, lead), a[lead])
        assert f.degree() == max(map(sum, a), default=-1)
        assert h.is_homogeneous() == (len({sum(e) for e in b}) <= 1)
        assert repr(f) == _ref_format(ring, a)
        # substitution: x -> h, z -> g, y kept
        images = {"x": h, "z": ring.poly(g)}
        want = {}
        for e, cf in a.items():
            t = {(0, e[1], 0): cf}
            for _ in range(e[0]):
                t = _ref_mul(char, t, b)
            for _ in range(e[2]):
                t = _ref_mul(char, t, g)
            want = _naive_sum(char, (1, want), (1, t))
        assert _poly_data(f.substitute(images)) == want
        # transfer into a ring with the variables permuted and one more
        moved = ring.transfer(f, other)
        assert _poly_data(moved) == {(0, e[2], e[0], e[1]): cf for e, cf in a.items()}
        assert other.transfer(moved, ring) == f
        if any(e[0] for e in _poly_data(moved)):
            with pytest.raises(ValueError):
                other.transfer(moved, PolyRing(("w", "y", "z"), char=char))
        # exact division, and a division that is not exact
        if b:
            product = _ref_mul(char, a, b)
            quotient = poly_divide_exact(ring.poly(product), h)
            assert _poly_data(quotient) == _ref_divide(ring, product, b) == a
            divided += bool(a)
            want = _ref_divide(ring, g, b)
            if want is None:
                with pytest.raises(ArithmeticError):
                    poly_divide_exact(ring.poly(g), h)
            else:
                assert _poly_data(poly_divide_exact(ring.poly(g), h)) == want
        # a polynomial times a vector of R^3, on either side
        slots = {(j, e): cf for j in range(3) for e, cf in tuples().items()}
        u = Vec(ring, slots)
        want = _naive_product(char, a, slots, lambda e, t: (t[0], _exp_add(e, t[1])))
        assert (f * u).data == want and (u * f).data == want
        assert (ring.one() * u).data == slots and (u * 0).data == {}
        if u.shifted(1) and f.shifted(1):
            with pytest.raises(ValueError, match="a product of two vectors"):
                u.shifted(1) * f.shifted(1)
        # equality and hashing by value, across rings and components
        twin = Vec(ring, dict(slots))
        assert twin == u and hash(twin) == hash(u) and len({u, twin, u + f - f}) == 1
        assert (u == ring.zero()) == (not slots) and (f == ring.zero()) == (not a)
        if f:
            assert f.shifted(1) != f and f != ring.transfer(f, other) and f != f + 1
        assert len({f, h, f + 0, h * 1}) == 2 - (a == b)
    assert divided >= 20
