import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd
from operator import add, le

import pytest
from test_modules import _random_presentation
from test_structures import _theorem_rows

import multischeme.groebner as groebner
from multischeme.groebner import (
    Guard,
    ResourceGuardExceeded,
    buchberger,
    groebner_basis,
    interreduce,
    lead_index,
    module_contains,
    normal_form,
    submodule_equal,
    syzygies,
)
from multischeme.parse import parse_ideal, parse_poly
from multischeme.ring import GREVLEX, LEX, LIMIT, PolyRing, TermOrder, Vec


@pytest.fixture
def ring():
    return PolyRing(("x", "y"))


def _divides(a, b):
    return all(map(le, a, b))


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
    leads = [f.lead()[0][1] for f in gb]
    for f in gb:
        for _, e in f.data:
            dividing = [
                l for l in leads if all(a >= b for a, b in zip(e, l))
            ]
            if e == f.lead()[0][1]:
                assert dividing == [f.lead()[0][1]]
            else:
                assert not dividing


def test_prime_characteristic_basis():
    ring = PolyRing(("x", "y"), char=2)
    gb = _gb_strings(ring, "(x^2 + y^2, x*y)")
    # over GF(2): x^2 + y^2 = (x + y)^2
    assert "x*y" in gb


def test_koszul_syzygy_of_two_variables(ring):
    x, y = map(ring.var, ring.names)
    syz = syzygies([x, y], rank=1)
    assert len(syz) == 1
    assert str(syz[0].component(0)) == "y"
    assert str(syz[0].component(1)) == "-x"


def test_syzygies_of_degree_two_monomials(ring):
    x, y = map(ring.var, ring.names)
    gens = [x * x, x * y, y * y]
    syz = syzygies(gens, rank=1)
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
    x, y = map(ring.var, ring.names)
    gb = buchberger([x * x, x * y])
    assert module_contains(x * x * y, gb)
    assert not module_contains(y * y, gb)


def test_submodule_equality_is_generator_independent(ring):
    x, y = map(ring.var, ring.names)
    a = [x, y]
    b = [x + y, y]
    c = [x + y]
    assert submodule_equal(a, b)
    assert not submodule_equal(a, c)


def test_position_over_term_prefers_lower_component(ring):
    x, y = map(ring.var, ring.names)
    v = Vec(ring, {(0, (0, 1)): 1, (1, (5, 0)): 1})
    (comp, exp), _c = v.lead()
    assert comp == 0 and exp == (0, 1)


def test_coprime_module_leads_in_one_component_need_their_s_pair(ring):
    # the product criterion holds only for ideals: f = x*e0 + e1 and g = y*e0
    # have coprime leads, yet S(f, g) = y*e1 does not reduce to zero
    f = Vec(ring, {(0, (1, 0)): 1, (1, (0, 0)): 1})
    g = Vec(ring, {(0, (0, 1)): 1})
    gb = interreduce(buchberger([f, g]))
    assert [v.data for v in gb] == [f.data, g.data, {(1, (0, 1)): 1}]
    assert not module_contains(Vec(ring, {(1, (0, 1)): 1}), [f, g])


def test_degree_guard_interrupts(ring):
    guard = Guard(max_degree=2)
    gens = parse_ideal(ring, "(x^5 - y, x*y^4 - x - 1)")
    with pytest.raises(ResourceGuardExceeded):
        groebner_basis(gens, guard=guard)


def test_elimination_through_block_order():
    ring = PolyRing(("t", "x", "y"))
    t, x, y = map(ring.var, ring.names)
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
                shift = tuple(a - b for a, b in zip(e, eg))
                v = v - v.ring.poly({shift: c * field.inv(cg)}) * g
                break
        else:
            term = Vec(v.ring, {(j, e): c})
            rem = rem + term
            v = v - term
    return rem


@pytest.mark.parametrize("char", [0, 5])
def test_normal_form_when_a_cancelled_monomial_reappears(char):
    # Reducing -y^4 by y^2 - 1 cancels y^2; reducing x^2 by x^2 + y^2 then
    # brings y^2 back, which must be reduced again.
    ring = PolyRing(("x", "y"), char=char)
    v = parse_poly(ring, "x^2*y^2 + x^2 + y^2")
    basis = parse_ideal(ring, "(x^2 + y^2, y^2 - 1)")
    assert normal_form(v, basis) == ring.const(-1)
    assert normal_form(v, basis).data == _naive_normal_form(v, basis).data


def test_char0_basis_of_int_coefficients_is_exact(ring):
    # x^2 normalised by 1/3 used to give the float 0.333... in char 0
    def gens(c):
        return [Vec(ring, {(0, (2, 0)): c(3), (0, (0, 2)): c(1)}), Vec(ring, {(0, (1, 1)): c(1)})]

    from_int = interreduce(buchberger(gens(int)))
    from_fraction = interreduce(buchberger(gens(Fraction)))
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
    assert len(interreduce(buchberger(cyclic4))) == 7
    assert len(calls) == 11
    del calls[:]
    quadrics = parse_ideal(ring, "(a^2, a*b, b^2, c*a, c*d, d^2)")
    assert len(syzygies(quadrics, rank=1)) == 11
    assert len(calls) == 23


def _reference_interreduce(G):
    """Interreduction one element at a time: prune divisible leads, then
    reduce each minimal element modulo all the others."""
    G = sorted((g for g in G if g), key=lambda g: sum(g.lead()[0][1]))
    if not G:
        return []
    lkey = G[0].ring.order.lead_key
    minimal = []
    for g in G:
        j, e = g.lead()[0]
        if any(m.lead()[0][0] == j and _divides(m.lead()[0][1], e) for m in minimal):
            continue
        minimal.append(g)
    out = []
    for i, g in enumerate(minimal):
        r = normal_form(g, minimal[:i] + minimal[i + 1:])
        if r:
            out.append(r.monic())
    out.sort(key=lambda g: (g.lead()[0][0], lkey(g.lead()[0][1])))
    return out


def _reference_syzygies(vecs, rank):
    """The full path: interreduce the whole graph-module basis, then keep
    the elements that lie in the components >= rank."""
    ring = vecs[0].ring
    aug = [
        Vec(ring, {**v.data, (rank + i, (0,) * ring.nvars): 1})
        for i, v in enumerate(vecs)
    ]
    return [
        Vec(ring, {(j - rank, e): c for (j, e), c in g.data.items()})
        for g in _reference_interreduce(buchberger(aug))
        if all(j >= rank for j, _ in g.data)
    ]


def _same_vecs(a, b):
    """Equal Vec lists, in order, with terms in the same order."""
    return [list(v.data.items()) for v in a] == [list(v.data.items()) for v in b]


@pytest.mark.parametrize("char", [0, 5])
def test_eliminating_before_interreduction_matches_the_full_path(char):
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(11 + char)
    cut = 0
    for _ in range(40):
        degs, cols = _random_presentation(ring, rng)
        assert _same_vecs(syzygies(cols, rank=len(degs)), _reference_syzygies(cols, len(degs)))
        # a nonzero column puts a lead below the rank into the graph basis
        cut += any(cols)
    assert cut >= 30


def test_eliminating_matches_the_full_path_on_theorem_layers():
    layers = 0
    for name, st in _theorem_rows():
        filt = st.filtration()
        for upper, lower in zip(filt.ideals, filt.ideals[1:]):
            gens = upper.minimal_gens()
            vecs = list(gens) + list(lower.gens)
            assert _same_vecs(syzygies(vecs, rank=1), _reference_syzygies(vecs, 1)), name
            layers += 1
    assert layers == 26


def _cut_syzygies(vecs, modulo, rank):
    """The kernel modulo a submodule the old way: the full syzygies of
    [vecs | modulo], cut to the first len(vecs) components."""
    cut = (
        Vec(s.ring, {(j, e): c for (j, e), c in s.data.items() if j < len(vecs)})
        for s in syzygies(list(vecs) + list(modulo), rank=rank)
    )
    return [v for v in cut if v]


def _random_column(rng, ring, degs):
    """A sparse homogeneous column of R^len(degs) with generator degrees
    ``degs``: each entry zero or one or two terms."""
    d = max(degs) + rng.randint(0, 1)
    data = {}
    for i, a in enumerate(degs):
        for _ in range(rng.randint(0, 2)):
            e = [0] * ring.nvars
            for _ in range(d - a):
                e[rng.randrange(ring.nvars)] += 1
            c = rng.choice([-2, -1, 1, 2])
            data[(i, tuple(e))] = c % ring.char if ring.char else c
    return Vec(ring, data)


@pytest.mark.parametrize("char", [0, 5])
def test_syzygies_modulo_a_basis_match_the_cut_full_syzygies(char):
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(7 + char)
    proper = 0
    for _ in range(40):
        degs, cols = _random_presentation(ring, rng)
        rank = len(degs)
        image = [_random_column(rng, ring, degs) for _ in range(rng.randint(1, 3))]
        modulo = interreduce(buchberger(image))
        got = syzygies(cols, rank=rank, modulo=modulo)
        want = _cut_syzygies(cols, modulo, rank)
        assert submodule_equal(got, want)
        # the reduced basis of the kernel is unique
        assert [_typed(v) for v in got] == [_typed(v) for v in interreduce(buchberger(want))]
        proper += not submodule_equal(got, syzygies(cols, rank=rank))
    assert proper >= 10


def _random_vecs(ring, rng):
    """Random Vecs of R^2 with coefficients other than 1, where every third
    one repeats an earlier lead with a fresh coefficient and tail."""
    p = ring.char

    def key(t):
        return t[0], ring.order.lead_key(t[1])

    def coeff():
        c = rng.choice([-3, -2, 2, 3, 4])
        return c % p if p else ring.field.coerce(Fraction(c, rng.choice([1, 2])))

    def term():
        return rng.randrange(2), tuple(rng.randint(0, 2) for _ in range(ring.nvars))

    out = []
    for k in range(rng.randint(2, 9)):
        data = {term(): coeff() for _ in range(rng.randint(1, 4))}
        if out and k % 3 == 2:
            lead = rng.choice(out).lead()[0]
            data = {t: c for t, c in data.items() if key(t) > key(lead)}
            data[lead] = coeff()
        out.append(Vec(ring, data))
    return out


@pytest.mark.parametrize("char", [0, 5])
def test_interreduce_with_one_index_matches_reducing_by_the_others(char):
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(char)
    repeated = 0
    for _ in range(200):
        vecs = _random_vecs(ring, rng)
        assert _same_vecs(interreduce(vecs), _reference_interreduce(vecs))
        leads = [v.lead()[0] for v in vecs if v]
        repeated += len(set(leads)) < len(leads)
    assert repeated >= 50


def test_groebner_extends_its_lead_index_with_every_new_element(monkeypatch):
    """The index ``buchberger`` passes to each reduction is one dict, and at
    every reduction it equals the index rebuilt from the basis so far."""
    seen = []
    reduce = groebner._reduce

    def recording(v, index):
        snapshot = {j: list(entries) for j, entries in index.items()}
        rem, scale = reduce(v, index)
        seen.append((index, snapshot, bool(rem)))
        return rem, scale

    monkeypatch.setattr(groebner, "_reduce", recording)
    ring = PolyRing(("a", "b", "c", "d"))
    cyclic4 = parse_ideal(
        ring, "(a + b + c + d, a*b + b*c + c*d + d*a, a*b*c + b*c*d + c*d*a + d*a*b, a*b*c*d - 1)"
    )
    quadrics = parse_ideal(ring, "(a^2, a*b, b^2, c*a, c*d, 2*d^2 - a*c)")
    graph = [Vec(ring, {**f.data, (1 + i, (0,) * ring.nvars): 1})
             for i, f in enumerate(quadrics)]
    for vecs in (cyclic4, graph):
        del seen[:]
        G = buchberger(vecs)
        assert len({id(index) for index, _, _ in seen}) == 1
        # one insertion per nonzero remainder, each seen by the next reduction
        assert sum(nonzero for _, _, nonzero in seen) == len(G) - len(vecs) > 0
        sizes = [sum(map(len, snapshot.values())) for _, snapshot, _ in seen]
        assert set(range(len(vecs), len(G))) <= set(sizes) <= set(range(len(vecs), len(G) + 1))
        for (_, snapshot, _), n in zip(seen, sizes):
            assert snapshot == lead_index(G[:n])
        assert seen[-1][0] == lead_index(G)


def _reference_buchberger(vecs):
    """Monic Fraction arithmetic throughout: every S-pair of the growing
    basis, least lcm degree first and no criteria, reduced by
    ``_naive_normal_form``; then the minimal elements reduced by the others.
    The reduced basis is unique, so the integer kernel must give the same
    one, coefficient types included."""

    def monic(v):
        return v.scale(v.ring.field.inv(v.lead()[1]))

    G = [monic(v) for v in vecs if v]
    if not G:
        return []
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]

    def lcm_of(pair):
        (jf, ef), (jg, eg) = (G[k].lead()[0] for k in pair)
        return tuple(map(max, ef, eg)) if jf == jg else None

    while pairs:
        pairs = [pair for pair in pairs if lcm_of(pair) is not None]
        if not pairs:
            break
        pair = min(pairs, key=lambda pair: sum(lcm_of(pair)))
        pairs.remove(pair)
        f, g = G[pair[0]], G[pair[1]]
        (_, ef), (_, eg) = f.lead()[0], g.lead()[0]
        lcm = lcm_of(pair)
        s = (f.ring.poly({tuple(a - b for a, b in zip(lcm, ef)): 1}) * f
             - g.ring.poly({tuple(a - b for a, b in zip(lcm, eg)): 1}) * g)
        r = _naive_normal_form(s, G)
        if r:
            pairs.extend((k, len(G)) for k in range(len(G)))
            G.append(monic(r))
    G.sort(key=lambda g: sum(g.lead()[0][1]))
    minimal = []
    for g in G:
        j, e = g.lead()[0]
        if not any(m.lead()[0][0] == j and _divides(m.lead()[0][1], e) for m in minimal):
            minimal.append(g)
    lkey = G[0].ring.order.lead_key
    out = [monic(_naive_normal_form(g, minimal[:i] + minimal[i + 1:]))
           for i, g in enumerate(minimal)]
    return sorted(out, key=lambda g: (g.lead()[0][0], lkey(g.lead()[0][1])))


def _typed(v):
    """The data of a Vec with the type of each coefficient."""
    return {k: (c, type(c)) for k, c in v.data.items()}


def _awkward_vecs(ring, rng, rank):
    """Random Vecs of R^rank with non-unit leads; in char 0 also Fraction
    coefficients and integral values kept as ``Fraction(3)``."""
    p = ring.char

    def coeff():
        c = rng.choice([-6, -3, -2, 2, 3, 4])
        if p:
            return c % p
        return rng.choice([c, Fraction(c), Fraction(c, rng.choice([2, 3]))])

    return [
        Vec(ring, {
            (rng.randrange(rank), tuple(rng.randint(0, 2) for _ in range(ring.nvars))): coeff()
            for _ in range(rng.randint(1, 3))
        })
        for _ in range(rng.randint(2, 4))
    ]


@pytest.mark.parametrize("char", [0, 5])
@pytest.mark.parametrize("rank", [1, 2])
def test_integer_kernel_matches_monic_fraction_reference(char, rank):
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(17 * rank + char)
    fractions = 0
    for _ in range(30):
        vecs = _awkward_vecs(ring, rng, rank)
        got, want = interreduce(buchberger(vecs)), _reference_buchberger(vecs)
        assert [_typed(v) for v in got] == [_typed(v) for v in want]
        fractions += any(type(c) is Fraction for v in got for c in v.data.values())
    assert fractions >= 5 if char == 0 else fractions == 0


@pytest.mark.parametrize("char", [0, 5])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_a_known_basis_gives_the_plain_reduced_basis(char, rank, monkeypatch):
    """``known=len(basis)`` skips the S-pairs inside ``basis`` and changes no
    output, for a reduced basis and for an unreduced ``buchberger`` output,
    with and without elimination: the elements leading in the components
    >= ``eliminate``, interreduced, as ``syzygies`` cuts them.  Each later
    input enters reduced modulo the basis so far: one that repeats a known
    element or lies in the known span is dropped before it forms a pair, and
    new inputs that repeat each other form no more pairs than without the
    repeat."""
    calls = []
    spair = groebner._spair

    def counting(f, g):
        calls.append(1)
        return spair(f, g)

    def run(vecs, eliminate, known=0):
        del calls[:]
        G = buchberger(vecs, known=known)
        out = interreduce([g for g in G if g.lead()[0][0] >= eliminate])
        return [_typed(v) for v in out], len(calls)

    monkeypatch.setattr(groebner, "_spair", counting)
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(41 * rank + char)
    plain = extended = 0
    for n in range(24):
        first = _awkward_vecs(ring, rng, rank)
        basis = interreduce(buchberger(first)) if n % 2 else buchberger(first)
        if n % 3 == 0:  # a zero in the known part is dropped, not counted
            basis = [Vec(ring, {})] + basis
        new = _awkward_vecs(ring, rng, rank)
        vecs = basis + new
        a, b = basis[-1], next(filter(None, basis))
        span = [a, ring.poly({(1, 0, 1): 2}) * a + ring.poly({(0, 1, 0): 3}) * b]
        for eliminate in {0, rank - 1}:
            want, pairs = run(vecs, eliminate)
            plain += pairs
            got, pairs = run(vecs, eliminate, known=len(basis))
            extended += pairs
            assert got == want
            # span inputs reduce to zero on entry: the run is the one without them
            alone = run(basis, eliminate, known=len(basis))
            assert alone[1] == 0 and run(basis + span, eliminate, known=len(basis)) == alone
            assert run(basis + span + new, eliminate, known=len(basis)) == (want, pairs)
            # repeated new inputs: the plain output, and no more pairs than before
            repeated, more = run(vecs + new, eliminate, known=len(basis))
            assert repeated == want and more <= pairs
    assert extended < plain


@pytest.mark.parametrize("char", [0, 5])
def test_normal_form_is_exact_and_unscaled(char):
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(23 + char)
    scaled = 0
    for _ in range(100):
        basis = _awkward_vecs(ring, rng, 2)
        v = _awkward_vecs(ring, rng, 2)[0]
        want = _naive_normal_form(v, basis)
        got = normal_form(v, basis)
        assert _typed(got) == {k: (ring.field.coerce(c), type(ring.field.coerce(c)))
                               for k, c in want.data.items()}
        # a list basis, a list of primitive Vecs and their index agree
        prim = [g.primitive() for g in basis]
        assert normal_form(v, lead_index(prim)).data == got.data
        scaled += groebner._reduce(Vec(ring, groebner._cleared(v.data)[1]),
                                   lead_index(prim))[1] != 1
    assert scaled >= 5 if char == 0 else scaled == 0


def test_primitive_has_coprime_integers_and_a_positive_lead():
    ring = PolyRing(("x", "y"))
    v = Vec(ring, {(0, (0, 1)): Fraction(9, 4), (0, (1, 0)): Fraction(-3, 2), (1, (0, 0)): Fraction(3)})
    p = v.primitive()
    assert p.data == {(0, (0, 1)): -3, (0, (1, 0)): 2, (1, (0, 0)): -4}
    assert all(type(c) is int for c in p.data.values())
    assert p.lead() == ((0, (1, 0)), 2)
    assert p.primitive() is p
    assert Vec(ring, {(0, (1, 0)): -6, (0, (0, 0)): 4}).primitive().data == {
        (0, (1, 0)): 3, (0, (0, 0)): -2}
    gf = PolyRing(("x", "y"), char=5)
    w = Vec(gf, {(0, (1, 0)): 3, (0, (0, 1)): 1})
    assert w.primitive().data == w.monic().data == {(0, (1, 0)): 1, (0, (0, 1)): 2}
    # monic() carries the packed lead key over, with coefficient 1
    m = Vec(gf, {(1, (2, 0)): 4, (0, (0, 1)): 3}).monic()
    assert m.data == {(1, (2, 0)): 3, (0, (0, 1)): 1}
    assert m._top == (min(m.terms), 1)
    assert m.lead() == ((0, (0, 1)), 1) == Vec(gf, dict(m.data)).lead()


def _reference_spair(f, g):
    """The S-polynomial through products by terms and a subtraction."""
    (_, ef), cf = f.lead()
    (_, eg), cg = g.lead()
    top = tuple(map(max, ef, eg))
    q = gcd(cf, cg)
    poly = f.ring.poly
    return (poly({tuple(a - b for a, b in zip(top, ef)): cg // q}) * f
            - poly({tuple(a - b for a, b in zip(top, eg)): cf // q}) * g)


@pytest.mark.parametrize("char", [0, 5])
@pytest.mark.parametrize("order", [GREVLEX, LEX, TermOrder("block", 1)])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_carried_leads_are_the_leads_of_the_data(char, order, rank):
    """The lead a Vec carries out of ``_reduce``, ``_spair``, ``primitive``,
    ``monic`` and ``interreduce`` is the lead computed afresh from its data,
    coefficient included, and ``_spair`` is the two-step formula."""
    ring = PolyRing(("x", "y", "z"), char=char, order=order)
    rng = random.Random("%d %s %d" % (char, order.kind, rank))
    checked = spairs = scaled = 0

    def check(v):
        nonlocal checked
        if v:
            fresh = min(v.data, key=lambda t: (t[0], order.lead_key(t[1])))
            assert v.lead() == (fresh, v.data[fresh]) == Vec(ring, dict(v.data)).lead()
            # the packed view holds the terms of ``data``, in the same order,
            # and its lead decodes to ``lead()``
            pk = v.pk
            assert list(v.terms.items()) == list(Vec(ring, dict(v.data)).terms.items())
            assert list(v.data.items()) == list(Vec(ring, None, dict(v.terms)).data.items())
            k, c = v.top()
            assert ((k >> pk.cs, pk.exps(k & pk.mask)), c) == v.lead()
            checked += 1
        return v

    for _ in range(20):
        vecs = _awkward_vecs(ring, rng, rank)
        prim = [check(v.primitive()) for v in vecs]
        for v in vecs:
            check(v.monic())
        index = lead_index(prim)
        rems = []
        for v in _awkward_vecs(ring, rng, rank):
            rem, s = groebner._reduce(Vec(ring, groebner._cleared(v.data)[1]), index)
            rems.append(check(rem))
            scaled += s != 1
        for f, g in combinations(prim, 2):
            if f.lead()[0][0] == g.lead()[0][0]:
                got = check(groebner._spair(f, g))
                assert _typed(got) == _typed(_reference_spair(f, g))
                rem, s = groebner._reduce(got, index)
                rems.append(check(rem))
                scaled += s != 1
                spairs += 1
        # not a Groebner basis, which lex could make costly: any list interreduces
        for g in interreduce(prim + rems):
            check(g)
    assert checked >= 200 and spairs >= 10
    assert scaled >= 3 if char == 0 else scaled == 0


@pytest.mark.parametrize("char", [0, 5])
def test_groebner_output_and_lead_index_are_marked_primitive(char):
    """Every ``buchberger`` element and every ``lead_index`` entry is marked,
    so ``primitive()`` on it returns it without a gcd pass."""
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(31 + char)
    for rank in (1, 2, 3):
        for _ in range(10):
            vecs = _awkward_vecs(ring, rng, rank)
            G = buchberger(vecs)
            entries = [g for es in lead_index(vecs).values() for _, _, g in es]
            for g in G + entries:
                assert g._primitive and g.primitive() is g


def test_quotient_scan_bases_match_the_reference(monkeypatch):
    """Every Buchberger run of one seed-0 Prop 3.3 scan, on the block-order
    ideals of its candidate maps, interreduced against the monic Fraction
    reference."""
    import multischeme.ideals as ideals
    from multischeme.quotients import line_bundle_quotients
    from multischeme.scenarios import _nonexistence_module

    calls = []
    original = ideals.buchberger

    def recording(vecs, guard=None, known=0):
        out = original(vecs, guard, known)
        calls.append((list(vecs), out))
        return out

    monkeypatch.setattr(ideals, "buchberger", recording)
    _, module, _, _ = _nonexistence_module()
    line_bundle_quotients(module, (-10, 0), samples=100, seed=0)
    assert len(calls) > 200
    for vecs, out in calls:
        assert [_typed(v) for v in interreduce(out)] == [
            _typed(v) for v in _reference_buchberger(vecs)
        ]


def test_every_s_pair_is_formed_inside_buchberger(rebind):
    """``buchberger`` is the one Buchberger entry point: with it and
    ``_spair`` wrapped at every binding, every S-pair of a catalog row, of
    nontypeI(1, 2) and of a Prop 3.3 scan is formed inside a ``buchberger``
    call."""
    from multischeme.catalog import load_catalog
    from multischeme.families import build_family
    from multischeme.quotients import line_bundle_quotients
    from multischeme.scenarios import _nonexistence_module

    depth = [0]
    spairs = {True: 0, False: 0}  # inside a buchberger call -> S-pairs

    def entered(original):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapped

    def counted(original):
        def wrapped(f, g):
            spairs[depth[0] > 0] += 1
            return original(f, g)

        return wrapped

    rebind(groebner, "buchberger", entered)
    rebind(groebner, "_spair", counted)

    def catalog_row():
        entry = next(e for e in load_catalog("thm-3.8") if e.id == "thm-3.8/5")
        st = entry.structure(char=0, check=True)
        return st.filtration().layer_polynomials, st.locally_cm(), st.is_type_I()

    def nontype1():
        st = build_family("nontypeI", a=1, b=2).structures[0]
        return st.is_type_I(), st.locally_cm()

    def scan():
        _, module, _, _ = _nonexistence_module()
        return line_bundle_quotients(module, (-1, 0), samples=100, seed=0)

    for run in (catalog_row, nontype1, scan):
        before = spairs[True]
        run()
        assert spairs[True] > before and spairs[False] == 0, run.__name__


def _reference_tuple_lead_index(basis):
    """component -> [(lead exps, lead coeff, Vec)], keyed by exponent tuples."""
    index = {}
    for g in filter(None, basis):
        g = g.primitive()
        (j, e), c = g.lead()
        index.setdefault(j, []).append((e, c, g))
    return index


def _reference_tuple_reduce(v, index):
    """The tuple-keyed heap reduction the packed ``_reduce`` replaced: terms
    are (component, exps) keys ordered by ``lead_key``, a divisor is found by
    ``all(map(le, ...))`` and a shift is a tuple sum."""
    ring = v.ring
    p = ring.char
    lkey = ring.order.lead_key
    work = dict(v.data)
    heap = [(j, lkey(e), e) for j, e in work]
    heapify(heap)
    rem = {}
    scale = 1
    while heap:
        jc, _, ec = heappop(heap)
        cc = work.get((jc, ec))
        if cc is None:
            continue
        for eg, cg, g in index.get(jc, ()):
            if all(map(le, eg, ec)):
                break
        else:
            rem[(jc, ec)] = cc
            del work[jc, ec]
            continue
        if p:
            factor = cc * ring.field.inv(cg)
        else:
            q = gcd(cc, cg)
            factor, m = cc // q, cg // q
            if m != 1:
                scale *= m
                work = {t: c * m for t, c in work.items()}
                rem = {t: c * m for t, c in rem.items()}
        shift = tuple(a - b for a, b in zip(ec, eg))
        for (jg2, eg2), cg2 in g.data.items():
            e = tuple(map(add, eg2, shift))
            k = (jg2, e)
            s = work.get(k, 0) - factor * cg2
            if p:
                s %= p
            if s:
                if k not in work:
                    heappush(heap, (jg2, lkey(e), e))
                work[k] = s
            else:
                work.pop(k, None)
    return Vec(ring, rem), scale


def _reference_tuple_spair(f, g):
    """The tuple-keyed one-dict S-polynomial."""
    (jf, ef), cf = f.lead()
    (_, eg), cg = g.lead()
    top = tuple(map(max, ef, eg))
    q = gcd(cf, cg)
    mf, mg, p = cg // q, cf // q, f.ring.char
    sf, sg = (tuple(a - b for a, b in zip(top, e)) for e in (ef, eg))
    data = {(k[0], tuple(map(add, k[1], sf))): c * mf % p if p else c * mf
            for k, c in f.data.items() if k != (jf, ef)}
    for k, c in g.data.items():
        if k != (jf, eg):
            k = (k[0], tuple(map(add, k[1], sg)))
            s = data.get(k, 0) - c * mg
            if p:
                s %= p
            if s:
                data[k] = s
            else:
                del data[k]
    return Vec(f.ring, data)


def _reference_tuple_buchberger(vecs, guard, known, formed):
    """The tuple-keyed ``buchberger``: the same pair queue, criteria and
    guard checks on exponent tuples, over ``_reference_tuple_reduce`` and
    ``_reference_tuple_spair``; appends to ``formed`` per S-pair."""
    known = sum(map(bool, vecs[:known]))
    vecs = [v.primitive() for v in vecs if v]
    rank1 = all(j == 0 for g in vecs for j, _ in g.data)
    G, leads, same, index, pairs, queue = [], [], {}, {}, {}, []

    def add_pairs(g):
        new = len(leads)
        (comp, exps), c = g.lead()
        here = same.setdefault(comp, [])
        if new >= known:
            for k, ek in here:
                lcm = tuple(map(max, ek, exps))
                pairs[(k, new)] = lcm
                heappush(queue, (sum(lcm), k, new))
        here.append((new, exps))
        leads.append((comp, exps))
        index.setdefault(comp, []).append((exps, c, g))

    for n, g in enumerate(vecs):
        if known and n >= known:
            g = _reference_tuple_reduce(g, index)[0].primitive()
            if not g:
                continue
        G.append(g)
        add_pairs(g)
    while queue:
        deg, i, j = heappop(queue)
        lcm = pairs.pop((i, j))
        (comp, ei), (_, ej) = leads[i], leads[j]
        if rank1 and all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue
        for k, ek in same[comp]:
            if (k not in (i, j) and _divides(ek, lcm) and (min(i, k), max(i, k)) not in pairs
                    and (min(j, k), max(j, k)) not in pairs):
                break
        else:
            guard.check_degree(deg)
            formed.append(1)
            rem, _ = _reference_tuple_reduce(_reference_tuple_spair(G[i], G[j]), index)
            if rem:
                G.append(rem.primitive())
                guard.check_basis(len(G))
                add_pairs(G[-1])
    return G


@pytest.mark.parametrize("char", [0, 5])
@pytest.mark.parametrize("order", [GREVLEX, LEX, TermOrder("block", 1)])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_packed_kernel_matches_the_tuple_keyed_reference(char, order, rank, monkeypatch):
    """The packed ``buchberger`` gives the unreduced basis of the tuple-keyed
    kernel it replaced: the same elements in the same order, term order
    included, the same leads and the same number of S-pairs, with and
    without a known basis, or the same guard trip after the same S-pairs
    (char-0 lex input can swell); ``_reduce`` and ``_spair`` agree term for
    term."""
    calls = []
    spair = groebner._spair

    def counting(f, g):
        calls.append(1)
        return spair(f, g)

    def same(got, want):
        assert [list(v.data.items()) for v in got] == [list(v.data.items()) for v in want]
        assert [v.lead() if v else None for v in got] == [v.lead() if v else None for v in want]

    def run(kernel):
        try:
            return kernel(), None
        except ResourceGuardExceeded as exc:
            return None, str(exc)

    monkeypatch.setattr(groebner, "_spair", counting)
    guard = Guard(max_basis=40)
    ring = PolyRing(("x", "y", "z"), char=char, order=order)
    rng = random.Random("%d %s %d tuple" % (char, order.kind, rank))
    formed = compared = 0
    for n in range(8):
        first = _awkward_vecs(ring, rng, rank)
        new = _awkward_vecs(ring, rng, rank)
        basis, _ = run(lambda: buchberger(first, guard))
        runs = [(first + new, 0)] + ([(basis + new, len(basis))] if basis else [])
        for vecs, known in runs:
            del calls[:]
            wanted = []
            got, trip = run(lambda: buchberger(vecs, guard, known))
            want, want_trip = run(lambda: _reference_tuple_buchberger(vecs, guard, known, wanted))
            assert trip == want_trip and len(calls) == len(wanted)
            if got is not None:
                same(got, want)
                compared += 1
            formed += len(wanted)
        if basis is None:
            continue
        index, tuples = lead_index(basis), _reference_tuple_lead_index(basis)
        for v in new:
            v = Vec(ring, groebner._cleared(v.data)[1])
            (got, s), (want, t) = groebner._reduce(v, index), _reference_tuple_reduce(v, tuples)
            same([got], [want])
            assert s == t
        for f, g in combinations(basis, 2):
            if f.lead()[0][0] == g.lead()[0][0]:
                same([spair(f, g)], [_reference_tuple_spair(f, g)])
    assert compared >= 12 and formed >= 20


@pytest.mark.parametrize("order", [GREVLEX, LEX, TermOrder("block", 1), TermOrder("block", 2)])
def test_packed_keys_order_shift_and_divide_like_exponent_tuples(order):
    """On random monomials, exponent LIMIT - 1 and a rest block carrying most
    of the degree included: ascending keys are (component, lead_key) order,
    a key shifts by adding lin(s) = key(s) - OFF, the guard-bit mask tests
    divisibility, and a key decodes to its component and exponents."""
    ring = PolyRing(("x", "y", "z"), order=order)
    pk = ring.pk
    rng = random.Random("%s %d keys" % (order.kind, order.front))
    top = LIMIT - 1

    def mono(bound):
        kind = rng.randrange(3)
        if kind == 0:
            return tuple(rng.choice((0, bound)) for _ in range(3))
        if kind == 1:  # the front variable small, the rest carrying the degree
            return (rng.randint(0, 2), rng.randint(0, bound), rng.randint(0, bound))
        return tuple(rng.randint(0, min(bound, 3)) for _ in range(3))

    terms = [(rng.randrange(3), mono(top)) for _ in range(400)]
    keys = [(j << pk.cs) + pk.key(e) for j, e in terms]
    by_key = [t for _, t in sorted(zip(keys, terms))]
    assert by_key == sorted(terms, key=lambda t: (t[0], order.lead_key(t[1])))
    assert [(k >> pk.cs, pk.exps(k & pk.mask)) for k in keys] == terms
    for (j, e), k in zip(terms, keys):
        s = tuple(rng.randint(0, top - a) for a in e)
        assert k + pk.key(s) - pk.off == (j << pk.cs) + pk.key(tuple(map(add, e, s)))
    divides = 0
    for _ in range(2000):
        a, b = mono(top), mono(top)
        if rng.random() < 0.3:
            b = tuple(map(add, a, (rng.randint(0, top - x) for x in a)))
        fits = not (pk.key(b) - pk.key(a)) & pk.guard
        assert fits == _divides(a, b)
        divides += fits
    assert divides >= 500


def test_an_exponent_past_the_limit_trips_the_guard():
    """An exponent of 2^15 or more, in the input or made by an S-pair or a
    reduction step, raises a guard trip naming the kernel, the limit and the
    value; it never wraps into a neighbouring field."""
    ring = PolyRing(("y", "x", "z"), order=LEX)
    message = "Groebner kernel: exponent 40000 exceeds the limit 32767"
    with pytest.raises(ResourceGuardExceeded, match=message):
        buchberger([parse_poly(ring, "x^40000 - y")])
    # y*(y*x^20000 + z) - x^20000*(y^2 + x^20000) = y*z - x^40000
    f, g = parse_ideal(ring, "(y*x^20000 + z, y^2 + x^20000)")
    with pytest.raises(ResourceGuardExceeded, match=message):
        buchberger([f, g], guard=Guard(max_degree=10**6))
    # x^20000*y reduces by y - x^20000 to x^40000
    with pytest.raises(ResourceGuardExceeded, match=message):
        normal_form(parse_poly(ring, "x^20000*y"), [parse_poly(ring, "y - x^20000")])
    # LIMIT - 1 itself is an exponent like any other
    v = parse_poly(ring, "x^32767*z^32767 - y")
    y = parse_poly(ring, "y")
    assert normal_form(v, [y]).data == {(0, (0, 32767, 32767)): 1}
