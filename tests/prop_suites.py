"""Seeded random property suites shared by the unit tests and the
acceptance gate: each suite runs a fixed number of small instances and
asserts an algebraic invariant exactly."""

from __future__ import annotations

import random

from multischeme.groebner import groebner_basis
from multischeme.ideals import (
    Ideal,
    ext_annihilator,
    fitting_ideal,
    is_irrelevant_primary,
    radical_contains,
    saturate,
    unmixed_part,
)
from multischeme.modules import GradedModule
from multischeme.ring import PolyRing

CHARS = (0, 5)
COUNT = 200


def _random_poly(rng, ring, max_terms=3, max_deg=2, allow_zero=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * ring.nvars
        for _ in range(rng.randint(0 if allow_zero else 1, max_deg)):
            e[rng.randrange(ring.nvars)] += 1
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        e = tuple(e)
        terms[e] = terms.get(e, 0) + c
    return ring.poly({e: c for e, c in terms.items() if c})


def _random_homogeneous(rng, ring, degree):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * ring.nvars
        for _ in range(degree):
            e[rng.randrange(ring.nvars)] += 1
        c = rng.choice((-2, -1, 1, 2))
        e = tuple(e)
        terms[e] = terms.get(e, 0) + c
    return ring.poly({e: c for e, c in terms.items() if c})


def _random_ring(rng, min_vars=2, max_vars=3):
    n = rng.randint(min_vars, max_vars)
    return PolyRing(tuple("xyz"[:n]), char=rng.choice(CHARS))


def ring_axioms(seed, count=COUNT):
    """Commutative-ring laws on random polynomials."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = _random_ring(rng)
        f = _random_poly(rng, ring, allow_zero=True)
        g = _random_poly(rng, ring, allow_zero=True)
        h = _random_poly(rng, ring, allow_zero=True)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + ring.zero() == f
        assert f * ring.one() == f
        assert f - f == ring.zero()
        assert f * ring.zero() == ring.zero()
        assert (f + g) - g == f
        assert f ** 2 == f * f
    return count


def _spoly(f, g):
    ring = f.ring
    (_, ef), cf = f.lead()
    (_, eg), cg = g.lead()
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = ring.poly({tuple(l - a for l, a in zip(lcm, ef)): 1})
    mg = ring.poly({tuple(l - a for l, a in zip(lcm, eg)): 1})
    inv = ring.field.inv
    return mf * f.scale(inv(cf)) - mg * g.scale(inv(cg))


def groebner_determinism(seed, count=COUNT):
    """The reduced basis is input-order independent and closes under
    S-polynomial reduction."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = PolyRing(("x", "y"), char=rng.choice(CHARS))
        gens = [_random_poly(rng, ring) for _ in range(rng.randint(2, 3))]
        gens = [f for f in gens if f]
        if not gens:
            continue
        basis = groebner_basis(gens)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        again = groebner_basis(list(reversed(shuffled)))
        assert sorted(map(str, basis)) == sorted(map(str, again))
        reducer = Ideal(ring, basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert reducer.reduce(_spoly(basis[i], basis[j])).is_zero()
    return count


def saturation_idempotence(seed, count=COUNT):
    """Saturating a saturated ideal is the identity (exponent zero)."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = PolyRing(("z0", "x", "y"), char=rng.choice(CHARS))
        gens = [_random_poly(rng, ring, max_terms=2, max_deg=3) for _ in range(2)]
        gens = [f for f in gens if f]
        if not gens:
            continue
        f = ring.var(rng.choice(ring.names))
        sat, _e = saturate(Ideal(ring, gens), f)
        again, e2 = saturate(sat, f)
        assert e2 == 0
        assert again.equals(sat)
    return count


def fitting_invariance(seed, count=COUNT):
    """Fitting ideals do not change under redundant relations or trivial
    extra generators."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = PolyRing(("x", "y"), char=rng.choice(CHARS))
        g = rng.randint(2, 3)
        ncols = rng.randint(1, 2)
        d = rng.randint(1, 2)
        cols = [
            [
                _random_homogeneous(rng, ring, d) if rng.random() < 0.8 else ring.zero()
                for _ in range(g)
            ]
            for _ in range(ncols)
        ]
        rel = [[cols[c][i] for c in range(ncols)] for i in range(g)]
        mod = GradedModule(ring, (0,) * g, rel)
        # redundant column: scalar combination of the existing columns
        combo = [rng.randint(-2, 2) for _ in range(ncols)]
        extra = [
            sum((cols[c][i].scale(combo[c]) for c in range(ncols)), ring.zero())
            for i in range(g)
        ]
        rel2 = [row + [extra[i]] for i, row in enumerate(rel)]
        mod2 = GradedModule(ring, (0,) * g, rel2)
        # trivial generator killed by a unit relation
        rel3 = [row + [ring.zero()] for row in rel]
        rel3.append([ring.zero()] * ncols + [ring.one()])
        mod3 = GradedModule(ring, (0,) * (g + 1), rel3)
        for r in range(-1, g + 2):
            base = fitting_ideal(mod, r)
            assert fitting_ideal(mod2, r).equals(base)
            assert fitting_ideal(mod3, r).equals(base)
    return count


def ext_window_triviality(seed, count=COUNT):
    """Complete intersections have trivial Ext annihilators beyond their
    codimension (up to irrelevant torsion)."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = PolyRing(("z0", "z1", "x", "y"), char=rng.choice(CHARS))
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        c = rng.randint(-2, 2)
        x, y, z0 = ring.var("x"), ring.var("y"), ring.var("z0")
        ideal = Ideal(ring, [x ** a + (z0 ** a).scale(c), y ** b])
        for i in range(3, ring.nvars):
            ann = ext_annihilator(ideal, i)
            assert ann.is_one() or is_irrelevant_primary(ann)
    return count


def irrelevance_agrees_with_radical(seed, count=COUNT):
    """The Hilbert-series emptiness test agrees with its definition: every
    variable lies in the radical."""
    rng = random.Random(seed)
    verdicts = []
    for _ in range(count):
        ring = _random_ring(rng)
        gens = [
            _random_homogeneous(rng, ring, rng.randint(1, 2))
            for _ in range(rng.randint(1, ring.nvars + 1))
        ]
        ideal = Ideal(ring, gens)
        expected = all(radical_contains(ideal, v) for v in map(ring.var, ring.names))
        assert is_irrelevant_primary(ideal) == expected
        verdicts.append(expected)
    assert 0.2 < sum(verdicts) / count < 0.8
    return count


def _random_form(rng, ring, degree):
    f = ring.zero()
    while not f:
        f = _random_homogeneous(rng, ring, degree)
    return f


def hull_matches_ext_annihilator(seed, count=COUNT):
    """The equidimensional hull from one saturation equals ann Ext^c(R/I, R)
    on ideals with embedded, irrelevant and lower-dimensional components."""
    rng = random.Random(seed)
    grown = 0
    for k in range(count):
        ring = PolyRing(("a", "b", "c", "d"), char=rng.choice((0, 2, 5)))
        top = Ideal(ring, [_random_form(rng, ring, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))])
        line = _random_form(rng, ring, 1)
        kind = k % 4
        if kind == 0:  # the top part alone, usually unmixed
            ideal = top
        elif kind == 1:  # embedded along top + (line)
            ideal = top.times(Ideal(ring, top.gens + (line,)))
        elif kind == 2:  # embedded irrelevant component
            ideal = top.times(Ideal(ring, map(ring.var, ring.names)))
        else:  # a lower-dimensional linear component
            ideal = top.times(Ideal(ring, [line] + [_random_form(rng, ring, 1) for _ in range(2)]))
        hull = unmixed_part(ideal)
        assert hull.equals(ext_annihilator(ideal, ideal.codimension()))
        grown += not hull.equals(ideal)
    assert grown > count // 4
    return count


ALL_SUITES = {
    "ring-axioms": ring_axioms,
    "groebner-determinism": groebner_determinism,
    "saturation-idempotence": saturation_idempotence,
    "fitting-invariance": fitting_invariance,
    "ext-window-triviality": ext_window_triviality,
    "irrelevance-agrees-with-radical": irrelevance_agrees_with_radical,
    "hull-matches-ext-annihilator": hull_matches_ext_annihilator,
}

SEED = 20260823
_COUNTS = {}


def suite_count(name, seed=SEED):
    """Instance count of one suite at one seed, run at most once per process
    (the unit tests and the acceptance gate read the same counts)."""
    if (name, seed) not in _COUNTS:
        _COUNTS[name, seed] = ALL_SUITES[name](seed)
    return _COUNTS[name, seed]
