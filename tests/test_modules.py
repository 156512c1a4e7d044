import random
from itertools import combinations

import pytest

from multischeme import modules
from multischeme.groebner import DEFAULT_GUARD, Guard, buchberger, module_contains
from multischeme.hilbert import module_hilbert_series
from multischeme.ideals import Ideal, quotient_resolution
from multischeme.modules import (
    GradedModule,
    Resolution,
    _prune_units,
    columns_to_vecs,
    determinant,
    free_resolution,
    matrix_rank,
    minors,
    vecs_to_columns,
)
from multischeme.quotients import line_bundle_quotients, solution_space
from multischeme.ring import PolyRing, ResourceGuardExceeded, Vec


@pytest.fixture
def ring():
    return PolyRing(("x", "y"))


def test_determinant_two_by_two(ring):
    x, y = map(ring.var, ring.names)
    assert determinant([[x, y], [y, x]]) == x * x - y * y
    assert determinant([[x, y], [x, y]]).is_zero()


def test_determinant_three_by_three_triangular(ring):
    x, y = map(ring.var, ring.names)
    z = ring.zero()
    m = [[x, y, y], [z, y, x], [z, z, x]]
    assert determinant(m) == x * y * x


def test_minors_counts_and_values(ring):
    x, y = map(ring.var, ring.names)
    m = [[x, y, ring.zero()], [ring.zero(), x, y]]
    ones = minors(m, 1)
    assert len(ones) == 6
    twos = sorted(str(f) for f in minors(m, 2))
    assert twos == ["x*y", "x^2", "y^2"]
    assert minors(m, 3) == []
    with pytest.raises(ValueError):
        minors(m, 0)


def test_matrix_rank(ring):
    x, y = map(ring.var, ring.names)
    assert matrix_rank([[x, y], [y, x]]) == 2
    assert matrix_rank([[x, y], [x, y]]) == 1
    assert matrix_rank([[ring.zero(), ring.zero()]]) == 0


def _cofactor_det(m):
    """Reference determinant: Laplace expansion along the first row."""
    if not m:
        return 1
    total = 0
    for j, entry in enumerate(m[0]):
        if entry:
            sub = [row[:j] + row[j + 1:] for row in m[1:]]
            term = entry * _cofactor_det(sub)
            total = term + total if j % 2 == 0 else -term + total
    return total


def _minor_rank(m):
    """Reference rank: the size of the largest nonvanishing minor."""
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(m[0])), k):
                if _cofactor_det([[m[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def _random_matrix(ring, rng, nrows, ncols):
    def entry():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            d = rng.randint(0, 2)
            a = rng.randint(0, d)
            terms[(a, d - a)] = rng.randint(-3, 3)
        return ring.poly(terms)

    m = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3:  # a zero column
        j = rng.randrange(ncols)
        for row in m:
            row[j] = ring.zero()
    if nrows >= 2 and rng.random() < 0.4:  # a row dependent on the others
        f, g = entry(), entry()
        i, k = rng.sample(range(nrows), 2)
        others = [r for r in range(nrows) if r not in (i, k)]
        m[i] = [f * a + (g * m[others[0]][j] if others else 0) for j, a in enumerate(m[k])]
    return m


@pytest.mark.parametrize("char", [0, 5])
def test_determinant_and_rank_match_cofactor_and_minor_references(char):
    ring = PolyRing(("x", "y"), char=char)
    rng = random.Random(char)
    deficient = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        m = _random_matrix(ring, rng, n, n)
        assert determinant(m) == ring.zero() + _cofactor_det(m)
        assert matrix_rank(m) == _minor_rank(m)
        deficient += matrix_rank(m) < n
        shape = (rng.randint(1, 4), rng.randint(1, 4))
        m = _random_matrix(ring, rng, *shape)
        assert matrix_rank(m) == _minor_rank(m)
    assert deficient >= 10  # rank-deficient square cases are exercised


def test_minimal_presentation_back_substitutes_chained_pivots(ring):
    x, y = map(ring.var, ring.names)
    one, zero = ring.one(), ring.zero()
    # g0 = x*g1 is cancelled first, then g1 = y*g2, so g0 = x*y*g2
    rel = [[one, zero, zero], [-x, one, x], [zero, -y, y * y]]
    mod = GradedModule(ring, (2, 1, 0), rel)
    minimal, lift = mod.minimal_with_map()
    assert minimal.gen_degrees == (0,)
    assert minimal.matrix() == [[x * y + y * y]]
    assert lift == [x * y, y, one]
    # every original generator equals its lift modulo the original relations
    gb = buchberger(mod.relations)
    survivors = [2]
    for o, image in enumerate(lift):
        diff = Vec.unit(ring, o) - image.renumbered(survivors)
        assert module_contains(diff, gb)


def test_column_vec_round_trip(ring):
    x, y = map(ring.var, ring.names)
    m = [[x, ring.zero()], [y * y, x + y]]
    vecs = columns_to_vecs(ring, m)
    assert vecs_to_columns(ring, vecs, 2) == m


def test_inhomogeneous_relation_rejected(ring):
    x, y = map(ring.var, ring.names)
    with pytest.raises(ValueError):
        GradedModule(ring, (0, 1), [[x], [x]])


def test_presentation_shape_must_match_the_generators():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = map(ring.var, ring.names)
    bad = [
        ((0,), [[x], [y]]),        # two rows for one generator
        ((0, 0), [[x, y], [z]]),   # ragged rows
        ((0, 0), [[x]]),           # one row for two generators
        ((0,), [x.shifted(1)]),  # a column outside rank 1
    ]
    for degs, relations in bad:
        with pytest.raises(ValueError):
            GradedModule(ring, degs, relations)
    (col,) = GradedModule(ring, (0, 0), [[x], [y]]).relations
    assert col.data == {(0, (1, 0, 0)): 1, (1, (0, 1, 0)): 1}


def test_a_relation_over_another_ring_is_refused():
    sub = PolyRing(("z0", "z1"))
    big = PolyRing(("z0", "z1", "x", "y"))
    x = big.var("x")
    # read over k[z0, z1], x's packed key would be a different monomial
    both = r"over QQ\[z0,z1,x,y\]/grevlex in a module over QQ\[z0,z1\]/grevlex"
    with pytest.raises(ValueError, match=both):
        GradedModule(sub, (0,), [x])
    with pytest.raises(ValueError, match=both):
        GradedModule(sub, (0,), [[x]])


def test_derived_modules_keep_the_guard(ring):
    guard = Guard(max_degree=30)
    x, y = map(ring.var, ring.names)
    mod = GradedModule(ring, (0, 1), [[x, x * x], [-ring.one(), y]], guard)
    derived = [
        mod.minimal_with_map()[0], free_resolution(mod),
        quotient_resolution(Ideal(ring, [x * x, x * y], guard)),
    ]
    assert all(d.guard is guard for d in derived)
    plain = GradedModule(ring, (0,), [[x, y]])
    assert free_resolution(plain).guard is plain.guard is DEFAULT_GUARD


def test_a_module_runs_under_its_own_guard(ring):
    x, y = map(ring.var, ring.names)
    strict = Guard(max_degree=1)
    mod = GradedModule(ring, (0,), [[x * x, x * y, y * y]], strict)
    free = GradedModule(ring, (0, 0), [], strict)
    trip = "S-pair degree 3 exceeds budget 1"
    with pytest.raises(ResourceGuardExceeded, match=trip):
        free_resolution(mod)
    with pytest.raises(ResourceGuardExceeded, match=trip):
        module_hilbert_series(mod)
    # the basis rows of twist 2 are single monomials; the first sampled row
    # is two quadrics, whose basis needs a pair of degree past 1
    with pytest.raises(ResourceGuardExceeded, match="S-pair degree 2 exceeds budget 1"):
        line_bundle_quotients(free, (2, 2))
    # the same modules under the default budget
    assert free_resolution(GradedModule(ring, (0,), mod.relations)).length == 2
    (v,) = line_bundle_quotients(GradedModule(ring, (0, 0), []), (2, 2))
    assert v.verdict == "SURJECTION"


def test_minimal_presentation_prunes_unit_pivot(ring):
    x, y = map(ring.var, ring.names)
    # second generator equals x * (first); the unit column kills it
    rel = [[x], [-ring.one()]]
    mod = GradedModule(ring, (0, 1), rel)
    minimal, lift = mod.minimal_with_map()
    assert minimal.gen_degrees == (0,)
    assert minimal.relations == []
    assert minimal.matrix() == [[]]
    # original generator 1 maps to x times the survivor
    assert lift[1] == x
    assert lift[0] == ring.one()


def test_columns_are_renumbered_only_when_a_row_goes(ring, monkeypatch):
    x, y = map(ring.var, ring.names)
    calls = []
    renumbered = Vec.renumbered
    monkeypatch.setattr(Vec, "renumbered", lambda v, new: calls.append(new) or renumbered(v, new))
    # no unit entry, and no syzygy of the two columns: nothing is pruned
    mod = GradedModule(ring, (0, 1), [[x * x, y * y], [x, y]])
    assert _prune_units(ring, mod.relations, mod.rank) == ([0, 1], [0, 1], mod.relations, [])
    assert free_resolution(mod).betti() == {(0, 0): 1, (0, 1): 1, (1, 2): 2}
    assert calls == []
    # a unit pivot removes row 1, and the surviving column moves onto row 0
    mod = GradedModule(ring, (0, 1), [[x, y * y], [-ring.one(), y]])
    rows, kept, pruned, _ = _prune_units(ring, mod.relations, mod.rank)
    assert (rows, kept, len(calls)) == ([0], [1], 1)
    assert vecs_to_columns(ring, pruned, 1) == [[y * y + x * y]]


def test_free_resolution_of_two_variable_quotient(ring):
    x, y = map(ring.var, ring.names)
    mod = GradedModule(ring, (0,), [[x, y]])
    res = free_resolution(mod)
    assert res.length == 2
    assert res.betti() == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert res.verify()


def test_free_resolution_of_free_module_is_trivial(ring):
    mod = GradedModule(ring, (0, -1), [[], []])
    res = free_resolution(mod)
    assert res.length == 0
    assert res.betti() == {(0, 0): 1, (0, -1): 1}


def _column(ring, *entries):
    """The column Vec with the given polynomial entries."""
    return columns_to_vecs(ring, [[f] for f in entries])[0]


def test_resolution_verify_rejects_non_complex(ring):
    x, y = map(ring.var, ring.names)
    d1 = [_column(ring, x), _column(ring, y)]
    d2 = [_column(ring, x, y)]
    bad = Resolution(ring, [[0], [1, 1], [2]], [d1, d2])
    # d1 o d2 = x^2 + y^2 != 0
    assert not bad.verify()


def test_resolution_verify_rejects_a_complex_that_is_not_exact(ring):
    x, y = map(ring.var, ring.names)
    d1 = [_column(ring, x), _column(ring, y)]
    d2 = [_column(ring, y * y, -x * y)]
    res = Resolution(ring, [[0], [1, 1], [3]], [d1, d2])
    # d1 o d2 = x*y^2 - y*x*y = 0, but the kernel element (y, -x) of d1 is
    # not in the image y * (y, -x) of d2
    assert all(not modules._apply(d1, v) for v in d2)
    assert not res.verify()
    assert Resolution(ring, res.degrees[:2] + [[2]], [d1, [_column(ring, y, -x)]]).verify()


def test_free_resolution_converts_only_its_input(conversions):
    ring = PolyRing(("x", "y", "z"))
    x, y, z = map(ring.var, ring.names)
    # a redundant generator, so the first syzygies carry a unit to prune;
    # the matrix is converted here, before the count starts
    mod = GradedModule(ring, (0,), [[x * x, x * y, y * z, x * x + x * y]])
    calls = conversions()
    res = free_resolution(mod)
    assert res.betti() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert calls == {"columns_to_vecs": 0, "vecs_to_columns": 0}


def _matrix_prune_units(ring, matrix):
    """Reference pruner on a polynomial matrix: repeatedly cancels the first
    nonzero constant entry (a, b) in row-major order by column operations,
    then drops zero columns; returns (rows, cols, pruned matrix, steps)."""
    m = [list(row) for row in matrix]
    rows = list(range(len(m)))
    cols = list(range(len(m[0]))) if m else []
    steps = []
    while True:
        pivot = next(
            ((a, b) for a in rows for b in cols if m[a][b] and m[a][b].is_constant()),
            None,
        )
        if pivot is None:
            break
        a, b = pivot
        inv = ring.field.inv(m[a][b].data[(0, (0,) * ring.nvars)])
        rows.remove(a)
        cols.remove(b)
        hit = [i for i in rows if m[i][b]]
        for j in cols:
            f = m[a][j].scale(inv)
            if f:
                for i in hit:
                    m[i][j] = m[i][j] - f * m[i][b]
        steps.append((a, {i: -m[i][b].scale(inv) for i in hit}))
    cols = [j for j in cols if any(m[i][j] for i in rows)]
    return rows, cols, [[m[i][j] for j in cols] for i in rows], steps


def _random_presentation(ring, rng):
    """(generator degrees, relation column Vecs) of a homogeneous
    presentation whose low-degree columns have constant, often unit,
    entries."""
    degs = [rng.randint(0, 2) for _ in range(rng.randint(2, 5))]

    def form(d):
        if d < 0:
            return ring.zero()
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * ring.nvars
            for _ in range(d):
                e[rng.randrange(ring.nvars)] += 1
            terms[tuple(e)] = rng.randint(-2, 2)
        return ring.poly(terms)

    col_degs = [rng.randint(min(degs), max(degs) + 2) for _ in range(rng.randint(1, 5))]
    entries = [[form(c - d) for c in col_degs] for d in degs]
    return degs, [
        Vec(ring, {(i, e): a for i, row in enumerate(entries) for (_, e), a in row[j].data.items()})
        for j in range(len(col_degs))
    ]


@pytest.mark.parametrize("char", [0, 5])
def test_column_pruner_matches_the_matrix_reference(char):
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(char)
    pivots = chained = 0
    for _ in range(200):
        mod = GradedModule(ring, *_random_presentation(ring, rng))
        rows, cols, pruned, steps = _prune_units(ring, mod.relations, mod.rank)
        ref_rows, ref_cols, ref_pruned, ref_steps = _matrix_prune_units(ring, mod.matrix())
        assert (rows, cols, steps) == (ref_rows, ref_cols, ref_steps)
        assert vecs_to_columns(ring, pruned, len(rows)) == ref_pruned
        cancelled = {a for a, _ in steps}
        pivots += len(steps)
        # a substitution naming a generator that a later pivot cancels
        chained += any(i in cancelled for _, subst in steps for i in subst)
    assert pivots >= 100 and chained >= 20


@pytest.mark.parametrize("char", [0, 5])
def test_column_and_matrix_built_twins_agree(char):
    ring = PolyRing(("x", "y", "z"), char=char)
    rng = random.Random(char)
    solutions = 0
    for _ in range(40):
        degs, cols = _random_presentation(ring, rng)
        vec_mod = GradedModule(ring, degs, cols)
        twin = GradedModule(ring, degs, vec_mod.matrix())
        assert [v.data for v in twin.relations] == [v.data for v in cols]
        assert module_hilbert_series(twin) == module_hilbert_series(vec_mod)
        assert free_resolution(twin).betti() == free_resolution(vec_mod).betti()
        (m1, lift1), (m2, lift2) = twin.minimal_with_map(), vec_mod.minimal_with_map()
        assert (m1.gen_degrees, m1.matrix(), lift1) == (m2.gen_degrees, m2.matrix(), lift2)
        for twist in (-1, 0, 1):
            rows = solution_space(vec_mod, twist)
            assert solution_space(twin, twist) == rows
            solutions += len(rows)
            # every solution row kills every relation column
            for row in rows:
                for col in vec_mod.relations:
                    image = sum((f * col.component(i) for i, f in enumerate(row)), ring.zero())
                    assert image.is_zero()
    assert solutions >= 200
