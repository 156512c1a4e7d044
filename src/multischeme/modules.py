"""Graded modules, free resolutions, and Betti data.

A graded module is presented as coker of a homogeneous map between free
modules, stored as its column Vecs; generator degrees are tracked so twists
and Hilbert data make sense.  The lift of a minimalization is a column Vec
per original generator too.  Polynomial matrices appear only at the edges:
a hand-written presentation is converted once, and minors and ranks read
``GradedModule.matrix()``.

The resource budget is fixed where a module is built: a ``GradedModule`` or
``Resolution`` keeps its ``Guard`` (the default one if none), and all that
is computed from it, its minimal presentation and resolution too, keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .groebner import DEFAULT_GUARD, buchberger, lead_index, module_contains, syzygies
from .ring import Vec, poly_divide_exact


def columns_to_vecs(ring, matrix):
    """rows x cols polynomial matrix -> list of column Vecs."""
    return [sum((row[j].shifted(i) for i, row in enumerate(matrix)), ring.zero())
            for j in range(len(matrix[0]) if matrix else 0)]


def vecs_to_columns(ring, vecs, nrows):
    """list of column Vecs -> nrows x len(vecs) polynomial matrix."""
    zero = ring.zero()
    split = [v.components() for v in vecs]
    return [[parts.get(i, zero) for parts in split] for i in range(nrows)]


def _apply(cols, v):
    """The image of v under the map whose column j is ``cols[j]``: the sum
    of v_j * cols[j] over the components v_j of v."""
    return sum((f * cols[j] for j, f in v.components().items()), v.ring.zero())


def _bareiss(matrix):
    """Fraction-free echelon elimination (Bareiss, Math. Comp. 22, 1968).

    Returns (rank over the fraction field, determinant or None when the
    matrix is not square).  Once k pivots are eliminated every remaining
    entry is a (k+1)-minor of the input, so the division by the previous
    pivot is exact (Sylvester's identity).
    """
    m = [list(row) for row in matrix]
    nrows, ncols = len(m), len(m[0]) if m else 0
    sign, prev, r = 1, None, 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        p = m[r][c]
        for i in range(r + 1, nrows):
            q = m[i][c]
            for j in range(c + 1, ncols):
                e = p * m[i][j] - q * m[r][j]
                m[i][j] = e if prev is None else poly_divide_exact(e, prev)
        prev = p
        r += 1
    if nrows != ncols:
        return r, None
    if r < nrows:
        return r, matrix[0][0].ring.zero()
    return r, prev if sign > 0 else -prev


def determinant(matrix):
    """Determinant of a square polynomial matrix."""
    return _bareiss(matrix)[1]


def minors(matrix, k):
    """All k x k minors of a polynomial matrix."""
    if not matrix:
        return []
    nrows, ncols = len(matrix), len(matrix[0])
    if k <= 0:
        raise ValueError("minor size must be positive")
    if k > nrows or k > ncols:
        return []
    out = []
    for rows in combinations(range(nrows), k):
        for cols in combinations(range(ncols), k):
            sub = [[matrix[i][j] for j in cols] for i in rows]
            out.append(determinant(sub))
    return out


def matrix_rank(matrix):
    """Rank over the fraction field."""
    return _bareiss(matrix)[0]


@dataclass
class GradedModule:
    """coker of a homogeneous map onto F_0 = sum R(-gen_degrees[i]).

    ``relations`` are the map's columns as Vecs over ``ring`` with
    components < rank.  A rows x cols polynomial matrix (rows == rank) is
    accepted and converted to its columns here, once.
    """

    ring: object
    gen_degrees: tuple
    relations: list  # column Vecs in F_0
    guard: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.gen_degrees = tuple(self.gen_degrees)
        self.guard = self.guard or DEFAULT_GUARD
        rel = list(self.relations)
        is_matrix = not all(isinstance(v, Vec) for v in rel)
        for f in (f for row in rel for f in row) if is_matrix else rel:
            if f.ring is not self.ring and f.ring != self.ring:
                raise ValueError("a relation over %r in a module over %r" % (f.ring, self.ring))
        if is_matrix:
            if len(rel) != self.rank or len({len(row) for row in rel}) > 1:
                raise ValueError("relation matrix shape does not match %d generators" % self.rank)
            rel = columns_to_vecs(self.ring, rel)
        for col in rel:
            if col.rank() > self.rank:
                raise ValueError("relation column outside rank %d" % self.rank)
            if not col.is_homogeneous(self.gen_degrees):
                raise ValueError("inhomogeneous relation column")
        self.relations = rel

    @property
    def rank(self):
        return len(self.gen_degrees)

    def twists(self):
        return [-d for d in self.gen_degrees]

    def matrix(self):
        """The relations as a rank x len(relations) polynomial matrix."""
        return vecs_to_columns(self.ring, self.relations, self.rank)

    def minimal_with_map(self):
        """(minimal presentation, lift): lift[i] is the image of original
        generator i, a column Vec whose component j is its coefficient on
        surviving generator j."""
        ring = self.ring
        rows, _, rel, steps = _prune_units(ring, self.relations, self.rank)
        lift = {a: Vec.unit(ring, j) for j, a in enumerate(rows)}
        for a, subst in reversed(steps):
            lift[a] = sum((c * lift[i] for i, c in subst.items()), ring.zero())
        degs = tuple(self.gen_degrees[a] for a in rows)
        return GradedModule(ring, degs, rel, self.guard), [lift[a] for a in range(self.rank)]


def _prune_units(ring, cols, nrows):
    """Cancel the unit entries of a presentation, given as column Vecs with
    components < nrows, then drop zero columns.

    Repeatedly takes the least (row a, column b) such that column b has the
    unit term (a, zero exponent) -- in a homogeneous column that term is the
    whole entry -- clears the rest of row a by column operations and removes
    row a and column b.  Returns (rows, kept, pruned, steps): the original
    indices of the surviving rows and columns, the surviving columns
    renumbered onto the surviving rows, and per pivot ``(a, {i: c})`` with
    g_a = sum c * g_i in the cokernel.
    """
    live = dict(enumerate(cols))
    # each column's entries and constant entries, read anew where a pivot changed it
    read = {b: (v.components(), v.constants()) for b, v in live.items()}
    rows = list(range(nrows))
    steps = []
    while units := [(a, b) for b, (_, found) in read.items() for a in found]:
        a, b = min(units)
        col = live.pop(b)
        col = col.scale(ring.field.inv(read.pop(b)[1][a]))
        for j, v in live.items():
            if entry := read[j][0].get(a):
                live[j] = v = v - entry * col
                read[j] = v.components(), v.constants()
        rows.remove(a)
        steps.append((a, {i: -f for i, f in col.components().items() if i != a}))
    kept = [j for j, v in live.items() if v]
    pruned = [live[j] for j in kept]
    if steps:  # a pivot removed a row: renumber onto the surviving rows
        new = {i: k for k, i in enumerate(rows)}
        pruned = [v.renumbered(new) for v in pruned]
    return rows, kept, pruned, steps


@dataclass
class Resolution:
    """A complex F_0 <- F_1 <- ...; maps[i] is d_{i+1} : F_{i+1} -> F_i as its
    column Vecs, one per generator of F_{i+1}, with components indexing the
    generators of F_i, the form of ``GradedModule.relations``."""

    ring: object
    degrees: list  # degrees[i] = generator degrees of F_i
    maps: list     # maps[i] = len(degrees[i + 1]) column Vecs in F_i
    guard: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.guard = self.guard or DEFAULT_GUARD

    @property
    def length(self):
        return len(self.degrees) - 1

    def betti(self):
        table = {}
        for i, degs in enumerate(self.degrees):
            for d in degs:
                table[(i, d)] = table.get((i, d), 0) + 1
        return table

    def verify(self):
        """Check d_i o d_{i+1} = 0 and exactness at each interior step."""
        for i, (d, nxt) in enumerate(zip(self.maps, self.maps[1:])):
            if any(_apply(d, v) for v in nxt):
                return False
            ker = syzygies(d, rank=len(self.degrees[i]), guard=self.guard)
            gb = lead_index(buchberger(nxt, guard=self.guard))
            if not all(module_contains(v, gb) for v in ker):
                return False
        return True


def free_resolution(module):
    """Minimal graded free resolution of a GradedModule (coker presentation).

    Each syzygy step is pruned before the next one, so every map has entries
    in the irrelevant maximal ideal and, by the syzygy theorem, the length is
    at most the number of variables.
    """
    ring, guard = module.ring, module.guard
    res = Resolution(ring, [list(module.gen_degrees)], [], guard)
    current = module.relations
    while current:
        degs = [v.degree(res.degrees[-1]) for v in current]
        rows, cols, pruned, _ = _prune_units(ring, current, len(res.degrees[-1]))
        if res.maps:
            res.maps[-1] = [res.maps[-1][a] for a in rows]
        res.degrees[-1] = [res.degrees[-1][a] for a in rows]
        if not cols:
            break
        res.maps.append(pruned)
        res.degrees.append([degs[b] for b in cols])
        current = syzygies(pruned, rank=len(rows), guard=guard)
    return res
