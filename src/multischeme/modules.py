"""Graded modules, free resolutions, and Betti data.

A graded module is presented as coker of a homogeneous matrix between free
modules; generator degrees are tracked so twists and Hilbert data make sense.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .groebner import Vec, buchberger, module_contains, syzygies
from .ring import poly_divide_exact


def columns_to_vecs(ring, matrix):
    """rows x cols polynomial matrix -> list of column Vecs."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    out = []
    for j in range(ncols):
        data = {}
        for i, row in enumerate(matrix):
            for e, c in row[j].terms.items():
                data[(i, e)] = c
        out.append(Vec(ring, data))
    return out


def vecs_to_columns(ring, vecs, nrows):
    matrix = [[ring.zero() for _ in vecs] for _ in range(nrows)]
    for j, v in enumerate(vecs):
        for i in range(nrows):
            matrix[i][j] = v.component(i)
    return matrix


def mat_mul(ring, a, b):
    """Product of polynomial matrices."""
    if not a or not b:
        return []
    out = [[ring.zero() for _ in range(len(b[0]))] for _ in range(len(a))]
    for i in range(len(a)):
        for k in range(len(b)):
            aik = a[i][k]
            if aik.is_zero():
                continue
            for j in range(len(b[0])):
                if b[k][j]:
                    out[i][j] = out[i][j] + aik * b[k][j]
    return out


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
    """coker of a homogeneous matrix; gen i generates in degree gen_degrees[i]."""

    ring: object
    gen_degrees: tuple
    relations: list  # rows x cols polynomial matrix, rows == len(gen_degrees)

    def __post_init__(self):
        self.gen_degrees = tuple(self.gen_degrees)
        for col in columns_to_vecs(self.ring, self.relations):
            if not col.is_homogeneous_with(self.gen_degrees):
                raise ValueError("inhomogeneous relation column")

    @property
    def rank(self):
        return len(self.gen_degrees)

    def twists(self):
        return [-d for d in self.gen_degrees]

    def relation_vecs(self):
        return columns_to_vecs(self.ring, self.relations)

    def minimal_with_map(self):
        """(minimal presentation, lift) with lift[i][j] expressing the image
        of original generator i on the surviving generators j."""
        ring = self.ring
        rows, _, rel, steps = _prune_units(ring, self.relations)
        zero = ring.zero()
        lift = {a: [ring.one() if a == b else zero for b in rows] for a in rows}
        for a, subst in reversed(steps):
            row = [zero] * len(rows)
            for i, c in subst.items():
                row = [x + c * y if y else x for x, y in zip(row, lift[i])]
            lift[a] = row
        degs = tuple(self.gen_degrees[a] for a in rows)
        return GradedModule(ring, degs, rel), [lift[a] for a in range(self.rank)]



def _prune_units(ring, matrix):
    """Cancel the unit entries of a presentation matrix, then drop zero columns.

    Repeatedly takes the first nonzero constant entry (a, b) in row-major
    order, clears the rest of row a by column operations and removes row a
    and column b.  Returns (rows, cols, pruned, steps): the original indices
    of the surviving rows and columns, the pruned matrix, and per pivot
    ``(a, {i: c})`` with g_a = sum c * g_i in the cokernel.
    """
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
        inv = ring.field.inv(m[a][b].constant())
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


@dataclass
class Resolution:
    """A complex F_0 <- F_1 <- ... ; maps[i] presents F_{i+1} -> F_i."""

    ring: object
    degrees: list  # degrees[i] = generator degrees of F_i
    maps: list     # maps[i] = rows x cols matrix, rows = len(degrees[i])

    @property
    def length(self):
        return len(self.degrees) - 1

    def betti(self):
        table = {}
        for i, degs in enumerate(self.degrees):
            for d in degs:
                table[(i, d)] = table.get((i, d), 0) + 1
        return table

    def map_matrix(self, i):
        """Matrix of d_i : F_i -> F_{i-1} (1-based differential index)."""
        return self.maps[i - 1]

    def verify(self, guard=None):
        """Check d_i o d_{i+1} = 0 and exactness at each interior step."""
        for i in range(len(self.maps) - 1):
            prod = mat_mul(self.ring, self.maps[i], self.maps[i + 1])
            if any(e for row in prod for e in row):
                return False
        for i in range(len(self.maps) - 1):
            cols = columns_to_vecs(self.ring, self.maps[i])
            ker = syzygies(cols, rank=len(self.degrees[i]), guard=guard)
            img = columns_to_vecs(self.ring, self.maps[i + 1])
            gb = buchberger(img, guard=guard)
            if not all(module_contains(v, gb) for v in ker):
                return False
        return True


def free_resolution(module, guard=None):
    """Minimal graded free resolution of a GradedModule (coker presentation).

    Each syzygy step is pruned before the next one, so every map has entries
    in the irrelevant maximal ideal and, by the syzygy theorem, the length is
    at most the number of variables.
    """
    ring = module.ring
    res = Resolution(ring, [list(module.gen_degrees)], [])
    current = module.relation_vecs()
    degs = [v.degree_with(module.gen_degrees) for v in current]
    while current:
        matrix = vecs_to_columns(ring, current, len(res.degrees[-1]))
        rows, cols, pruned, _ = _prune_units(ring, matrix)
        if res.maps:
            res.maps[-1] = [[row[a] for a in rows] for row in res.maps[-1]]
        res.degrees[-1] = [res.degrees[-1][a] for a in rows]
        if not cols:
            break
        res.maps.append(pruned)
        res.degrees.append([degs[b] for b in cols])
        current = syzygies(
            columns_to_vecs(ring, pruned), rank=len(rows), guard=guard
        )
        degs = [v.degree_with(res.degrees[-1]) for v in current]
    return res
