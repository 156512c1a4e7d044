"""Graded modules, free resolutions, and Betti data.

A graded module is presented as coker of a homogeneous matrix between free
modules; generator degrees are tracked so twists and Hilbert data make sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .groebner import Vec, buchberger, module_contains, syzygies


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


def transpose(ring, matrix):
    if not matrix:
        return []
    return [[matrix[i][j] for i in range(len(matrix))] for j in range(len(matrix[0]))]


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


def determinant(matrix):
    """Cofactor-expansion determinant of a square polynomial matrix."""
    n = len(matrix)
    ring = matrix[0][0].ring
    memo = {}

    def det(rows, cols):
        if not rows:
            return ring.one()
        key = (rows, cols)
        if key in memo:
            return memo[key]
        r = rows[0]
        rest = rows[1:]
        total = ring.zero()
        for idx, c in enumerate(cols):
            entry = matrix[r][c]
            if entry.is_zero():
                continue
            sub = det(rest, cols[:idx] + cols[idx + 1:])
            term = entry * sub
            total = total + term if idx % 2 == 0 else total - term
        memo[key] = total
        return total

    return det(tuple(range(n)), tuple(range(n)))


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
    """Rank over the fraction field, via largest nonvanishing minor."""
    if not matrix:
        return 0
    bound = min(len(matrix), len(matrix[0]))
    for k in range(bound, 0, -1):
        if any(m for m in minors(matrix, k)):
            return k
    return 0


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

    def relation_degrees(self):
        return [v.degree_with(self.gen_degrees) for v in self.relation_vecs()]

    def minimal(self, guard=None):
        """Minimal presentation: prune constant pivots from the relations."""
        return self.minimal_with_map()[0]

    def minimal_with_map(self):
        """(minimal presentation, lift) with lift[i][j] expressing the image
        of original generator i on the surviving generators j."""
        degs = list(self.gen_degrees)
        rel = [list(r) for r in self.relations]
        lift = [
            [self.ring.one() if i == j else self.ring.zero() for j in range(self.rank)]
            for i in range(self.rank)
        ]
        degs, rel, lift = _prune_presentation(self.ring, degs, rel, lift)
        if rel and rel[0]:
            keep = [j for j in range(len(rel[0])) if any(row[j] for row in rel)]
            rel = [[row[j] for j in keep] for row in rel]
        return GradedModule(self.ring, tuple(degs), rel), lift

    def is_zero(self, guard=None):
        gb = buchberger(self.relation_vecs(), guard=guard)
        return all(
            module_contains(Vec.unit(self.ring, i), gb) for i in range(self.rank)
        )

    def to_json(self):
        return {
            "ring": _ring_decl(self.ring),
            "gen_twists": self.twists(),
            "matrix": [[str(e) for e in row] for row in self.relations],
        }

    @classmethod
    def from_json(cls, data):
        from .parse import parse_poly, parse_ring

        ring = parse_ring(data["ring"])
        degs = tuple(-t for t in data["gen_twists"])
        rel = [[parse_poly(ring, e) for e in row] for row in data["matrix"]]
        return cls(ring, degs, rel)


def _ring_decl(ring):
    from .parse import format_ring

    return format_ring(ring)


def _prune_presentation(ring, degs, rel, lift):
    """Remove generators hit by unit relation entries, tracking the lift.

    The pruned generator a satisfies g_a = -(1/p) * sum_{i != a} rel[i][b] g_i
    (from the pivot column b), which is back-substituted into ``lift``.
    """
    while True:
        pivot = _find_unit(rel)
        if pivot is None:
            return degs, rel, lift
        a, b = pivot
        p = rel[a][b]
        inv = ring.field.inv(p.constant())
        ncols = len(rel[0])
        for j in range(ncols):
            if j == b:
                continue
            f = rel[a][j].scale(inv)
            if f:
                for i in range(len(rel)):
                    rel[i][j] = rel[i][j] - f * rel[i][b]
        subst = {
            i: (-rel[i][b].scale(inv)) for i in range(len(rel)) if i != a and rel[i][b]
        }
        for o in range(len(lift)):
            ca = lift[o][a]
            if ca:
                for i, coeff in subst.items():
                    lift[o][i] = lift[o][i] + ca * coeff
        lift = [[row[i] for i in range(len(row)) if i != a] for row in lift]
        rel = [[rel[i][j] for j in range(ncols) if j != b] for i in range(len(rel)) if i != a]
        degs = [d for i, d in enumerate(degs) if i != a]
        if rel and not rel[0]:
            rel = [[] for _ in rel]


def _find_unit(matrix):
    for i, row in enumerate(matrix):
        for j, e in enumerate(row):
            if e and e.is_constant():
                return (i, j)
    return None


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


def free_resolution(module, max_length=None, guard=None):
    """Minimal graded free resolution of a GradedModule (coker presentation).

    Each syzygy step is pruned before the next one, so every map has entries
    in the irrelevant maximal ideal and the length is bounded by the number
    of variables.
    """
    ring = module.ring
    if max_length is None:
        max_length = ring.nvars + 1
    res = Resolution(ring, [list(module.gen_degrees)], [])
    current = module.relation_vecs()
    current_degs = [v.degree_with(module.gen_degrees) for v in current]
    while current and len(res.maps) < max_length:
        res.maps.append(vecs_to_columns(ring, current, len(res.degrees[-1])))
        res.degrees.append(list(current_degs))
        i = len(res.maps) - 1
        while True:
            pivot = _find_unit(res.maps[i])
            if pivot is None:
                break
            _prune_pivot(res, i, *pivot)
        _drop_zero_columns(res, i)
        if not res.degrees[-1]:
            res.degrees.pop()
            res.maps.pop()
            break
        current = syzygies(
            columns_to_vecs(ring, res.maps[i]), rank=len(res.degrees[i]), guard=guard
        )
        current_degs = [v.degree_with(res.degrees[i + 1]) for v in current]
    return res


def _drop_zero_columns(res, i):
    """Remove zero relation columns in the freshly appended last map."""
    A = res.maps[i]
    if not A:
        res.degrees[i + 1] = []
        return
    keep = [j for j in range(len(A[0])) if any(row[j] for row in A)]
    if len(keep) != len(A[0]):
        res.maps[i] = [[row[j] for j in keep] for row in A]
        res.degrees[i + 1] = [res.degrees[i + 1][j] for j in keep]


def _prune_pivot(res, i, a, b):
    """Cancel the free summand seen by unit entry (a, b) of maps[i]."""
    ring = res.ring
    A = res.maps[i]
    p = A[a][b]
    inv = ring.field.inv(p.constant())
    ncols = len(A[0])
    nrows = len(A)
    B = res.maps[i + 1] if i + 1 < len(res.maps) else None
    C = res.maps[i - 1] if i > 0 else None
    for j in range(ncols):
        if j == b:
            continue
        f = A[a][j].scale(inv)
        if f:
            for r in range(nrows):
                A[r][j] = A[r][j] - f * A[r][b]
            if B is not None:
                for c in range(len(B[0])):
                    B[b][c] = B[b][c] + f * B[j][c]
    res.maps[i] = [[A[r][j] for j in range(ncols) if j != b] for r in range(nrows) if r != a]
    if B is not None:
        res.maps[i + 1] = [row for r, row in enumerate(B) if r != b]
    if C is not None:
        res.maps[i - 1] = [[row[c] for c in range(len(row)) if c != a] for row in C]
    res.degrees[i].pop(a)
    res.degrees[i + 1].pop(b)
