"""Parametric families of multiple structures.

Each builder returns explicit ideals together with a manifest of expected
properties (multiplicity, Cohen-Macaulay / type-I verdicts, Hilbert
polynomial where one is known in closed form).  Parameter preconditions
(no common projective zero, degree constraints) are verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import add, sub

from .hilbert import twisted_free_hilbert
from .ideals import Ideal, is_irrelevant_primary
from .ring import PolyRing
from .structures import Embedding, MultiStructure, StructureError


@dataclass
class Family:
    name: str
    params: dict
    structures: list  # MultiStructure per entry
    manifest: list    # dict of expected properties per entry


def build_family(name, char=0, guard=None, **params):
    builders = {
        "primitive": _primitive,
        "koszul": _koszul,
        "nystruktur": _nystruktur,
        "bundle": _bundle,
        "split": _split,
        "ci_subsets": _ci_subsets,
        "nontypeI": _nontype1,
    }
    if name not in builders:
        raise ValueError(
            "unknown family %r; choose from %s" % (name, sorted(builders))
        )
    return builders[name](char=char, guard=guard, **params)


def _require_no_common_zero(ring, forms, label, guard):
    """Forms in the z-variables must have no common zero on their P^n."""
    sub = ring.subring(tuple(n for n in ring.names if n.startswith("z")))
    if not is_irrelevant_primary(Ideal(sub, [ring.transfer(f, sub) for f in forms], guard)):
        raise StructureError("forms %s have a common projective zero" % label)


def _primitive(nu=2, n=2, char=0, guard=None):
    """One-dimensional-fiber structures on a codimension-two linear support:
    the three thickenings of (x^nu, y) to multiplicity nu + 1."""
    if nu < 2:
        raise ValueError("nu must be at least 2")
    names = tuple("z%d" % i for i in range(n + 1)) + ("x", "y")
    ring = PolyRing(names, char=char)
    x, y = ring.var("x"), ring.var("y")
    G = ring.var("z0") ** (nu - 1)
    emb = Embedding(ring, ("x", "y"), guard)
    ideals = [
        [x ** (nu + 1), y],
        [x ** nu, x * y, y * y],
        [x ** nu + G * y, x * y, y * y],
    ]
    structures = [
        MultiStructure(emb, gens) for gens in ideals
    ]
    manifest = [
        {"multiplicity": nu + 1, "locally_cm": True, "type_i": True}
        for _ in structures
    ]
    return Family("primitive", {"nu": nu, "n": n, "char": char}, structures, manifest)


def _koszul_binomials(ring, F, x, y, n):
    return [F[j] * x ** (n - i) * y ** i - F[i] * x ** (n - j) * y ** j
            for i, j in combinations(range(n + 1), 2)]


def _koszul(n=2, extend=False, char=0, guard=None):
    """Thickenings of the (n-1)-st infinitesimal neighbourhood of a
    codimension-two linear space by the Koszul relations of n + 1 linear
    forms; ``extend`` adds an extra ambient coordinate on which the forms
    acquire a common zero, breaking local Cohen-Macaulayness there."""
    if n < 2:
        raise ValueError("n must be at least 2")
    nz = n + 2 if extend else n + 1
    names = tuple("z%d" % i for i in range(nz)) + ("x", "y")
    ring = PolyRing(names, char=char)
    x, y = ring.var("x"), ring.var("y")
    F = [ring.var("z%d" % i) for i in range(n + 1)]
    if not extend:
        _require_no_common_zero(ring, F, "F_i", guard)
    gens = _koszul_binomials(ring, F, x, y, n) + ring.monomials(n + 1, ("x", "y"))
    emb = Embedding(ring, ("x", "y"), guard)
    structure = MultiStructure(emb, gens)
    mult = n * (n + 1) // 2 + 1
    entry = {"multiplicity": mult, "locally_cm": not extend}
    if not extend:
        # Hilb = sum_{i<n} (i+1)*Hilb(O_X(-i)) + Hilb(O_X(-(n-1)))
        entry["hilb"] = sum((twisted_free_hilbert(n, -i, i + 1) for i in range(n)),
                            twisted_free_hilbert(n, -(n - 1), 1))
    else:
        entry["non_cm_locus"] = ["z%d" % i for i in range(n + 1)] + ["x", "y"]
    return Family(
        "koszul", {"n": n, "extend": extend, "char": char}, [structure], [entry]
    )


def _nystruktur(char=0, guard=None):
    """The multiplicity-five structure on a plane support built from a
    rank-two bundle that is not an extension of line bundles; it has no
    intermediate Cohen-Macaulay multiplicity-four structure."""
    ring = PolyRing(("z0", "z1", "z2", "x", "y"), char=char)
    x, y = ring.var("x"), ring.var("y")
    P = [ring.var("z0"), ring.var("z1"), ring.var("z2")]
    _require_no_common_zero(ring, P, "P_i", guard)
    gens = [P[0] * x * x + P[1] * x * y + P[2] * y * y] + ring.monomials(3, ("x", "y"))
    emb = Embedding(ring, ("x", "y"), guard)
    structure = MultiStructure(emb, gens)
    manifest = [
        {
            "multiplicity": 5,
            "locally_cm": True,
            "filtration_multiplicities": [1, 3, 5],
            "layer_ranks": [2, 2],
        }
    ]
    return Family("nystruktur", {"char": char}, [structure], manifest)


def _bundle(char=0, guard=None):
    """The degree-three structure on a plane support associated to a
    rank-two quotient bundle of the conormal module: one cubic relation
    among the support variables plus their squares."""
    ring = PolyRing(("z0", "z1", "z2", "x1", "x2", "x3"), char=char)
    f = [ring.var("z0"), ring.var("z1"), ring.var("z2")]
    xv = [ring.var("x1"), ring.var("x2"), ring.var("x3")]
    _require_no_common_zero(ring, f, "f_i", guard)
    linear = f[0] * xv[0] + f[1] * xv[1] + f[2] * xv[2]
    gens = [linear] + ring.monomials(2, ("x1", "x2", "x3"))
    emb = Embedding(ring, ("x1", "x2", "x3"), guard)
    structure = MultiStructure(emb, gens)
    manifest = [
        {"multiplicity": 3, "locally_cm": True, "layer_ranks": [2]}
    ]
    return Family("bundle", {"char": char}, [structure], manifest)


def _split(n=2, a=0, b=0, char=0, guard=None):
    """The split-bundle triple structure on a linear P^n: one block of
    binomial relations per line-bundle summand plus the squares of all
    normal variables.  Returns the structure and its two Cohen-Macaulay
    double substructures (one per summand)."""
    if a < 0 or b < 0:
        raise ValueError("twists a, b must be non-negative")
    z_names = tuple("z%d" % i for i in range(n + 1))
    # one normal variable per z-monomial of the summand's degree
    x_names = tuple("x%d" % i for i in range(comb(n + a + 1, n)))
    w_names = tuple("w%d" % i for i in range(comb(n + b + 1, n)))
    ring = PolyRing(z_names + x_names + w_names, char=char)
    rels_a = _split_block(ring, z_names, a + 1, x_names)
    rels_b = _split_block(ring, z_names, b + 1, w_names)
    support = x_names + w_names
    squares = ring.monomials(2, support)
    emb = Embedding(ring, support, guard)
    triple = MultiStructure(emb, rels_a + rels_b + squares)
    # Cohen-Macaulay double substructures, one per summand
    double_a = MultiStructure(emb, rels_a + ring.monomials(1, w_names) + ring.monomials(2, x_names))
    double_b = MultiStructure(emb, rels_b + ring.monomials(1, x_names) + ring.monomials(2, w_names))
    hilb3 = (
        twisted_free_hilbert(n, 0, 1)
        + twisted_free_hilbert(n, a, 1)
        + twisted_free_hilbert(n, b, 1)
    )
    manifest = [
        {"multiplicity": 3, "locally_cm": True, "hilb": hilb3},
        {
            "multiplicity": 2,
            "locally_cm": True,
            "hilb": twisted_free_hilbert(n, 0, 1) + twisted_free_hilbert(n, a, 1),
        },
        {
            "multiplicity": 2,
            "locally_cm": True,
            "hilb": twisted_free_hilbert(n, 0, 1) + twisted_free_hilbert(n, b, 1),
        },
    ]
    return Family(
        "split",
        {"n": n, "a": a, "b": b, "char": char},
        [triple, double_a, double_b],
        manifest,
    )


def _split_block(ring, z_names, d, names):
    """One summand's binomials x_t1*z^t2 - x_t3*z^t4 over the z-exponents t
    of degree d, the names following them in ascending lex order: t1 before
    t3 and t4 = t1 + t2 - t3 one of them, so each binomial comes once, where
    a loop over t1, t2, t3 first meets it."""
    tuples = ring.exponents(d, z_names)[::-1]
    var = dict(zip(tuples, map(ring.var, names)))
    z = {t: ring.poly({t: 1}) for t in tuples}
    return [var[t1] * z[t2] - var[t3] * z[t4]
            for i, t1 in enumerate(tuples) for t2 in tuples for t3 in tuples[i + 1:]
            if (t4 := tuple(map(sub, map(add, t1, t2), t3))) in var]


def _ci_subsets(c=2, char=0, guard=None):
    """For a codimension-c complete-intersection support: one structure in
    the first infinitesimal neighbourhood per subset S of the cutting
    polynomials, of multiplicity |S| + 1, nested exactly as the subsets."""
    if c != 2:
        raise ValueError("only the codimension-two instantiation is built")
    ring = PolyRing(("z0", "z1", "z2", "x", "y"), char=char)
    F = [ring.var("x"), ring.var("y")]
    emb = Embedding(ring, ("x", "y"), guard)
    squares = ring.monomials(2, ("x", "y"))
    subsets = [(), (0,), (1,), (0, 1)]
    structures = []
    manifest = []
    for S in subsets:
        extra = [F[i] for i in range(c) if i not in S]
        structures.append(
            MultiStructure(emb, extra + squares)
        )
        manifest.append(
            {"subset": list(S), "multiplicity": len(S) + 1, "locally_cm": True}
        )
    return Family("ci_subsets", {"c": c, "char": char}, structures, manifest)


def _nontype1(a=1, b=1, char=0, guard=None):
    """Codimension-two structures of multiplicity ab + 2 whose filtration
    passes through a scheme that is S1 but not Cohen-Macaulay.

    The support is the codimension-two linear space V(x, y) in P^4; the
    auxiliary forms are chosen in the unique degrees that make every listed
    generator homogeneous.
    """
    if a > b:
        a, b = b, a
    if a < 1:
        raise ValueError("exponents must be positive")
    ring = PolyRing(("z0", "z1", "z2", "x", "y"), char=char)
    z0, z1, z2 = ring.var("z0"), ring.var("z1"), ring.var("z2")
    P, Q = ring.var("x"), ring.var("y")
    if a == 1 and b == 1:
        f, g, l = z0, z1, z2 * z2
        w = f * P + g * Q
        gens = [
            g * g * w - l * P * P,
            f * g * w + l * P * Q,
            f * f * w - l * Q * Q,
            P * w,
            Q * w,
            P ** 3,
            P * P * Q,
            P * Q * Q,
            Q ** 3,
        ]
    elif a == 1:
        c = b + 1
        f, g, l = z0 ** (c - 1), z1 ** (c - b), z2 ** (c - 1)
        w = f * P + g * Q ** b
        gens = [
            g * w - l * P * Q,
            f * w + l * Q ** (b + 1),
            Q * w,
            P * P,
            P * Q * Q,
            Q ** (b + 2),
        ]
    else:
        c = max(a, b) + 1
        f, g = z0 ** (c - a), z1 ** (c - b)
        l, r, s = z2 ** (c - a), ring.one(), ring.one()
        w = f * P ** a + g * Q ** b
        gens = [
            r * g * w - l * P ** (a + 1),
            r * f * w + l * P * Q ** b,
            s * g * w - l * P ** a * Q,
            s * f * w + l * Q ** (b + 1),
            s * P ** (a + 1) - r * P ** a * Q,
            s * P * Q ** b - r * Q ** (b + 1),
            P * w,
            Q * w,
            P ** (a + 2),
            P * P * Q ** b,
            P ** (a + 1) * Q,
            P * Q ** (b + 1),
            P ** a * Q * Q,
            Q ** (b + 2),
        ]
    for gpoly in gens:
        if not gpoly.is_homogeneous():
            raise StructureError("inhomogeneous family generator %s" % gpoly)
    emb = Embedding(ring, ("x", "y"), guard)
    structure = MultiStructure(emb, gens)
    manifest = [
        {
            "multiplicity": a * b + 2,
            "locally_cm": True,
            "type_i": False,
            "non_cm_term_locus": ["z0", "z1", "x", "y"],
        }
    ]
    return Family(
        "nontypeI", {"a": a, "b": b, "char": char}, [structure], manifest
    )
