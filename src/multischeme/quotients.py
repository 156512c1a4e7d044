"""Search for surjections from a presented module onto line bundles.

For each twist d, the maps M -> O(d) with zero composite against the
relation matrix form a finite-dimensional solution space computed by exact
linear algebra degree by degree.  A candidate map is onto exactly when its
entries have no common projective zero (``is_irrelevant_primary`` of their
ideal, built with the module's guard).  When no surjection is found the
verdict explains why:

* EXACT-NONE      -- the solution space is zero;
* CERTIFIED-NONE  -- every map in the space provably drops rank at a point
                     (projective dimension theorem, or the singular-matrix
                     certificate for a square system of linear forms);
* SAMPLED-NONE    -- basis vectors plus seeded random combinations were all
                     non-surjective, with no certificate available.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import Ideal, is_irrelevant_primary
from .modules import determinant
from .ring import PolyRing, Vec, add_terms, nullspace


class _LCG:
    """Deterministic linear congruential draw for sampling coefficients."""

    def __init__(self, seed):
        self.state = (seed * 2654435761 + 1) % (1 << 32)

    def next(self):
        self.state = (1664525 * self.state + 1013904223) % (1 << 32)
        return self.state

    def coeff(self):
        return (self.next() >> 16) % 7 - 3


@dataclass
class TwistVerdict:
    twist: int
    dim: int
    basis: list          # list of maps; each map is a list of polynomials
    verdict: str         # SURJECTION | EXACT-NONE | CERTIFIED-NONE | SAMPLED-NONE
    witness: list = None # surjective row when verdict == SURJECTION
    certificate: dict = None
    samples_tested: int = 0

    def to_json(self):
        return {
            "twist": self.twist,
            "dim": self.dim,
            "basis": [[str(f) for f in row] for row in self.basis],
            "verdict": self.verdict,
            "witness": None if self.witness is None else [str(f) for f in self.witness],
            "certificate": self.certificate,
            "samples_tested": self.samples_tested,
        }


def solution_space(module, twist):
    """Basis of maps M -> O(twist): rows (l_1..l_g) with row . relations = 0."""
    ring = module.ring
    degs = [gd + twist for gd in module.gen_degrees]
    monos = [[ring.key(e) for e in ring.exponents(d)] for d in degs]
    index = {}
    for i, keys in enumerate(monos):
        for k in keys:
            index[(i, k)] = len(index)
    if not index:
        return []
    ncols = len(index)
    rows = []
    # one equation per monomial of each relation column's image; keys add
    # to the product's key plus a constant, so k + km names the product
    for rel in module.relations:
        eqs = {}
        for i, f in rel.components().items():
            for km, cm in f.terms.items():
                for k in monos[i]:
                    eqs.setdefault(k + km, [0] * ncols)[index[(i, k)]] += cm
        rows.extend(eqs.values())
    basis = nullspace(ring.field, rows, ncols)
    return [
        [Vec(ring, None, add_terms({}, ((k, v[index[(i, k)]]) for k in keys), ring.char))
         for i, keys in enumerate(monos)]
        for v in basis
    ]


def _certificate(module, basis, degs):
    """Try to certify that no combination of the basis maps is surjective."""
    ring = module.ring
    support = sorted(
        {i for row in basis for i, f in enumerate(row) if not f.is_zero()}
    )
    if not support:
        return None
    if any(degs[i] <= 0 for i in support):
        return None
    m = ring.nvars
    if len(support) < m:
        return {
            "kind": "dimension",
            "detail": "%d positive-degree forms in %d variables always share a "
            "projective zero" % (len(support), m),
        }
    if len(support) == m and all(degs[i] == 1 for i in support):
        # square system of linear forms: check the coefficient matrix of the
        # generic combination is identically singular
        # in a ring of the coefficient variables a0, a1, ... alone
        sym = PolyRing(["a%d" % k for k in range(len(basis))], ring.char)
        linear = [ring.key(e) for e in ring.exponents(1)]  # x_0, x_1, ...
        rows = []
        for i in support:
            entries = []
            for kx in linear:
                coeff = sym.zero()
                for k, row in enumerate(basis):
                    c = row[i].terms.get(kx)
                    if c:
                        coeff = coeff + sym.var(sym.names[k]).scale(c)
                entries.append(coeff)
            rows.append(entries)
        det = determinant(rows)
        if det.is_zero():
            return {
                "kind": "singular-matrix",
                "detail": "generic %dx%d coefficient matrix of linear forms is "
                "identically singular; its kernel is a common zero" % (m, m),
            }
    return None


def line_bundle_quotients(module, twist_range, samples=100, seed=0):
    """Scan twists for surjections M -> O(d); see module docstring."""
    lo, hi = twist_range
    ring, guard = module.ring, module.guard
    out = []
    rng = _LCG(seed)
    for d in range(lo, hi + 1):
        degs = [gd + d for gd in module.gen_degrees]
        basis = solution_space(module, d)
        if not basis:
            out.append(TwistVerdict(d, 0, [], "EXACT-NONE"))
            continue
        witness = None
        for row in basis:
            if is_irrelevant_primary(Ideal(ring, row, guard)):
                witness = row
                break
        tested = 0
        if witness is None:
            cert = _certificate(module, basis, degs)
            if cert is not None:
                out.append(
                    TwistVerdict(d, len(basis), basis, "CERTIFIED-NONE", certificate=cert)
                )
                continue
            seen = set()
            attempts = 0
            max_distinct = 7 ** len(basis) - 1
            while tested < samples and attempts < 50 * samples:
                attempts += 1
                coeffs = tuple(rng.coeff() for _ in basis)
                if coeffs in seen or not any(coeffs):
                    if len(seen) >= max_distinct:
                        break
                    continue
                seen.add(coeffs)
                # one dict per entry, summed inline (add_terms calls slowed the scan 10%)
                acc = [{} for _ in range(module.rank)]
                for c, b in zip(coeffs, basis):
                    if c:
                        for terms, f in zip(acc, b):
                            for k, v in f.terms.items():
                                terms[k] = terms.get(k, 0) + v * c
                row = [Vec(ring, None, add_terms({}, terms.items(), ring.char)) for terms in acc]
                tested += 1
                if is_irrelevant_primary(Ideal(ring, row, guard)):
                    witness = row
                    break
        verdict = "SAMPLED-NONE" if witness is None else "SURJECTION"
        out.append(
            TwistVerdict(d, len(basis), basis, verdict, witness=witness, samples_tested=tested)
        )
    return out
