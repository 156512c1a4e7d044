"""Hilbert series, Hilbert polynomials, and the P-basis.

The series of R/I is computed from the lead-term ideal by pivot recursion on
monomial generators.  Hilbert polynomials are written in the basis
P_i(t) = binom(t + i, i), whose generating function is 1/(1-t)^(i+1).  Every
polynomial comes from a series q(t)/(1-t)^n by integer division: write
q = q(1) + (1-t)*q', take q(1) as the coefficient of P_(n-1) and recurse on
q'/(1-t)^(n-1) (Bruns-Herzog, Cohen-Macaulay Rings, 4.1).  Twisted free
modules, Euler sums and dense input are turned into series first.  Numerators
and P-basis coefficients are added and scaled by ``ring``'s term kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .groebner import buchberger
from .ring import add_terms, scale_terms


# ---------------------------------------------------------------------------
# numerator of the Hilbert series of a monomial quotient


def _minimalize(gens):
    out = []
    for m in sorted(gens, key=sum):
        if not any(all(a <= b for a, b in zip(g, m)) for g in out):
            out.append(m)
    return out


def monomial_numerator(gens, nvars):
    """Numerator of Hilb(R/(gens)) over (1-t)^nvars, as {degree: int}."""
    gens = _minimalize([tuple(g) for g in gens])
    return _numerator(tuple(sorted(gens)), nvars)


def _numerator(gens, nvars):
    if not gens:
        return {0: 1}
    if any(sum(g) == 0 for g in gens):
        return {}
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
    if all(
        supports[a].isdisjoint(supports[b])
        for a in range(len(gens))
        for b in range(a + 1, len(gens))
    ):
        # pairwise coprime generators form a regular sequence
        out = {0: 1}
        for g in gens:  # out * (1 - t^|g|)
            add_terms(out, [(k + sum(g), v) for k, v in out.items()], 0, -1)
        return out
    nontrivial = [g for g in gens if sum(1 for e in g if e) > 1]
    counts = [0] * nvars
    for g in nontrivial:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    piv = max(range(nvars), key=lambda i: counts[i])
    pvec = tuple(1 if i == piv else 0 for i in range(nvars))
    plus = _minimalize(list(gens) + [pvec])
    quot = _minimalize([tuple(max(e - p, 0) for e, p in zip(g, pvec)) for g in gens])
    left = _numerator(tuple(sorted(plus)), nvars)
    right = _numerator(tuple(sorted(quot)), nvars)
    return add_terms(left, ((k + 1, v) for k, v in right.items()), 0)


@dataclass(frozen=True)
class HilbertSeries:
    """numerator / (1-t)^nvars; numerator maps degree -> int coefficient."""

    numerator: tuple  # sorted tuple of (degree, coeff)
    nvars: int

    @classmethod
    def make(cls, numer, nvars):
        return cls(tuple(sorted((k, v) for k, v in numer.items() if v)), nvars)

    def numer_dict(self):
        return dict(self.numerator)

    def reduced(self):
        """(numerator with all (1-t) factors cancelled, remaining pole order)."""
        numer = self.numer_dict()
        pole = self.nvars
        while numer and sum(numer.values()) == 0:
            numer = _divide_by_one_minus_t(numer)
            pole -= 1
        return numer, pole

    def dimension_degree(self):
        """(projective dimension of the zero set, degree).  Empty set: (-1, 0)."""
        numer, pole = self.reduced()
        if not numer:
            return (-1, 0)
        return (pole - 1, sum(numer.values()))

    def value(self, t):
        """Exact dimension of the degree-t graded piece."""
        n = self.nvars
        return sum(c * comb(t - i + n - 1, n - 1) for i, c in self.numerator if t - i >= 0)

    def polynomial(self):
        """Hilbert polynomial in the P-basis, by repeated division by (1-t).

        Cross-checked against the exact dimension count at five consecutive
        degrees from the agreement bound on.
        """
        numer = self.numer_dict()
        start = max(max(numer, default=0) - self.nvars + 1, 0)
        coeffs = {}
        for i in reversed(range(self.nvars)):
            coeffs[i] = sum(numer.values())
            numer = _divide_by_one_minus_t(add_terms(numer, [(0, coeffs[i])], 0, -1))
        hp = HilbertPoly.make(coeffs)
        for t in range(start, start + 5):
            if hp(t) != self.value(t):
                raise ArithmeticError("Hilbert polynomial disagrees with series at t=%d" % t)
        return hp

    def __sub__(self, other):
        assert self.nvars == other.nvars
        return HilbertSeries.make(add_terms(self.numer_dict(), other.numerator, 0, -1), self.nvars)


def _divide_by_one_minus_t(numer):
    # divide a Laurent polynomial with p(1) = 0 by (1 - t)
    out = {}
    acc = 0
    for d in range(min(numer, default=0), max(numer, default=-1) + 1):
        acc += numer.get(d, 0)
        if acc:
            out[d] = acc
    # p(t) = (1-t) q(t) with q as accumulated partial sums
    return out


def hilbert_series_of_leads(lead_exps_by_comp, gen_degrees, nvars):
    """Series of F/N from the lead-term module, componentwise."""
    total = {}
    for comp, d in enumerate(gen_degrees):
        numer = monomial_numerator(lead_exps_by_comp.get(comp, []), nvars)
        add_terms(total, ((k + d, v) for k, v in numer.items()), 0)
    return HilbertSeries.make(total, nvars)


def ideal_hilbert_series(ring, leads):
    """Series of R/I from the lead exponents of any Groebner basis of I, for
    a homogeneous I: it depends only on in(I) (Macaulay; Bayer-Stillman,
    JSC 14, 1992)."""
    return hilbert_series_of_leads({0: leads}, (0,), ring.nvars)


def module_hilbert_series(module):
    """Series of a GradedModule presentation coker(F1 -> F0), under its guard."""
    by_comp = {}
    for g in buchberger(module.relations, guard=module.guard):
        (j, e), _ = g.lead()
        by_comp.setdefault(j, []).append(e)
    return hilbert_series_of_leads(by_comp, module.gen_degrees, module.ring.nvars)


# ---------------------------------------------------------------------------
# Hilbert polynomials in the P-basis


@dataclass(frozen=True)
class HilbertPoly:
    """An integer combination of P_i(t) = binom(t + i, i)."""

    coeffs: tuple  # sorted tuple of (i, integer coefficient)

    @classmethod
    def make(cls, mapping):
        return cls(tuple(sorted((i, int(c)) for i, c in mapping.items() if c)))

    @classmethod
    def zero(cls):
        return cls(())

    def as_dict(self):
        return dict(self.coeffs)

    def degree(self):
        return max((i for i, _ in self.coeffs), default=-1)

    def __call__(self, t):
        return sum(c * comb(t + i, i) for i, c in self.coeffs)

    def __add__(self, other):
        return HilbertPoly.make(add_terms(self.as_dict(), other.coeffs, 0))

    def __sub__(self, other):
        return HilbertPoly.make(add_terms(self.as_dict(), other.coeffs, 0, -1))

    def scale(self, k):
        return HilbertPoly.make(scale_terms(self.as_dict(), k, 0))

    def lead_degree_term(self):
        """(degree, coefficient) of the top P term; (-1, 0) if zero."""
        if not self.coeffs:
            return (-1, 0)
        i = self.degree()
        return (i, self.as_dict()[i])

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for i, c in sorted(self.coeffs, reverse=True):
            mag = abs(c)
            body = "P_%d" % i if mag == 1 else "%d*P_%d" % (mag, i)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += " %s %s" % (sign, body)
        return out

    __repr__ = __str__


def dense_to_p_basis(dense):
    """Convert dense coefficients [c_0, c_1*t, ...] to the P-basis.

    Raises ValueError when the polynomial is not an integer combination of
    the P_i, i.e. not integer-valued (the P_i are a Z-basis of those).
    """
    n = len(dense)
    values = [sum(Fraction(c) * t**k for k, c in enumerate(dense)) for t in range(n)]
    if any(v.denominator != 1 for v in values):
        raise ValueError("not an integer combination of the P basis")
    # sum_t p(t) s^t = q(s)/(1-s)^n with q the first n terms of (1-s)^n sum_t p(t) s^t
    numer = {
        d: sum((-1) ** j * comb(n, j) * int(values[d - j]) for j in range(d + 1))
        for d in range(n)
    }
    return HilbertSeries.make(numer, n).polynomial()


def twisted_free_hilbert(n, twist, rank=1):
    """Hilbert polynomial of O(twist)^rank on P^n, i.e. rank * P_n(t + twist)."""
    return HilbertSeries.make({-twist: rank}, n + 1).polynomial()


def euler_characteristic(n, terms):
    """Alternating Hilbert sum of a resolution; terms = [[(twist, rank), ...]].

    terms[i] lists the twisted free summands of the i-th module; signs
    alternate starting with + for i = 0.
    """
    numer = {}
    for i, summands in enumerate(terms):
        sign = 1 if i % 2 == 0 else -1
        for twist, rank in summands:
            add_terms(numer, [(-twist, sign * rank)], 0)
    return HilbertSeries.make(numer, n + 1).polynomial()


# ---------------------------------------------------------------------------
# the degree-3 reduced-scheme Hilbert polynomial catalog


def degree3_catalog(n):
    """Known Hilbert polynomials of reduced connected degree-3 schemes of
    dimension n: plane-cubic-style forms plus (when n = 4) the nine
    quadric-plus-plane union polynomials."""
    P = lambda m: HilbertPoly.make({m: 1})
    entries = {}
    if n >= 2:
        entries["cubic-hypersurface-in-P%d" % (n + 1)] = (
            P(n).scale(3) - P(n - 1).scale(3) + P(n - 2)
        )
    if n == 3:
        entries["cubic-surface-form"] = P(3).scale(3) - P(2).scale(2)
    if n == 2:
        entries["cubic-curve-form"] = P(2).scale(3) - P(1).scale(2)
    if n == 1:
        entries["twisted-cubic"] = P(1).scale(3) - P(0).scale(2)
    entries["degenerate-triple-P%d" % n] = P(n).scale(3) - P(n - 1).scale(2)
    if n == 4:
        quad_union = [
            ("3P_4-P_3", {4: 3, 3: -1}),
            ("3P_4-P_3-P_0", {4: 3, 3: -1, 0: -1}),
            ("3P_4-P_3-2P_0", {4: 3, 3: -1, 0: -2}),
            ("3P_4-P_3-P_1", {4: 3, 3: -1, 1: -1}),
            ("3P_4-P_3-2P_1+P_0", {4: 3, 3: -1, 1: -2, 0: 1}),
            ("3P_4-P_3-P_2", {4: 3, 3: -1, 2: -1}),
            ("3P_4-P_3-2P_2+P_1", {4: 3, 3: -1, 2: -2, 1: 1}),
            ("3P_4-2P_3", {4: 3, 3: -2}),
            ("3P_4-3P_3+P_2", {4: 3, 3: -3, 2: 1}),
        ]
        for name, coeffs in quad_union:
            entries["quadric-union-%s" % name] = HilbertPoly.make(coeffs)
    return entries


def reduced_degree3_membership(p, n):
    """(verdict, matched entry name) for the degree-3 reduced catalog.

    Requires deg p = n with leading P-coefficient 3.  A polynomial passes if
    it matches a catalog entry, or if its second coefficient is -a for
    a in {0, 1, 2, 3} (the three-linear-spaces constraint).
    """
    lead_deg, lead_coeff = p.lead_degree_term()
    if lead_deg != n or lead_coeff != 3:
        raise ValueError("expected leading term 3*P_%d, got %s" % (n, p))
    for name, q in degree3_catalog(n).items():
        if p == q:
            return True, name
    a = -p.as_dict().get(n - 1, 0)
    if a in (0, 1, 2, 3):
        return True, "three-linear-spaces-a=%d" % a
    return False, None

