"""Hilbert series, Hilbert polynomials, and the P-basis.

The series of R/I comes from the lead-term ideal, minimalized once: Bigatti's
pivot recursion (JPAA 119, 1997) keeps its generators minimal, minimalizing
only colons, down to pure powers, whose numerator is the product of the
(1 - t^|g|).  Hilbert polynomials are in the basis P_i(t) = binom(t + i, i),
with generating function 1/(1-t)^(i+1).  A series q(t)/(1-t)^n gives its
polynomial by integer division on a dense coefficient list: q(1) is the
coefficient of P_(n-1), and q' = (q - q(1))/(1-t), the running sums of
q - q(1), recurses over (1-t)^(n-1) (Bruns-Herzog, Cohen-Macaulay Rings,
4.1).  Twisted free modules, Euler sums and dense input become series first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import le

from .groebner import buchberger
from .ring import add_terms, scale_terms


# ---------------------------------------------------------------------------
# numerator of the Hilbert series of a monomial quotient


def _minimalize(gens):
    """The distinct exponent tuples of ``gens`` that no other one divides."""
    out = []
    for m in sorted(set(gens), key=sum):
        if not any(all(map(le, g, m)) for g in out):
            out.append(m)
    return out


def monomial_numerator(gens, nvars):
    """Numerator of Hilb(R/(gens)) over (1-t)^nvars, as {degree: int}."""
    return {d: c for d, c in enumerate(_numerator(_minimalize(map(tuple, gens)))) if c}


def _numerator(gens):
    """Dense numerator of R/(gens) for minimal generators, by Bigatti's pivot
    recursion N(I) = N(I + (p)) + t^deg(p) N(I : p)."""
    mixed = [g for g in gens if len(g) - g.count(0) > 1]
    if not mixed:  # minimal pure powers (or 1) are coprime: the product of (1 - t^|g|)
        out = [1]
        for d in map(sum, gens):
            out += [0] * d
            for k in range(len(out) - 1, d - 1, -1):
                out[k] -= out[k - d]
        return out
    # p = x_i^e: x_i the variable of most mixed generators, e their median exponent
    counts = [len(col) - col.count(0) for col in zip(*mixed)]
    i = counts.index(max(counts))
    e = sorted(g[i] for g in mixed if g[i])[(counts[i] - 1) // 2]
    # every pure power of x_i among the minimal gens is above e, so I + (p) is
    # minimal as it stands; only the colon needs minimalizing
    plus = [g for g in gens if g[i] < e] + [(0,) * i + (e,) + (0,) * (len(counts) - i - 1)]
    colon = _minimalize([g[:i] + (max(g[i] - e, 0),) + g[i + 1:] if g[i] else g for g in gens])
    out, right = _numerator(plus), _numerator(colon)
    out += [0] * (len(right) + e - len(out))
    for k, c in enumerate(right, e):
        out[k] += c
    return out


@dataclass(frozen=True)
class HilbertSeries:
    """numerator / (1-t)^nvars; numerator maps degree -> int coefficient."""

    numerator: tuple  # sorted tuple of (degree, coeff)
    nvars: int

    @classmethod
    def make(cls, numer, nvars):
        return cls(tuple(sorted((k, v) for k, v in numer.items() if v)), nvars)

    def reduced(self):
        """(numerator with all (1-t) factors cancelled, remaining pole order)."""
        numer, pole = self.numerator, self.nvars
        lo, hi = (numer[0][0], numer[-1][0]) if numer else (0, -1)
        dense = self._dense(lo, hi)
        while dense and not sum(dense):  # p(1) = 0: p/(1-t) is made of p's partial sums
            dense = list(accumulate(dense))[:-1]
            pole -= 1
        return {d: c for d, c in enumerate(dense, lo) if c}, pole

    def _dense(self, lo, hi):
        """The numerator's coefficients at degrees lo..hi, which hold its support."""
        dense = [0] * (hi - lo + 1)
        for d, c in self.numerator:
            dense[d - lo] = c
        return dense

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
        numer = self.numerator
        lo, top = (min(numer[0][0], 0), numer[-1][0]) if numer else (0, 0)
        dense = self._dense(lo, max(top, 0))
        coeffs = {}
        for i in reversed(range(self.nvars)):
            # q = q(1) + (1-t) q': q(1) is the P_i coefficient, recurse on q'
            coeffs[i] = sum(dense)
            dense[-lo] -= coeffs[i]
            dense = list(accumulate(dense))
        hp = HilbertPoly.make(coeffs)
        start = max(top - self.nvars + 1, 0)
        for t in range(start, start + 5):
            if hp(t) != self.value(t):
                raise ArithmeticError("Hilbert polynomial disagrees with series at t=%d" % t)
        return hp

    def __sub__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("difference of series with poles of order %d and %d"
                             % (self.nvars, other.nvars))
        numer = add_terms(dict(self.numerator), other.numerator, 0, -1)
        return HilbertSeries.make(numer, self.nvars)


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
    return basis_hilbert_series(module, buchberger(module.relations, guard=module.guard))


def basis_hilbert_series(module, basis):
    """Series of coker(F1 -> F0) from the leads of a Groebner basis of its relations."""
    by_comp = {}
    for g in basis:
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
        terms = ("%sP_%d" % ({1: "", -1: "-"}.get(c, "%d*" % c), i)
                 for i, c in sorted(self.coeffs, reverse=True))
        return " + ".join(terms).replace(" + -", " - ") or "0"

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

