"""Independent oracles and random generators shared by the test modules.

Everything here is deliberately naive: enumeration instead of closed forms,
term-by-term expansion instead of library calls, so the production routes
are checked against genuinely independent computations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

from jacrel.rings import QQ, DensePoly, LaurentSeries


def set_partitions(collection):
    """Generate all partitions of a list into non-empty blocks."""
    if not collection:
        yield []
        return
    rest, last = collection[:-1], collection[-1]
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [last]] + smaller[i + 1:]
        yield smaller + [[last]]


def stirling_by_enumeration(n: int, m: int) -> int:
    """Count partitions of an n-set into exactly m non-empty blocks."""
    if n == 0:
        return 1 if m == 0 else 0
    return sum(1 for p in set_partitions(list(range(n))) if len(p) == m)


def stirling_row_by_enumeration(n: int) -> dict[int, int]:
    """Counts of all block sizes from one pass over the set partitions."""
    row: dict[int, int] = {}
    if n == 0:
        return {0: 1}
    for p in set_partitions(list(range(n))):
        row[len(p)] = row.get(len(p), 0) + 1
    return row


def exp_poly_coeffs(scale: int, order: int) -> list[Fraction]:
    """Coefficients of e^(scale*t) as a t-polynomial, expanded term by term."""
    out = []
    power = Fraction(1)
    fact = 1
    for i in range(order):
        out.append(power / fact)
        power *= scale
        fact *= i + 1
    return out


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-60, 60), rng.randint(1, 24))


def rand_poly(rng: random.Random, max_deg: int = 5) -> DensePoly:
    coeffs = [rand_fraction(rng) for _ in range(rng.randint(0, max_deg + 1))]
    return DensePoly(QQ, coeffs)


def rand_laurent(rng: random.Random, min_val: int = -3) -> LaurentSeries:
    val = rng.randint(min_val, 3)
    length = rng.randint(0, 5)
    coeffs = [rand_fraction(rng) for _ in range(length)]
    trunc = val + length + rng.randint(0, 3)
    return LaurentSeries(QQ, val, coeffs, trunc)


def rand_taut(rng: random.Random, g: int):
    from jacrel.tautalg import TautElement
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(sorted((rng.randint(0, g - 1)
                             for _ in range(rng.randint(0, 3))), reverse=True))
        terms[mono] = terms.get(mono, Fraction(0)) + rand_fraction(rng)
    return TautElement(g, terms)


def rand_homogeneous_taut(rng: random.Random, g: int, size: int, weight: int):
    from jacrel.relations import monomials_of_bidegree
    from jacrel.tautalg import TautElement
    basis = monomials_of_bidegree(g, size, weight)
    if not basis:
        return TautElement.zero(g)
    terms = {m: rand_fraction(rng) for m in rng.sample(basis, min(len(basis), 3))}
    return TautElement(g, terms)


def divide_by_one_plus_u(p):
    """Exact synthetic division of a BivarPoly by (1+u); a remainder is an error."""
    from jacrel.rings import InvariantViolation
    from jacrel.tautalg import BivarPoly
    cols = {}
    for (ue, te), elt in p.terms.items():
        cols.setdefault(ue, {})[te] = elt
    quotient = {}
    carry = {}
    for ue in range(p.u_degree, 0, -1):
        merged = dict(carry)
        for te, elt in cols.get(ue, {}).items():
            merged[te] = merged[te] + elt if te in merged else elt
        carry = {}
        for te, elt in merged.items():
            if not elt.is_zero:
                quotient[(ue - 1, te)] = elt
                carry[te] = -elt
    remainder = dict(carry)
    for te, elt in cols.get(0, {}).items():
        remainder[te] = remainder[te] + elt if te in remainder else elt
    for te, elt in remainder.items():
        if not elt.is_zero:
            raise InvariantViolation(
                f"division by (1+u) left a remainder at t^{te}: {elt}")
    return BivarPoly(p.g, quotient, p.t_trunc)


@lru_cache(maxsize=None)
def _expanded_power(kind: str, g: int, s: int):
    from jacrel.tautalg import build_g_poly, build_h_poly, poly_power
    return poly_power(build_g_poly(g) if kind == "G" else build_h_poly(g), s)


def family_by_powers(family_id: str, g: int, d: int, r: int):
    """The relation family read off the expanded powers G(t)^s and H(u,t)^s.

    This is the reference route for ``gen_family``: it multiplies out every
    power as a polynomial with algebra coefficients instead of using the
    per-monomial closed forms.  Returns the items as (s, t_exp, u_exp, element).
    """
    items = []
    for s in range(1, r + 1):
        bound = d - r + s
        if family_id == "vdgk6":
            power = _expanded_power("G", g, s)
            for n in range(max(2 * s, bound + 1), s * (g + 1) + 1):
                element = power.coeff(0, n)
                if not element.is_zero:
                    items.append((s, n, None, element))
            continue
        power = _expanded_power("H", g, s)
        if family_id == "strong8":
            items.extend((s, te, ue, element) for ue, te, element in power.items()
                         if ue > bound)
        else:
            quotient = divide_by_one_plus_u(power)
            items.extend((s, te, None, element)
                         for te, element in sorted(quotient.u_slice(bound).items()))
    items.sort(key=lambda it: (it[0], it[1], -1 if it[2] is None else it[2]))
    return items


def _primitive_row(row: list[Fraction]) -> list[int]:
    """A rational row scaled to a primitive integer row; zero stays zero."""
    denom = 1
    for x in row:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in row]
    common = 0
    for x in ints:
        common = gcd(common, x)
    return [x // common for x in ints] if common else ints


def _spaces_by_products(family, i_max: int, j_max: int, ideal: bool) -> dict:
    """Row spaces per cell (i, j), i >= 1, from the coefficient vectors of
    every generator times every monomial of the complementary bidegree (or
    of the bare generators), each product taken in the algebra."""
    from jacrel.linalg import RowSpace
    from jacrel.relations import monomials_of_bidegree
    from jacrel.tautalg import TautElement
    g = family.g
    gens = [(item.element.bidegree(), item.element) for item in family.items
            if not item.element.is_zero]
    spaces = {}
    for i in range(1, i_max + 1):
        for j in range(j_max + 1):
            basis = monomials_of_bidegree(g, i, j)
            if not basis:
                continue
            space = spaces[(i, j)] = RowSpace(len(basis))
            for (s, w), element in gens:
                if not ideal:
                    factors = [()] if (s, w) == (i, j) else []
                else:
                    factors = monomials_of_bidegree(g, i - s, j - w)
                for mono in factors:
                    shifted = element * TautElement.monomial(g, mono)
                    space.add(_primitive_row([shifted.coefficient(m) for m in basis]))
    return spaces


def compare_ideals_by_products(f1, f2, bidegree_bound=None):
    """The reference route for ``compare_ideals``: each row is a product in
    the algebra read off over Fraction by coefficient lookups, and every
    ideal cell takes all generator-times-monomial rows (no recursion)."""
    from jacrel.linalg import rank
    from jacrel.relations import CellComparison, IdealComparison
    i_max, j_max = bidegree_bound or (f1.r, f1.r * (f1.g - 1))
    ideals = [_spaces_by_products(f, i_max, j_max, True) for f in (f1, f2)]
    spans = [_spaces_by_products(f, i_max, j_max, False) for f in (f1, f2)]
    cells = []
    for (i, j), space in ideals[0].items():
        def ranks(pair):
            return tuple(p[(i, j)].rank for p in pair)

        def joint(pair):
            return rank([row for p in pair for row in p[(i, j)].pivots.values()], space.ncols)

        if ranks(ideals) == ranks(spans) == (0, 0):
            continue
        cells.append(CellComparison(i=i, j=j, dim=space.ncols,
                                    ideal_ranks=ranks(ideals), ideal_joint=joint(ideals),
                                    span_ranks=ranks(spans), span_joint=joint(spans)))
    return IdealComparison(family_ids=(f1.family_id, f2.family_id), g=f1.g, d=f1.d,
                           r=f1.r, i_max=i_max, j_max=j_max, cells=tuple(cells))


def span_contains_by_ranks(f_sub, f_sup) -> bool:
    """The reference route for ``span_contains``: an item of f_sub lies in the
    span of f_sup's items of its bidegree when adding it leaves the rank of
    their Fraction coefficient vectors unchanged."""
    from jacrel.linalg import rank
    from jacrel.relations import monomials_of_bidegree
    for item in f_sub.items:
        basis = monomials_of_bidegree(f_sub.g, *item.bidegree)
        rows = [_primitive_row([it.element.coefficient(m) for m in basis])
                for it in f_sup.items if it.bidegree == item.bidegree]
        row = _primitive_row([item.element.coefficient(m) for m in basis])
        if rank(rows + [row], len(basis)) != rank(rows, len(basis)):
            return False
    return True


class XTSeries:
    """Finite sum of t^n times a Laurent series in x with algebra coefficients.

    Parts absent from the map are exactly zero; parts that are present may be
    known only below their own x-truncation order.
    """

    __slots__ = ("ring", "parts", "t_trunc")

    def __init__(self, ring, parts=None, t_trunc=None):
        clean = {}
        for te, series in (parts or {}).items():
            if t_trunc is not None and te >= t_trunc:
                continue
            if series.is_zero and series.trunc is None:
                continue
            clean[te] = series
        self.ring = ring
        self.parts = clean
        self.t_trunc = t_trunc

    @classmethod
    def one(cls, ring, t_trunc=None):
        return cls(ring, {0: LaurentSeries.monomial(ring, 0)}, t_trunc)

    def part(self, t_exp):
        return self.parts.get(t_exp, LaurentSeries.zero(self.ring))

    def __add__(self, other):
        from jacrel.rings import min_trunc
        parts = dict(self.parts)
        for te, series in other.parts.items():
            parts[te] = parts[te] + series if te in parts else series
        return XTSeries(self.ring, parts, min_trunc(self.t_trunc, other.t_trunc))

    def __mul__(self, other):
        from jacrel.rings import min_trunc
        if isinstance(other, XTSeries):
            t_trunc = min_trunc(self.t_trunc, other.t_trunc)
            parts = {}
            for t1, s1 in self.parts.items():
                for t2, s2 in other.parts.items():
                    te = t1 + t2
                    if t_trunc is not None and te >= t_trunc:
                        continue
                    prod = s1 * s2
                    parts[te] = parts[te] + prod if te in parts else prod
            return XTSeries(self.ring, parts, t_trunc)
        return XTSeries(self.ring, {te: s * other for te, s in self.parts.items()},
                        self.t_trunc)

    def __pow__(self, n):
        result = XTSeries.one(self.ring, self.t_trunc)
        for _ in range(n):
            result = result * self
        return result

    def agrees_with(self, other):
        for te in set(self.parts) | set(other.parts):
            if self.t_trunc is not None and te >= self.t_trunc:
                continue
            if other.t_trunc is not None and te >= other.t_trunc:
                continue
            if not self.part(te).agrees_with(other.part(te)):
                return False
        return True


def _lift(series, element, ring):
    """The scalar series times one algebra element, as an algebra-valued series."""
    return LaurentSeries(ring, series.valuation, [element * c for c in series.coeffs],
                         series.trunc)


@lru_cache(maxsize=None)
def _chain_ring(g):
    from jacrel.rings import Ring
    from jacrel.tautalg import TautElement
    return Ring(TautElement.zero(g), TautElement.one(g))


@lru_cache(maxsize=None)
def _bare_log_inv_pow(n, x_order):
    from jacrel.rings import laurent_pow_inv, log1p_series
    return laurent_pow_inv(log1p_series(x_order + n + 1), n, x_order)


@lru_cache(maxsize=None)
def _eps_powers(g, r, x_order, t_order):
    """eps(x,t)^k for k = 0..r and H(1/x,t), as series over the free algebra."""
    from jacrel.combinat import inv_log1p_pow, p_poly
    from jacrel.tautalg import TautElement
    ring = _chain_ring(g)

    def principal(n):
        return LaurentSeries(QQ, -n, tuple(reversed(p_poly(n).coeffs[1:])))

    eps = XTSeries(ring, {a + 2: _lift(principal(a + 2) - inv_log1p_pow(a + 2, x_order),
                                       TautElement.generator(g, a), ring)
                          for a in range(g)}, t_order)
    h_sub = XTSeries(ring, {a + 2: _lift(principal(a + 2), TautElement.generator(g, a), ring)
                            for a in range(g)}, t_order)
    return [eps ** k for k in range(r + 1)], h_sub


@lru_cache(maxsize=None)
def _g_part_times_eps(g, r, x_order, t_order, sp, n, k):
    """The t^n part of G(t/log(1+x))^sp, read off the literal power G(t)^sp,
    times eps^k."""
    ring = _chain_ring(g)
    part = _lift(_bare_log_inv_pow(n, x_order), _expanded_power("G", g, sp).coeff(0, n), ring)
    return XTSeries(ring, {n: part}, t_order) * _eps_powers(g, r, x_order, t_order)[0][k]


@lru_cache(maxsize=None)
def _identity_holds(g, r, x_order, t_order):
    """H(1/x,t)^s agrees with the binomial expansion for s = 1..r."""
    h_sub = _eps_powers(g, r, x_order, t_order)[1]
    return all((h_sub ** s).agrees_with(_binomial_side(g, r, s, x_order, t_order))
               for s in range(1, r + 1))


def _binomial_side(g, r, s, x_order, t_order, keep_below=None):
    """sum_{s'} C(s,s') G(t/log(1+x))^s' eps^(s-s'); with keep_below set, the
    t^n parts of G^s' with n > keep_below + s' are rewritten to zero."""
    from math import comb
    total = _eps_powers(g, r, x_order, t_order)[0][s]
    for sp in range(1, s + 1):
        binom = Fraction(comb(s, sp))
        for n in range(2 * sp, sp * (g + 1) + 1):
            if keep_below is None or n <= keep_below + sp:
                total = total + _g_part_times_eps(g, r, x_order, t_order, sp, n, s - sp) * binom
    return total


def chain_by_xt_series(g, d, r, x_order=None, t_order=None):
    """The implication-chain report from series with algebra coefficients.

    This is the reference route for ``verify_implication_chain``: eps(x,t),
    H(1/x,t) and the powers of G(t/log(1+x)) are carried whole, as t-parts of
    Laurent series over the free algebra, and H(1/x,t)^s is compared with
    the binomial expansion part by part instead of monomial by monomial.
    The powers of G(t) come from the literal expansion, not the closed form.
    """
    from math import factorial

    from jacrel.combinat import stirling2
    from jacrel.relations import ChainReport, DegreeBoundCheck, ScalarCheck

    x_order = 2 * (g + 2) if x_order is None else x_order
    t_order = r * (g + 1) + 1 if t_order is None else t_order
    identity9_ok = _identity_holds(g, r, x_order, t_order)
    degree_checks = []
    for s in range(1, r + 1):
        rhs_rw = _binomial_side(g, r, s, x_order, t_order, keep_below=d - r)
        bound = -(d - r + s)
        min_exp = None
        certified = True
        for series in rhs_rw.parts.values():
            if series.trunc is not None and series.trunc < bound:
                certified = False
                continue
            for e, _ in series.items():
                min_exp = e if min_exp is None else min(min_exp, e)
        if min_exp is not None and min_exp < bound:
            certified = False
        degree_checks.append(DegreeBoundCheck(s=s, bound=bound, min_x_exponent=min_exp,
                                              certified=certified))

    scalar_checks = []
    geom_order = max(2, x_order, r * (g + 1) + 2)
    geom = LaurentSeries(QQ, 1, [Fraction((-1) ** i) for i in range(geom_order)],
                         geom_order + 1)
    for s in range(1, r + 1):
        m = d - r + s
        for n in range(m + 1, s * (g + 1) + 1):
            value = (geom * _bare_log_inv_pow(n, x_order)).coeff(-m)
            expected = Fraction(factorial(m), factorial(n - 1)) * stirling2(n - 1, m)
            scalar_checks.append(ScalarCheck(s=s, n=n, m=m, value=value, expected=expected))

    return ChainReport(g=g, d=d, r=r, x_order=x_order, t_order=t_order,
                       identity9_ok=identity9_ok, degree_bounds=tuple(degree_checks),
                       scalar_checks=tuple(scalar_checks))
