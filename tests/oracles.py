"""Independent oracles and random generators shared by the test modules.

Everything here is deliberately naive: enumeration instead of closed forms,
term-by-term expansion instead of library calls, so the production routes
are checked against genuinely independent computations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import Any

from jacrel.grr import GrrElement, UpstairsTerm
from jacrel.rings import DensePoly, LaurentSeries, TruncationError, min_trunc


def power(x, n: int):
    """x**n for n >= 1 by square and multiply; the series and polynomial
    containers have no ``__pow__``."""
    if n < 1:
        raise ValueError("power needs n >= 1")
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return result
        x = x * x


@dataclass(frozen=True)
class Ring:
    """A commutative coefficient ring, described by its zero and one elements."""

    zero: Any
    one: Any


#: The rationals as a Ring, for GenericSeries with Fraction coefficients.
QQ_RING = Ring(Fraction(0), Fraction(1))


class GenericSeries:
    """Truncated Laurent series over any commutative Q-algebra.

    The reference for ``jacrel.rings.LaurentSeries``, which is over Q only:
    a coefficient is any element with ``+``, ``-``, unary ``-``, ``*`` (with
    its own kind and with Fraction/int scalars) and ``==``, and a Ring
    supplies zero and one.  Coefficients are kept as given, one per exponent
    from ``valuation``, and summed through a dict keyed by exponent.  The
    window and truncation rules are those of ``LaurentSeries``.
    """

    __slots__ = ("ring", "valuation", "coeffs", "trunc")

    def __init__(self, ring, valuation, coeffs=(), trunc=None):
        coeffs = list(coeffs)
        if trunc is not None and trunc - valuation < len(coeffs):
            coeffs = coeffs[: max(trunc - valuation, 0)]
        while coeffs and coeffs[0] == ring.zero:
            coeffs.pop(0)
            valuation += 1
        while coeffs and coeffs[-1] == ring.zero:
            coeffs.pop()
        if not coeffs:
            valuation = trunc if trunc is not None else 0
        self.ring = ring
        self.valuation = valuation
        self.coeffs = tuple(coeffs)
        self.trunc = trunc

    @classmethod
    def zero(cls, ring, trunc=None):
        return cls(ring, 0, (), trunc)

    @classmethod
    def monomial(cls, ring, exp, coeff=None, trunc=None):
        return cls(ring, exp, (ring.one if coeff is None else coeff,), trunc)

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, exp):
        if self.trunc is not None and exp >= self.trunc:
            raise TruncationError(f"exponent {exp} is beyond truncation order {self.trunc}")
        i = exp - self.valuation
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def items(self):
        for i, c in enumerate(self.coeffs):
            if c != self.ring.zero:
                yield self.valuation + i, c

    def _from_dict(self, data, trunc):
        if not data:
            return GenericSeries.zero(self.ring, trunc)
        lo, hi = min(data), max(data)
        return GenericSeries(self.ring, lo, [data.get(e, self.ring.zero)
                                             for e in range(lo, hi + 1)], trunc)

    def _merge(self, other, sign):
        data = dict(self.items())
        for e, c in other.items():
            c = c if sign > 0 else -c
            data[e] = data[e] + c if e in data else c
        return self._from_dict(data, min_trunc(self.trunc, other.trunc))

    def __add__(self, other):
        return self._merge(other, +1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return GenericSeries(self.ring, self.valuation, [-c for c in self.coeffs], self.trunc)

    def __mul__(self, other):
        if not isinstance(other, GenericSeries):
            # scalar (Fraction/int) or coefficient-ring element
            return GenericSeries(self.ring, self.valuation,
                                 [c * other for c in self.coeffs], self.trunc)
        if (self.is_zero and self.trunc is None) or (other.is_zero and other.trunc is None):
            return GenericSeries.zero(self.ring)
        trunc = min_trunc(None if self.trunc is None else self.trunc + other.valuation,
                          None if other.trunc is None else other.trunc + self.valuation)
        data = {}
        for ea, a in self.items():
            for eb, b in other.items():
                e = ea + eb
                if trunc is None or e < trunc:
                    data[e] = data[e] + a * b if e in data else a * b
        return self._from_dict(data, trunc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def truncate(self, order):
        if self.trunc is not None and order > self.trunc:
            raise TruncationError(f"cannot extend truncation order {self.trunc} to {order}")
        return GenericSeries(self.ring, self.valuation, self.coeffs, order)

    def agrees_with(self, other):
        horizon = min_trunc(self.trunc, other.trunc)
        exps = {e for e, _ in self.items()} | {e for e, _ in other.items()}
        return all(self.coeff(e) == other.coeff(e) for e in exps
                   if horizon is None or e < horizon)

    def __eq__(self, other):
        return (self.valuation, self.coeffs, self.trunc) == \
            (other.valuation, other.coeffs, other.trunc)


def generic_series_exp(s, order):
    """exp(s) as the sum of s^i/i! below x^order, each power one more product.

    The reference for ``jacrel.rings.series_exp``; s needs valuation >= 1,
    and a nilpotent coefficient ring ends the sum early on its own.
    """
    out_trunc = order if s.trunc is None else min(order, s.trunc)
    result = GenericSeries.monomial(s.ring, 0, trunc=out_trunc)
    term = result
    for i in range(1, out_trunc):
        term = (term * s).truncate(out_trunc) * Fraction(1, i)
        if term.is_zero:
            break
        result = result + term
    return result


def chern_classes_by_fractions(data, t_order):
    """c_0..c_(t_order-1) of a ``jacrel.grr.ChernData`` by Newton's identity
    n*c_n = sum_j (-1)^(j-1) j! ch_j c_(n-j), divided by n at every step:
    the rational reference for the integer tower of ``chern_classes``."""
    ctx = data.ctx
    f_prime = [data.ch[j] * ((-1) ** (j - 1) * factorial(j)) for j in range(1, len(data.ch))]
    c = [GrrElement.one(ctx)]
    for n in range(1, t_order):
        acc = GrrElement.zero(ctx)
        for j in range(1, min(n, len(f_prime)) + 1):
            acc = acc + f_prime[j - 1] * c[n - j]
        c.append(acc * Fraction(1, n))
    return tuple(c)


def pushforward_by_products(term):
    """The four-case pushforward table as products of ``GrrElement``s: the
    reference for the exponent shifts of ``grr.pushforward``."""
    ctx = term.ctx
    if term.rho == 1:
        if term.mu > 0:
            return GrrElement.zero(ctx)
        return term.coeff * GrrElement.xi(ctx, term.nu + 1)
    if term.mu == 0:
        return term.coeff * GrrElement.scalar(ctx, ctx.d) * (
            GrrElement.xi(ctx, term.nu) if term.nu else GrrElement.one(ctx))
    if not 2 <= term.mu <= ctx.g + 1:
        return GrrElement.zero(ctx)
    qpart = GrrElement.fc(ctx, term.mu - 2) * factorial(term.mu)
    return term.coeff * qpart * GrrElement.xi(ctx, term.nu + 1)


def ch_route_by_elements(ctx):
    """alpha_*(e^(k l) (A(x) + B(x) rho)) through ``pushforward_by_products``,
    summed element by element: the reference for ``grr._ch_grr_route``."""
    total = GrrElement.zero(ctx)
    for mu in range(ctx.g + 2):
        k_factor = GrrElement.k_power(ctx, mu, Fraction(1, factorial(mu)))
        for j in range(ctx.r):
            a_term = UpstairsTerm(ctx, mu, j, 0, k_factor * GrrElement.a_coeff(ctx, j))
            b_term = UpstairsTerm(ctx, mu, j, 1, k_factor * GrrElement.b_coeff(ctx, j))
            total = total + pushforward_by_products(a_term) + pushforward_by_products(b_term)
    return total


def ch_closed_form_by_elements(ctx):
    """d A(xi) + xi B(xi) + (sum_mu k^(mu+2) FC_mu) xi A(xi) as products and
    sums of elements: the reference for ``grr._ch_closed_form``."""
    a_of_xi = GrrElement.zero(ctx)
    b_of_xi = GrrElement.zero(ctx)
    for j in range(ctx.r):
        xi_j = GrrElement.xi(ctx, j) if j else GrrElement.one(ctx)
        a_of_xi = a_of_xi + GrrElement.a_coeff(ctx, j) * xi_j
        b_of_xi = b_of_xi + GrrElement.b_coeff(ctx, j) * xi_j
    fourier = GrrElement.zero(ctx)
    for mu in range(ctx.g):
        fourier = fourier + GrrElement.k_power(ctx, mu + 2) * GrrElement.fc(ctx, mu)
    return (GrrElement.scalar(ctx, ctx.d) * a_of_xi
            + GrrElement.xi(ctx) * b_of_xi
            + fourier * GrrElement.xi(ctx) * a_of_xi)


def gammas_by_k_scan(signed):
    """The k-power split of a ``GrrElement``, {s: coefficient of k^s with k
    stripped} in ascending s without the zero ones, by one scan of the terms
    per power s = 0..k-degree: the reference for ``grr.gamma_extract``'s
    one-pass split."""
    gammas = {}
    for s in range(max((e[0] for e in signed.terms), default=0) + 1):
        terms = {}
        for e, c in signed.terms.items():
            if e[0] == s:
                stripped = list(e)
                stripped[0] = 0
                terms[tuple(stripped)] = c
        if terms:
            gammas[s] = GrrElement(signed.ctx, terms)
    return gammas


def pow_inv_by_products(s, n, order):
    """s^(-n) known below x^order, for a GenericSeries s over QQ_RING.

    The reference for ``jacrel.rings.laurent_pow_inv``: the unit part
    u = s/(lead*x^v) is inverted by long division, raised to the n-th power
    by products and scaled by lead^(-n).  The windows are those of the
    library, including the TruncationError when s is not known far enough.
    """
    v = s.valuation
    m = max(order + n * v, 1) if s.trunc is None else s.trunc - v
    if m - n * v < order:
        raise TruncationError(f"input truncation supports order {m - n * v}")
    lead = s.coeffs[0]
    unit = [c / lead for c in s.coeffs[:m]]
    unit += [Fraction(0)] * (m - len(unit))
    inverse = [Fraction(1)]
    for k in range(1, m):
        inverse.append(-sum(unit[i] * inverse[k - i] for i in range(1, k + 1)))
    p = power(GenericSeries(s.ring, 0, inverse, m), n)
    return GenericSeries(s.ring, -n * v, [c / lead ** n for c in p.coeffs],
                         p.trunc - n * v).truncate(order)


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
    return DensePoly(coeffs)


def rand_laurent(rng: random.Random, min_val: int = -3) -> LaurentSeries:
    val = rng.randint(min_val, 3)
    length = rng.randint(0, 5)
    coeffs = [rand_fraction(rng) for _ in range(length)]
    trunc = val + length + rng.randint(0, 3)
    return LaurentSeries(val, coeffs, trunc)


def rand_taut(rng: random.Random, g: int):
    from jacrel.tautalg import TautElement
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(sorted((rng.randint(0, g - 1)
                             for _ in range(rng.randint(0, 3))), reverse=True))
        terms[mono] = terms.get(mono, Fraction(0)) + rand_fraction(rng)
    return TautElement(g, terms)


def rand_grr(rng: random.Random, ctx) -> GrrElement:
    """Up to four terms with small exponents; some reach xi^(r+1), which the
    constructor drops."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exp = tuple(rng.choice((0, 0, 1, 2)) for _ in range(ctx.nvars))
        terms[exp] = terms.get(exp, 0) + rand_fraction(rng)
    return GrrElement(ctx, terms)


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


def compare_ideals_by_products(f1, f2):
    """The reference route for ``compare_ideals``: each row is a product in
    the algebra read off over Fraction by coefficient lookups, and every
    ideal cell takes all generator-times-monomial rows (no recursion)."""
    from jacrel.linalg import rank
    from jacrel.relations import CellComparison, IdealComparison
    i_max, j_max = f1.r, f1.r * (f1.g - 1)
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


def cells_by_shifted_rows(family, i_max: int, j_max: int) -> dict:
    """The reference cell builder for ``GradedSpan.cell``: (ideal rank,
    generator rank) per cell (i, j), 1 <= i <= i_max, j <= j_max.  A cell
    takes its generators, then every echelon row of the cells (i-1, j-k)
    times C(k), with no covered columns: a full cell below still lends all
    of its rows."""
    from jacrel.linalg import RowSpace
    from jacrel.relations import monomials_of_bidegree
    g = family.g
    gens: dict = {}
    for item in family.items:
        if not item.element.is_zero:
            gens.setdefault(item.element.bidegree(), []).append(item.element)
    built: dict = {}

    def build(i, j):
        if (i, j) not in built:
            basis = monomials_of_bidegree(g, i, j)
            column = {m: c for c, m in enumerate(basis)}
            space = RowSpace(len(basis))
            for element in gens.get((i, j), ()):
                space.add(_primitive_row([element.coefficient(m) for m in basis]))
            generator_rank = space.rank
            for k in range(min(g, j + 1) if i else 0):
                below = build(i - 1, j - k)[0]
                shift = [column[tuple(sorted(m + (k,), reverse=True))]
                         for m in monomials_of_bidegree(g, i - 1, j - k)]
                for piv in below.pivots.values():
                    row = [0] * len(basis)
                    for c, x in zip(shift, piv):
                        row[c] = x
                    space.add(row)
            built[(i, j)] = space, generator_rank
        return built[(i, j)]

    return {(i, j): (build(i, j)[0].rank, build(i, j)[1])
            for i in range(1, i_max + 1) for j in range(j_max + 1)}


def top_ranks_by_full_reduction(g: int, s: int, w: int) -> tuple[int, ...]:
    """The reference for ``relations._top_echelon``'s ranks: for e = 0..2s+w+1,
    the rank of the rows (orderings(m) [u^e] Q_m)_m, e' = e..2s+w, of cell
    (s, w).  Q_m is multiplied out term by term from the ``p_poly``
    coefficients, orderings(m) is a multinomial, and every row is reduced:
    no stop at the symmetric bound."""
    from collections import Counter
    from jacrel.combinat import p_poly
    from jacrel.linalg import RowSpace
    from jacrel.relations import monomials_of_bidegree
    columns = []
    for mono in monomials_of_bidegree(g, s, w):
        q = [1]
        for a in mono:
            p = [int(c) for c in p_poly(a + 2).coeffs]
            q = [sum(q[i] * p[e - i] for i in range(len(q)) if 0 <= e - i < len(p))
                 for e in range(len(q) + len(p) - 1)]
        count = factorial(s)
        for k in Counter(mono).values():
            count //= factorial(k)
        columns.append([count * x for x in q])
    top = 2 * s + w
    space = RowSpace(len(columns))
    ranks = [0]
    for e in range(top, -1, -1):
        space.add([column[e] for column in columns])
        ranks.append(space.rank)
    return tuple(reversed(ranks))


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
        return cls(ring, {0: GenericSeries.monomial(ring, 0)}, t_trunc)

    def part(self, t_exp):
        return self.parts.get(t_exp, GenericSeries.zero(self.ring))

    def __add__(self, other):
        parts = dict(self.parts)
        for te, series in other.parts.items():
            parts[te] = parts[te] + series if te in parts else series
        return XTSeries(self.ring, parts, min_trunc(self.t_trunc, other.t_trunc))

    def __mul__(self, other):
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
    return GenericSeries(ring, series.valuation, [element * c for c in series.coeffs],
                         series.trunc)


@lru_cache(maxsize=None)
def _chain_ring(g):
    from jacrel.tautalg import TautElement
    return Ring(TautElement.zero(g), TautElement.one(g))


@lru_cache(maxsize=None)
def _bare_log_inv_pow(n, x_order):
    from jacrel.rings import laurent_pow_inv, log1p_series
    return laurent_pow_inv(log1p_series(x_order + n + 1), n, x_order)


def split_sums_by_position_sets(mono, h, e, x_order, kept_weights):
    """Both sides of the binomial identity at one monomial m = (a_1..a_s),
    summed over all 2^s position sets S one set at a time.

    The reference route for ``head_table``: the right-hand side
    is sum_S G_S * prod_{i not in S} e_{a_i}, with
    G_S = prod_{i in S} (a_i+1)! * log(1+x)^-(2|S| + sum_{i in S} a_i).
    Returns whether it agrees with prod h_{a_i}, and for each kept weight
    its sum restricted to S empty or |S| + sum_{i in S} a_i <= kept weight.
    """
    from itertools import combinations
    from math import factorial, prod
    lhs = LaurentSeries.monomial(0)
    for a in mono:
        lhs = lhs * h[a]
    terms = []  # (|S| + sum_{i in S} a_i, term) per position set S
    for size in range(len(mono) + 1):
        for chosen in combinations(range(len(mono)), size):
            weights = [mono[i] for i in chosen]
            if chosen:
                scale = prod(factorial(a + 1) for a in weights)
                term = _bare_log_inv_pow(2 * size + sum(weights), x_order) * scale
            else:
                term = LaurentSeries.monomial(0)
            for i, a in enumerate(mono):
                if i not in chosen:
                    term = term * e[a]
            terms.append((size + sum(weights), term))
    full = sum((term for _, term in terms), LaurentSeries.zero())
    # cuts that keep the same position sets share one sum
    sums = {}
    kept = []
    for kept_weight in kept_weights:
        standing = tuple(i for i, (k, _) in enumerate(terms) if k == 0 or k <= kept_weight)
        if standing not in sums:
            sums[standing] = sum((terms[i][1] for i in standing), LaurentSeries.zero())
        kept.append(sums[standing])
    return lhs.agrees_with(full), kept


@lru_cache(maxsize=None)
def e_product(rest, x_order):
    """prod e_a over the weakly decreasing weights ``rest``, built on the
    product without its last weight."""
    from jacrel.relations import _e_part
    tail = _e_part(rest[-1] + 2, x_order)
    return e_product(rest[:-1], x_order) * tail if len(rest) > 1 else tail


@lru_cache(maxsize=None)
def head_table(mono, x_order):
    """Heads of sum_S G_S * prod_{i not in S} e_{a_i} at m = (a_1..a_s),
    G_S = prod_{i in S} (a_i+1)! * L^-(2|S| + sum_{i in S} a_i), from the
    actual valuation of every kept sum.

    The reference route for check (b) of ``verify_implication_chain``, which
    reads the valuation lemma instead.  Returns whether the facts of check
    (a) hold at m, the position-set counts among them, and per cut weight
    k = |S| + sum_{i in S} a_i, ascending, (k, trunc, valuation) of the sum
    of the terms with cut weight <= k.  The position sets that choose one
    sub-multiset T of m give one term, scaled by their count and never
    formed: a product's window, valuation and coefficients are read off its
    factors L^-N and ``e_product``.
    """
    from collections import Counter
    from itertools import combinations
    from math import comb, prod
    from operator import itemgetter

    from jacrel.relations import _bare_log_inv_pow as log_inv_pow
    from jacrel.relations import _generator_split_ok, _power_law_ok
    one = LaurentSeries.monomial(0)
    weights = Counter(mono)
    facts_ok = (all(_power_law_ok(n, x_order) for n in range(1, 2 * len(mono) + sum(mono) + 1))
                and all(_generator_split_ok(a + 2, x_order) for a in weights))
    terms = []  # (k, scale, L^-N, e-part)
    for chosen, mult in Counter(c for size in range(len(mono) + 1)
                                for c in combinations(mono, size)).items():
        facts_ok = facts_ok and mult == prod(comb(weights[a], chosen.count(a))
                                             for a in set(chosen))
        rest = tuple(a for a, n in weights.items() for _ in range(n - chosen.count(a)))
        terms.append((len(chosen) + sum(chosen), mult * prod(factorial(a + 1) for a in chosen),
                      log_inv_pow(2 * len(chosen) + sum(chosen), x_order) if chosen else one,
                      e_product(rest, x_order) if rest else one))
    terms.sort(key=itemgetter(0))
    table, window, leads = [], None, {}  # leads: summed leading coefficients by valuation
    for i, (k, scale, gp, ep) in enumerate(terms):
        window = min_trunc(window, gp._product_trunc(ep))
        if not (gp.is_zero or ep.is_zero):
            v = gp.valuation + ep.valuation
            leads[v] = leads.get(v, 0) + scale * gp.product_coeff(ep, v)
        if i + 1 < len(terms) and terms[i + 1][0] == k:
            continue
        low = min(leads, default=window)
        if low < window and not leads[low]:  # they cancel: sum later coefficients
            low = next((v for v in range(low + 1, window) if sum(
                scale * gp.product_coeff(ep, v) for _, scale, gp, ep in terms[: i + 1])), window)
        table.append((k, window, min(low, window)))
    return facts_ok, tuple(table)


@lru_cache(maxsize=None)
def _eps_powers(g, r, x_order, t_order):
    """eps(x,t)^k for k = 0..r and H(1/x,t), as series over the free algebra."""
    from jacrel.combinat import inv_log1p_pow, p_poly
    from jacrel.tautalg import TautElement
    ring = _chain_ring(g)

    def principal(n):
        return LaurentSeries(-n, tuple(reversed(p_poly(n).coeffs[1:])))

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


def chain_by_xt_series(g, d, r, x_order=None):
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
    t_order = r * (g + 1) + 1  # above the top t-degree of H(1/x,t)^r
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
    geom = LaurentSeries(1, [Fraction((-1) ** i) for i in range(geom_order)],
                         geom_order + 1)
    for s in range(1, r + 1):
        m = d - r + s
        for n in range(m + 1, s * (g + 1) + 1):
            value = (geom * _bare_log_inv_pow(n, x_order)).coeff(-m)
            expected = Fraction(factorial(m), factorial(n - 1)) * stirling2(n - 1, m)
            scalar_checks.append(ScalarCheck(s=s, n=n, m=m, value=value, expected=expected))

    return ChainReport(g=g, d=d, r=r, x_order=x_order,
                       identity9_ok=identity9_ok, degree_bounds=tuple(degree_checks),
                       scalar_checks=tuple(scalar_checks))
