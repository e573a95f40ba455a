"""Relation families in the free algebra and their exact comparison.

Three families of homogeneous elements are generated from a linear-system
parameter pair (d, r) on a genus-g curve class:

* ``vdgk6``   - the t-degree-bound family: coefficients of t^n in G(t)^s for
  n > d-r+s, for s = 1..r;
* ``herbaut7`` - the divided-coefficient family: the t-coefficients of the
  u^(d-r+s) coefficient of H(u,t)^s / (1+u);
* ``strong8`` - the strengthened family: coefficients of u^m t^n in H(u,t)^s
  for m > d-r+s.

No power is expanded: the algebra is free and C(a) carries t^(a+2), so a
monomial m = (a_1..a_s) of bidegree (s, w) appears only at t^(2s+w), with
coefficient orderings(m) * prod (a_i+1)! in G(t)^s and orderings(m) *
prod P_{a_i+2}(u) in H(u,t)^s.  The herbaut7 coefficient is orderings(m)
times [u^(d-r+s)] of prod P_{a_i+2}(u)/(1+u), which is B_{d-r+s}(a_1+1..a_s+1).

``compare_ideals`` decides, bidegree by bidegree and by exact rank
computations, whether two families generate the same graded ideal; it also
reports the weaker per-bidegree span comparison of the bare generators and
flags any parameter set where the two notions differ.  Its rows are integer
vectors: each generator is scaled once to coprime integers, and multiplying
by C(k) only moves a row's entries to other columns (see ``GradedSpan``).

``epsilon_series`` and ``verify_implication_chain`` replay the series
bookkeeping connecting the families: the substitution defect
eps(x,t) = H(1/x,t) - G(t/log(1+x)), the binomial expansion of H(1/x,t)^s in
terms of it, the degree bound it yields once the vdgk6 relations are
rewritten to zero, and the Stirling-coefficient nonvanishing that closes the
chain.  All three series are linear in the generators, so each is a scalar
Laurent series over Q per generator: h_a = P_{a+2}(1/x) in H(1/x,t),
(a+1)! log(1+x)^-(a+2) in G(t/log(1+x)), and their difference e_a in eps.
The expansion is then checked one monomial m = (a_1..a_s) at a time:
prod h_{a_i} against the sum, over position sets S, of the G-part of S times
prod_{i not in S} e_{a_i}.  Position sets that choose the same sub-multiset
of weights give the same term, so each sub-multiset is computed once and
scaled by its multiplicity.  Neither this identity nor its terms depend on g
or d: only the vdgk6 cut |S| + sum_{i in S} a_i <= d-r does.  So each
(monomial, x-order) gets one cached table, the verdict and the terms summed
by that cut weight, and every d adds up the terms it keeps.

Note that eps has x-exponents >= 0 but genuinely nonzero x^0 terms
(Bernoulli values B_n/n for even n = a+2), so the sharpest certifiable bound
is O(t^2) with no negative x-powers, not O(x t^2).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm, prod

from .combinat import _bare_log_inv_pow, p_poly, principal_part, stirling2
from .linalg import RowSpace, rank
from .rings import QQ, LaurentSeries, TruncationError, InvariantViolation, min_trunc
from .tautalg import Monomial, TautElement, _mono_mul, mono_key

FAMILY_IDS = ("theorem1", "vdgk6", "herbaut7", "strong8")

# Bound on each of the chain's caches, ``_e_part`` keyed by (n, x_order) and
# ``_split_table`` by (monomial, x_order); the criterion-6b grid fills the
# table with 191 entries.
_CACHE_SIZE = 4096


@dataclass(frozen=True)
class RelationItem:
    s: int
    t_exp: int
    element: TautElement
    u_exp: int | None = None

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.s, self.t_exp - 2 * self.s)


@dataclass(frozen=True)
class RelationFamily:
    family_id: str
    g: int
    d: int
    r: int
    items: tuple[RelationItem, ...]

    def sorted_items(self) -> tuple[RelationItem, ...]:
        return tuple(sorted(self.items,
                            key=lambda it: (it.s, it.t_exp,
                                            -1 if it.u_exp is None else it.u_exp)))


def _validate_params(g: int, d: int, r: int) -> None:
    if g < 1:
        raise ValueError("g must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    if d - r + 1 < 0:
        raise ValueError("need d - r + s >= 0 for s = 1..r")


def _compositions(total: int, parts: int, bound: int):
    """Weakly decreasing tuples of the given length, entries in [0, bound]."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for w in range(min(bound, total), -1, -1):
        if total - w <= (parts - 1) * w:
            for rest in _compositions(total - w, parts - 1, w):
                yield (w,) + rest


def _orderings(mono: Monomial) -> int:
    """Number of distinct orderings of a multiset."""
    count = factorial(len(mono))
    for w in set(mono):
        count //= factorial(mono.count(w))
    return count


def _g_power_coefficient(g: int, s: int, w: int) -> TautElement:
    """The t^(2s+w) coefficient of G(t)^s: orderings(m) * prod (a_i+1)! at each
    monomial m = (a_1..a_s) of weight w."""
    terms: dict[Monomial, Fraction] = {}
    for mono in _compositions(w, s, g - 1):
        coeff = _orderings(mono)
        for a in mono:
            coeff *= factorial(a + 1)
        terms[mono] = Fraction(coeff)
    return TautElement(g, terms)


def gen_theorem1(g: int, d: int, r: int, N: int) -> TautElement:
    """The factorial-weighted composition sum of first degree r and weight N.

    Sums (a_1+1)!...(a_r+1)! C(a_1)*...*C(a_r) over all compositions of N
    into r parts (each part below g), with multiset multiplicity equal to the
    number of distinct orderings.  Only N >= d-2r+1 indexes a relation.
    """
    _validate_params(g, d, r)
    if N < 0:
        raise ValueError("N must be >= 0")
    if N < d - 2 * r + 1:
        raise ValueError(f"N={N} is below the relation threshold d-2r+1={d - 2 * r + 1}")
    return _g_power_coefficient(g, r, N)


def theorem1_family(g: int, d: int, r: int, N: int) -> RelationFamily:
    element = gen_theorem1(g, d, r, N)
    items = () if element.is_zero else (RelationItem(s=r, t_exp=N + 2 * r,
                                                     element=element),)
    return RelationFamily("theorem1", g, d, r, items)


def _p_coefficient_lists(g: int) -> list[list[int]]:
    """Integer coefficients of P_{a+2}(u), a < g, certified to vanish at u = -1,
    so that every product of them is exactly divisible by (1+u)."""
    lists = []
    for a in range(g):
        coeffs = [int(c) for c in p_poly(a + 2).coeffs]
        if sum(c if i % 2 == 0 else -c for i, c in enumerate(coeffs)):
            raise InvariantViolation(f"P_{a + 2}(-1) != 0: (1+u) does not divide H(u,t)")
        lists.append(coeffs)
    return lists


def gen_family(family_id: str, g: int, d: int, r: int) -> RelationFamily:
    """Generate one of the three relation families, deterministically ordered.

    Each item is assembled monomial by monomial from the closed forms of the
    coefficients of G(t)^s and H(u,t)^s; no power is expanded.
    """
    _validate_params(g, d, r)
    if family_id not in ("vdgk6", "herbaut7", "strong8"):
        raise ValueError(f"unknown family {family_id!r}")
    items: list[RelationItem] = []
    if family_id == "vdgk6":
        for s in range(1, r + 1):
            bound = d - r + s
            for n in range(max(2 * s, bound + 1), s * (g + 1) + 1):
                items.append(RelationItem(s=s, t_exp=n,
                                          element=_g_power_coefficient(g, s, n - 2 * s)))
    else:
        p_lists = _p_coefficient_lists(g)
        # prod P_{a_i+2}(u) per monomial; size s-1 is complete before size s
        products: dict[Monomial, list[int]] = {(): [1]}
        for s in range(1, r + 1):
            k = d - r + s
            for w in range(0, s * (g - 1) + 1):
                by_u: dict[int, dict[Monomial, Fraction]] = {}
                for mono in monomials_of_bidegree(g, s, w):
                    head, tail = products[mono[:-1]], p_lists[mono[-1]]
                    prod = [0] * (len(head) + len(tail) - 1)
                    for i, x in enumerate(head):
                        for j, y in enumerate(tail):
                            prod[i + j] += x * y
                    products[mono] = prod
                    if family_id == "strong8":
                        coeffs = {e: prod[e] for e in range(k + 1, len(prod))}
                    else:  # herbaut7: [u^k] of prod / (1+u)
                        coeffs = {k: sum((-1) ** (k - i) * prod[i]
                                         for i in range(min(k + 1, len(prod))))}
                    weight = _orderings(mono)
                    for e, c in coeffs.items():
                        if c:
                            by_u.setdefault(e, {})[mono] = Fraction(weight * c)
                for e in sorted(by_u):
                    items.append(RelationItem(
                        s=s, t_exp=2 * s + w, element=TautElement(g, by_u[e]),
                        u_exp=e if family_id == "strong8" else None))
    items.sort(key=lambda it: (it.s, it.t_exp, -1 if it.u_exp is None else it.u_exp))
    return RelationFamily(family_id, g, d, r, tuple(items))


# ---------------------------------------------------------------------------
# Graded ideal comparison
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def monomials_of_bidegree(g: int, size: int, weight: int) -> tuple[Monomial, ...]:
    """All monomials of the given bidegree, in canonical order."""
    if size < 0 or weight < 0:
        return ()
    monos = list(_compositions(weight, size, g - 1))
    monos.sort(key=mono_key)
    return tuple(monos)


def _int_vector(element: TautElement, basis: tuple[Monomial, ...]) -> list[int]:
    """The element's coefficients on the basis, scaled once to coprime
    integers; a nonzero scalar changes neither its span nor its ideal."""
    terms = element.terms
    den = lcm(*(c.denominator for c in terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    common = gcd(*ints.values()) or 1
    return [ints.get(m, 0) // common for m in basis]


class GradedSpan:
    """Per-bidegree exact row spaces spanned by homogeneous elements.

    Rows are integer vectors in the canonical monomial basis of each
    bidegree.  With ``ideal=True`` each cell carries the graded piece of the
    generated ideal: cell (i, j) is spanned by the generators of bidegree
    (i, j) and by the echelon rows of the cells (i-1, j-k) times C(k),
    0 <= k < g, since every monomial of positive size has a factor C(k).
    Multiplying by C(k) is an injective map on monomials, so a shifted row
    is the same integers written into other columns.  With ``ideal=False``
    only the generators themselves enter, giving the bare per-bidegree span.
    """

    def __init__(self, g: int, i_max: int, j_max: int) -> None:
        self.g = g
        self.i_max = i_max
        self.j_max = j_max
        self.spaces: dict[tuple[int, int], RowSpace] = {}

    @classmethod
    def from_family(cls, family: RelationFamily, i_max: int, j_max: int,
                    ideal: bool = True) -> "GradedSpan":
        g = family.g
        span = cls(g, i_max, j_max)
        gens: dict[tuple[int, int], list[TautElement]] = {}
        for item in family.items:
            if item.element.is_zero:
                continue
            bideg = item.element.bidegree()
            if bideg != item.bidegree:
                raise InvariantViolation(
                    f"item at s={item.s}, t^{item.t_exp} is not homogeneous "
                    f"of the labeled bidegree")
            gens.setdefault(bideg, []).append(item.element)
        for i in range(i_max + 1):
            for j in range(j_max + 1):
                basis = monomials_of_bidegree(g, i, j)
                if not basis:
                    continue
                cell = RowSpace(len(basis))
                if ideal:
                    for row in span._shifted_rows(i, j, basis):
                        cell.add(row)
                for element in gens.get((i, j), ()):
                    cell.add(_int_vector(element, basis))
                if cell.rank:
                    span.spaces[(i, j)] = cell
        return span

    def _shifted_rows(self, i: int, j: int, basis: tuple[Monomial, ...]):
        """The echelon rows of the cells (i-1, j-k) times C(k), written into
        the columns of cell (i, j)."""
        column = {m: c for c, m in enumerate(basis)}
        for k in range(min(self.g, j + 1)):
            below = self.spaces.get((i - 1, j - k))
            if below is None:
                continue
            shift = [column[_mono_mul(m, (k,))]
                     for m in monomials_of_bidegree(self.g, i - 1, j - k)]
            for piv in below.pivots.values():
                row = [0] * len(basis)
                for c, x in enumerate(piv):
                    if x:
                        row[shift[c]] = x
                yield row

    def rank(self, i: int, j: int) -> int:
        cell = self.spaces.get((i, j))
        return cell.rank if cell else 0

    def pivot_rows(self, i: int, j: int) -> list[tuple[int, ...]]:
        cell = self.spaces.get((i, j))
        return list(cell.pivots.values()) if cell else []


@dataclass(frozen=True)
class CellComparison:
    i: int
    j: int
    dim: int
    ideal_ranks: tuple[int, int]
    ideal_joint: int
    span_ranks: tuple[int, int]
    span_joint: int

    @property
    def ideal_equal(self) -> bool:
        return self.ideal_ranks[0] == self.ideal_ranks[1] == self.ideal_joint

    @property
    def span_equal(self) -> bool:
        return self.span_ranks[0] == self.span_ranks[1] == self.span_joint


@dataclass(frozen=True)
class IdealComparison:
    family_ids: tuple[str, str]
    g: int
    d: int
    r: int
    i_max: int
    j_max: int
    cells: tuple[CellComparison, ...]

    @property
    def ideal_equal(self) -> bool:
        return all(c.ideal_equal for c in self.cells)

    @property
    def span_equal(self) -> bool:
        return all(c.span_equal for c in self.cells)

    @property
    def notions_differ(self) -> tuple[CellComparison, ...]:
        """Cells where graded-ideal equality and bare-span equality disagree."""
        return tuple(c for c in self.cells if c.ideal_equal != c.span_equal)


def compare_ideals(f1: RelationFamily, f2: RelationFamily,
                   bidegree_bound: tuple[int, int] | None = None) -> IdealComparison:
    """Decide per-bidegree whether two families generate the same graded ideal.

    Both the ideal pieces (generators times all complementary monomials) and
    the bare generator spans are compared; equality holds in a cell when each
    family's rank equals the rank of the concatenation.
    """
    if (f1.g, f1.d, f1.r) != (f2.g, f2.d, f2.r):
        raise ValueError("families must share the same (g, d, r)")
    g, d, r = f1.g, f1.d, f1.r
    i_max, j_max = bidegree_bound if bidegree_bound else (r, r * (g - 1))
    for family in (f1, f2):
        for item in family.items:
            s, w = item.bidegree
            if (s > i_max or w > j_max) and not item.element.is_zero:
                raise TruncationError(f"window ({i_max}, {j_max}) misses the "
                                      f"{family.family_id} generator of bidegree ({s}, {w})")
    ideal1 = GradedSpan.from_family(f1, i_max, j_max, ideal=True)
    ideal2 = GradedSpan.from_family(f2, i_max, j_max, ideal=True)
    span1 = GradedSpan.from_family(f1, i_max, j_max, ideal=False)
    span2 = GradedSpan.from_family(f2, i_max, j_max, ideal=False)
    cells = []
    for i in range(1, i_max + 1):
        for j in range(0, j_max + 1):
            basis = monomials_of_bidegree(g, i, j)
            if not basis:
                continue
            n = len(basis)
            ir = (ideal1.rank(i, j), ideal2.rank(i, j))
            sr = (span1.rank(i, j), span2.rank(i, j))
            if ir == (0, 0) and sr == (0, 0):
                continue
            cells.append(CellComparison(
                i=i, j=j, dim=n,
                ideal_ranks=ir,
                ideal_joint=rank(ideal1.pivot_rows(i, j) + ideal2.pivot_rows(i, j), n),
                span_ranks=sr,
                span_joint=rank(span1.pivot_rows(i, j) + span2.pivot_rows(i, j), n),
            ))
    return IdealComparison(family_ids=(f1.family_id, f2.family_id),
                           g=g, d=d, r=r, i_max=i_max, j_max=j_max,
                           cells=tuple(cells))


def span_contains(f_sub: RelationFamily, f_sup: RelationFamily) -> bool:
    """True when every item of f_sub lies in the per-bidegree span of f_sup."""
    if (f_sub.g, f_sub.d, f_sub.r) != (f_sup.g, f_sup.d, f_sup.r):
        raise ValueError("families must share the same (g, d, r)")
    g = f_sub.g
    by_cell: dict[tuple[int, int], RowSpace] = {}
    for item in f_sup.items:
        cell = item.bidegree
        basis = monomials_of_bidegree(g, *cell)
        space = by_cell.setdefault(cell, RowSpace(len(basis)))
        space.add(_int_vector(item.element, basis))
    for item in f_sub.items:
        cell = item.bidegree
        vec = _int_vector(item.element, monomials_of_bidegree(g, *cell))
        space = by_cell.get(cell)
        if space is None:
            if any(vec):
                return False
        elif not space.contains(vec):
            return False
    return True


# ---------------------------------------------------------------------------
# Series bookkeeping: eps(x,t) and the implication chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonReport:
    """The substitution defect eps(x,t) = H(1/x,t) - G(t/log(1+x)).

    ``parts[n]`` is the scalar series e_{n-2}(x) = P_n(1/x) - (n-1)!/log(1+x)^n,
    the coefficient of C(n-2) t^n.  ``no_negative_x`` certifies that every
    x-exponent is >= 0 (the principal parts cancel); ``strict_xt2`` is the
    stronger x >= 1 claim, which fails whenever some even n = a+2 contributes
    its Bernoulli constant B_n/n at x^0.  ``t_floor`` is the smallest
    t-exponent present (always >= 2).
    """

    g: int
    x_order: int
    parts: dict[int, LaurentSeries]
    no_negative_x: bool
    x0_coefficients: dict[int, TautElement]
    t_floor: int

    @property
    def strict_xt2(self) -> bool:
        return self.no_negative_x and not self.x0_coefficients


@lru_cache(maxsize=_CACHE_SIZE)
def _e_part(n: int, x_order: int) -> LaurentSeries:
    """e_{n-2} = P_n(1/x) - (n-1)!/log(1+x)^n, known strictly below x^x_order."""
    return principal_part(n) - _bare_log_inv_pow(n, x_order) * factorial(n - 1)


def epsilon_series(g: int, x_order: int) -> EpsilonReport:
    """Compute eps(x,t) and certify its exponent bounds.

    The t-support is exact and finite (t-exponents a+2 for 0 <= a < g), so
    the t-side needs no truncation; the x-side is known strictly below
    x_order, which must be >= 1 for the bounds to be decidable.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    if x_order < 1:
        raise ValueError("x_order must be >= 1 to certify exponent bounds")
    parts: dict[int, LaurentSeries] = {}
    x0: dict[int, TautElement] = {}
    for a in range(g):
        n = a + 2
        defect = _e_part(n, x_order)
        parts[n] = defect
        c0 = defect.coeff(0)
        if c0:
            x0[n] = TautElement.monomial(g, (a,), c0)
    return EpsilonReport(
        g=g, x_order=x_order, parts=parts,
        no_negative_x=all(p.is_zero or p.valuation >= 0 for p in parts.values()),
        x0_coefficients=x0,
        t_floor=min(parts),
    )


def _split_terms(mono: Monomial, h, e, x_order: int
                 ) -> tuple[bool, tuple[tuple[int, LaurentSeries], ...]]:
    """Both sides of the binomial identity at one monomial m = (a_1..a_s).

    The coefficient of m in H(1/x,t)^s is orderings(m) * prod h_{a_i}; in
    G(t/log(1+x))^|S| eps^(s-|S|), summed over the position sets S, it is
    orderings(m) times sum_S G_S * prod_{i not in S} e_{a_i}, where
    G_S = prod_{i in S} (a_i+1)! * log(1+x)^-(2|S| + sum_{i in S} a_i).
    Position sets that choose the same sub-multiset of weights have the same
    term, so each sub-multiset is computed once and scaled by its
    multiplicity, the number of position sets that choose it.  Returns
    whether the two sides agree, and the right-hand side split by the vdgk6
    cut k = |S| + sum_{i in S} a_i as (k, sum of the terms with that k) in
    ascending k; k = 0 only for S empty.  The common factor orderings(m) is
    dropped from both.  Nothing here depends on g or d; h and e map each
    weight a of m to h_a and e_a.
    """
    lhs = LaurentSeries.monomial(QQ, 0)
    for a in mono:
        lhs = lhs * h[a]
    picks = Counter(tuple(mono[i] for i in chosen) for size in range(len(mono) + 1)
                    for chosen in combinations(range(len(mono)), size))
    by_k: dict[int, LaurentSeries] = {}
    for chosen, mult in picks.items():
        if chosen:
            scale = mult * prod(factorial(a + 1) for a in chosen)
            term = _bare_log_inv_pow(2 * len(chosen) + sum(chosen), x_order) * scale
        else:
            term = LaurentSeries.monomial(QQ, 0)
        for a in (Counter(mono) - Counter(chosen)).elements():
            term = term * e[a]
        k = len(chosen) + sum(chosen)
        by_k[k] = by_k[k] + term if k in by_k else term
    full = sum(by_k.values(), LaurentSeries.zero(QQ))
    return lhs.agrees_with(full), tuple(sorted(by_k.items()))


@lru_cache(maxsize=_CACHE_SIZE)
def _split_table(mono: Monomial, x_order: int
                 ) -> tuple[bool, tuple[tuple[int, LaurentSeries], ...]]:
    """``_split_terms`` on h_a = P_{a+2}(1/x) and e_a, cached per monomial
    and x-order: one table serves every g and d."""
    h = {a: principal_part(a + 2) for a in set(mono)}
    e = {a: _e_part(a + 2, x_order) for a in set(mono)}
    return _split_terms(mono, h, e, x_order)


def _kept_sum(terms: tuple[tuple[int, LaurentSeries], ...],
              kept_weight: int) -> LaurentSeries:
    """The sum of a split table's terms that the vdgk6 relations leave
    standing: S empty (k = 0, the first entry), or k <= kept_weight."""
    kept = terms[0][1]
    for k, term in terms[1:]:
        if k > kept_weight:
            break
        kept = kept + term
    return kept


@dataclass(frozen=True)
class ScalarCheck:
    s: int
    n: int
    m: int
    value: Fraction
    expected: Fraction

    @property
    def equal(self) -> bool:
        return self.value == self.expected

    @property
    def nonzero(self) -> bool:
        return self.value != 0


@dataclass(frozen=True)
class DegreeBoundCheck:
    s: int
    bound: int
    min_x_exponent: int | None
    certified: bool


@dataclass(frozen=True)
class ChainReport:
    g: int
    d: int
    r: int
    x_order: int
    t_order: int
    identity9_ok: bool
    degree_bounds: tuple[DegreeBoundCheck, ...]
    scalar_checks: tuple[ScalarCheck, ...]

    @property
    def degree_bound_ok(self) -> bool:
        return all(c.certified for c in self.degree_bounds)

    @property
    def scalar_ok(self) -> bool:
        return all(c.equal and c.nonzero for c in self.scalar_checks)

    @property
    def ok(self) -> bool:
        return self.identity9_ok and self.degree_bound_ok and self.scalar_ok


def verify_implication_chain(g: int, d: int, r: int, x_order: int | None = None,
                             t_order: int | None = None) -> ChainReport:
    """Certify the series steps that tie the three families together.

    Every series involved is linear in the generators and C(a) carries
    t^(a+2), so each check runs monomial by monomial on scalar series over Q
    (see ``_split_terms``), and t_order only has to cover the top t-degree.
    Check (a) and the split of check (b)'s sum do not depend on d; they are
    read from the cached ``_split_table``, and only the cut is applied here.

    (a) The binomial identity H(1/x,t)^s = sum_{s'} C(s,s') G(t/log(1+x))^s'
        eps^(s-s') holds exactly on every tracked coefficient, for s = 1..r.
    (b) With the vdgk6 vanishing rewritten into G's powers, the right-hand
        side is certified to contain no x-exponent below -(d-r+s).
    (c) The extraction scalar, the x^-(d-r+s) coefficient of
        x/(1+x) * log(1+x)^-n, equals (d-r+s)!/(n-1)! S(n-1, d-r+s) and is
        nonzero for every n > d-r+s.
    """
    _validate_params(g, d, r)
    if x_order is None:
        x_order = 2 * (g + 2)
    if t_order is None:
        t_order = r * (g + 1) + 1
    if x_order < 1:
        raise ValueError("x_order must be >= 1")
    if t_order < r * (g + 1) + 1:
        raise TruncationError(f"t_order={t_order} must exceed r(g+1)={r * (g + 1)}, "
                              f"the top t-degree of H(1/x,t)^r")
    identity9_ok = True
    degree_checks: list[DegreeBoundCheck] = []
    for s in range(1, r + 1):
        bound = -(d - r + s)
        min_exp = None
        certified = True
        for w in range(s * (g - 1) + 1):
            # one t-exponent 2s+w: it is known only where all its monomials are
            kept_sums = []
            for mono in monomials_of_bidegree(g, s, w):
                agrees, terms = _split_table(mono, x_order)
                identity9_ok = identity9_ok and agrees
                kept_sums.append(_kept_sum(terms, d - r))
            trunc = None
            for kept in kept_sums:
                trunc = min_trunc(trunc, kept.trunc)
            if trunc is not None and trunc < bound:
                certified = False
                continue
            for kept in kept_sums:
                if not kept.is_zero and (trunc is None or kept.valuation < trunc):
                    min_exp = kept.valuation if min_exp is None else min(min_exp, kept.valuation)
        if min_exp is not None and min_exp < bound:
            certified = False
        degree_checks.append(DegreeBoundCheck(s=s, bound=bound,
                                              min_x_exponent=min_exp,
                                              certified=certified))

    scalar_checks: list[ScalarCheck] = []
    # x/(1+x), wide enough that the product window always covers x^-m
    geom_order = max(2, x_order, r * (g + 1) + 2)
    geom = LaurentSeries(QQ, 1, [(-1) ** i for i in range(geom_order)],
                         geom_order + 1)
    for s in range(1, r + 1):
        m = d - r + s
        for n in range(m + 1, s * (g + 1) + 1):
            value = (geom * _bare_log_inv_pow(n, x_order)).coeff(-m)
            expected = Fraction(factorial(m), factorial(n - 1)) * stirling2(n - 1, m)
            scalar_checks.append(ScalarCheck(s=s, n=n, m=m, value=value,
                                             expected=expected))

    return ChainReport(g=g, d=d, r=r, x_order=x_order, t_order=t_order,
                       identity9_ok=identity9_ok,
                       degree_bounds=tuple(degree_checks),
                       scalar_checks=tuple(scalar_checks))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def element_to_jsonable(element: TautElement) -> list[dict]:
    return [{"monomial": list(mono), "coeff": str(coeff)}
            for mono, coeff in element.sorted_terms()]


def family_to_jsonable(family: RelationFamily) -> dict:
    items = []
    for item in family.sorted_items():
        entry: dict = {"s": item.s, "t_exp": item.t_exp}
        if item.u_exp is not None:
            entry["u_exp"] = item.u_exp
        entry["element"] = element_to_jsonable(item.element)
        items.append(entry)
    return {"family": family.family_id, "g": family.g, "d": family.d,
            "r": family.r, "items": items}


def family_to_json(family: RelationFamily) -> str:
    return json.dumps(family_to_jsonable(family), separators=(",", ":"))


def family_from_jsonable(data: dict) -> RelationFamily:
    g = data["g"]
    items = tuple(
        RelationItem(s=entry["s"], t_exp=entry["t_exp"],
                     element=TautElement(g, {tuple(term["monomial"]): Fraction(term["coeff"])
                                             for term in entry["element"]}),
                     u_exp=entry.get("u_exp"))
        for entry in data["items"])
    return RelationFamily(data["family"], g, data["d"], data["r"], items)


def family_from_json(text: str) -> RelationFamily:
    return family_from_jsonable(json.loads(text))
