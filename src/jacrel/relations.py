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
coefficient orderings(m) * Q_m(u) in H(u,t)^s, Q_m(u) = prod P_{a_i+2}(u),
one cached integer product per monomial (``_h_product``), so strong8 and
herbaut7 read the rows A[e] = (orderings(m) [u^e] Q_m)_m of one table per
cell (``_generators``).  G(t) is the top-u part of H(u,t): vdgk6,
theorem1 and the GRR check read its powers' coefficient, the composition
sum orderings(m) prod (a_i+1)!, with no product (``_g_power_coefficient``).
Q_m vanishes at u = -1, so herbaut7's [u^k] Q_m/(1+u), k = d-r+s, is the
alternating tail sum_{e>k} (-1)^(e-k-1) A[e] of strong8's rows e > k.

``compare_ideals`` decides, bidegree by bidegree and by exact rank
computations, whether two families generate the same graded ideal; it also
reports the weaker per-bidegree span comparison of the bare generators and
flags any parameter set where the two notions differ.  Its rows are integer
vectors, and multiplying by C(k) only moves a row's entries to other columns
(see ``GradedSpan``).  A family that ``gen_family`` made is routed: it
forms its items only on first read, and its span reads its rows off the
cell tables (``_generator_rows``), for the cells it builds.  A strong8 cell
has up to 2s+w-k generators, all rows of one table that every d and r
share, read as a prefix of one cached echelon per bidegree
(``_top_echelon``), stopped at the symmetric bound floor(w/2)+1; vdgk6 and
herbaut7 have one row per cell, and both lie in strong8's span, so a
routed strong8 family's ranks are its joint ranks with either.  Every
other family (read from JSON, built by hand or edited) reduces its own
item rows, each scaled once to integers.
A cell whose columns the full cells below it all reach is full with no
elimination, and a pair with a full side has the cell's dimension as its
joint rank; only the other cells are reduced.  Each family's span is built
once, kept on the family and shared by every comparison it enters.  It, a
routed family's items, and the ``lru_cache``s (the column maps of C(k),
``_shift_columns``, and the echelon tables, ``_top_echelon``, among them)
are the shared state; a span publishes a cell only once complete, so
racing threads at most build a cell twice, with the same rows, and the
first complete item tuple published, under a lock, is the one every
thread reads.

``epsilon_series`` and ``verify_implication_chain`` replay the series
bookkeeping connecting the families: the substitution defect
eps(x,t) = H(1/x,t) - G(t/log(1+x)), the binomial expansion of H(1/x,t)^s in
terms of it, the degree bound it yields once the vdgk6 relations are
rewritten to zero, and the Stirling-coefficient nonvanishing that closes the
chain.  All three series are linear in the generators, so each is a scalar
Laurent series over Q per generator: h_a = P_{a+2}(1/x) in H(1/x,t),
g_a = (a+1)! L^-(a+2), L = log(1+x), in G(t/log(1+x)), and e_a = h_a - g_a
in eps.  At a monomial m = (a_1..a_s) the expansion is the distributive law
for prod (g_{a_i} + e_{a_i}), a sum over position sets S, so the facts it
follows from are certified once per generator and power: the cached powers
of L multiply as powers and h_a = g_a + e_a.  The degree bound is the
paper's valuation lemma (see ``ChainReport``): it reads the valuations and
windows of the cached e_a and L^-N, forms no product and visits no monomial.

Note that eps has x-exponents >= 0 but genuinely nonzero x^0 terms
(Bernoulli values B_n/n for even n = a+2), so the sharpest certifiable bound
is O(t^2) with no negative x-powers, not O(x t^2).
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, factorial, lcm
from threading import Lock
from typing import Iterable, NamedTuple

from .combinat import _bare_log_inv_pow, _log_ladder, p_poly, principal_part, stirling2
from .linalg import RowSpace
from .rings import (LaurentSeries, TruncationError, InvariantViolation, Value, _rational,
                    log1p_series)
from .tautalg import (Monomial, TautElement, _canonical_monomial, _compositions,
                      _g_power_coefficient, _mono_mul, _orderings, element_to_jsonable,
                      monomials_of_bidegree)  # _compositions is re-exported


# Bound on each of the chain's caches, keyed by n and x_order = 2(g+2):
# ``_e_part`` and the check-(a) facts ``_power_law_ok`` and
# ``_generator_split_ok``.  The criterion-6b grid puts 18, 66 and 18
# entries in them.
_CACHE_SIZE = 4096

_PUBLISH = Lock()  # publishes a routed family's items


class RelationItem(NamedTuple):
    s: int
    t_exp: int
    element: TautElement
    u_exp: int | None = None

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.s, self.t_exp - 2 * self.s)


class RelationFamily(Value):
    """Relation items at (g, d, r), with two memos in neither ``==``, ``hash``
    nor ``repr``: ``_span``, the family's ``GradedSpan``, and ``_route``,
    (family_id, d-r) on a family that ``gen_family`` made (d-r may be 0 or
    -1; never serialized).  A routed family is its parameters: its items are
    formed on first read and published complete, its span reads its
    generator rows off the cell tables, and a copy is ``gen_family``'s
    family again, routed and with no span.  A copy of any other family has
    no memo."""

    __slots__ = ("family_id", "g", "d", "r", "items", "_span", "_route")

    def __init__(self, family_id: str, g: int, d: int, r: int,
                 items: tuple[RelationItem, ...]) -> None:
        for name, value in zip(self.__slots__, (family_id, g, d, r, items, None, None)):
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str) -> tuple[RelationItem, ...]:
        # reached only for an unset slot: a routed family's items before first read
        if name != "items" or self._route is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        items = _items(self.family_id, self.g, self.d, self.r)
        with _PUBLISH:  # threads that race here all return the first tuple published
            try:
                return object.__getattribute__(self, "items")
            except AttributeError:
                object.__setattr__(self, "items", items)
                return items

    def __reduce__(self) -> tuple:
        if self._route is None:
            return super().__reduce__()
        return gen_family, (self.family_id, self.g, self.d, self.r)

    def sorted_items(self) -> tuple[RelationItem, ...]:
        return tuple(sorted(self.items,
                            key=lambda it: (it.s, it.t_exp,
                                            -1 if it.u_exp is None else it.u_exp)))


def _validate_params(g: int, d: int, r: int, families: bool = True) -> None:
    """g, r >= 1 and d >= 0; the three families also need d - r + s >= 0
    for s = 1..r, which the composition sum does not."""
    if g < 1:
        raise ValueError("g must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    if families and d - r + 1 < 0:
        raise ValueError("need d - r + s >= 0 for s = 1..r")
    if d < 0:
        raise ValueError("d must be >= 0")


@lru_cache(maxsize=None)
def _p_coefficients(n: int) -> tuple[int, ...]:
    """Coefficients of P_n(u), u^0 first, certified to be integers, to vanish
    at u = -1, so that every product of them is exactly divisible by (1+u),
    and at u = 0, with P_n(-1-u) = (-1)^n P_n(u): the facts that bound the
    rank of a cell's strong8 table (``_top_echelon``)."""
    exact = p_poly(n).coeffs
    if any(c.denominator != 1 for c in exact):
        raise InvariantViolation(f"P_{n} has a non-integral coefficient")
    coeffs = tuple(c.numerator for c in exact)
    if sum(c if i % 2 == 0 else -c for i, c in enumerate(coeffs)):
        raise InvariantViolation(f"P_{n}(-1) != 0: (1+u) does not divide H(u,t)")
    flipped = [sum((-1) ** i * comb(i, j) * c for i, c in enumerate(coeffs) if i >= j)
               for j in range(len(coeffs))]
    if coeffs[0] or flipped != [(-1) ** n * c for c in coeffs]:
        raise InvariantViolation(f"P_{n}(0) != 0 or P_{n}(-1-u) != (-1)^{n} P_{n}(u)")
    return coeffs


@lru_cache(maxsize=None)
def _h_product(mono: Monomial) -> tuple[int, ...]:
    """Integer coefficients, u^0 first, of Q_m(u) = prod P_{a_i+2}(u) for
    m = (a_1..a_s), built on Q of m without its last weight.  The top one,
    at u^(2s + sum a_i), is prod (a_i+1)!."""
    if not mono:
        return (1,)
    head, tail = _h_product(mono[:-1]), _p_coefficients(mono[-1] + 2)
    out = [0] * (len(head) + len(tail) - 1)
    for i, x in enumerate(head):
        for j, y in enumerate(tail):
            out[i + j] += x * y
    return tuple(out)


def _cell_table(g: int, s: int, w: int) -> list[tuple[Monomial, int, tuple[int, ...]]]:
    """(m, orderings(m), Q_m) for each monomial m of bidegree (s, w), in order."""
    return [(m, _orderings(m), _h_product(m)) for m in monomials_of_bidegree(g, s, w)]


def _generator_rows(family_id: str, g: int, s: int, w: int, k: int):
    """(u_exp, row) of each generator of the family in cell (s, w), with
    k = d-r+s, its row the integer coefficients on the cell's monomials in
    order; none unless 2s+w > k.  vdgk6 takes G(t)^s's coefficient, strong8
    the rows A[e] = (orderings(m) [u^e] Q_m)_m of the cell table for each
    e > k, labelled e, and herbaut7 their alternating tail sum_{e>k}
    (-1)^(e-k-1) A[e], which is orderings(m) [u^k] Q_m/(1+u) since (1+u)
    divides Q_m.  So vdgk6's row is strong8's row A[2s+w], and herbaut7's
    lies in strong8's span.  Items are formed from these rows; a routed
    span reads vdgk6's and herbaut7's rows here and strong8's echelon off
    ``_top_echelon``."""
    if 2 * s + w <= k:
        return
    if family_id == "vdgk6":
        yield None, list(_g_power_coefficient(g, s, w).terms.values())  # none is zero
        return
    table = _cell_table(g, s, w)
    if family_id == "herbaut7":
        yield None, [n * (sum(q[k + 1::2]) - sum(q[k + 2::2])) for _, n, q in table]
        return
    for e in range(k + 1, 2 * s + w + 1):
        yield e, [n * q[e] for _, n, q in table]


def _items(family_id: str, g: int, d: int, r: int) -> tuple[RelationItem, ...]:
    """The nonzero generators of ``_generator_rows``, cell by cell."""
    items: list[RelationItem] = []
    for s in range(1, r + 1):
        for w in range(0, s * (g - 1) + 1):
            basis = monomials_of_bidegree(g, s, w)
            for e, row in _generator_rows(family_id, g, s, w, d - r + s):
                element = TautElement._trusted(g, dict(zip(basis, row)))
                if not element.is_zero:
                    items.append(RelationItem(s=s, t_exp=2 * s + w, u_exp=e, element=element))
    return tuple(items)


def gen_theorem1(g: int, d: int, r: int, N: int) -> TautElement:
    """The factorial-weighted composition sum of first degree r and weight N.

    Sums (a_1+1)!...(a_r+1)! C(a_1)*...*C(a_r) over all compositions of N
    into r parts (each part below g), with multiset multiplicity equal to the
    number of distinct orderings.  Only N >= d-2r+1 indexes a relation.
    """
    _validate_params(g, d, r, families=False)
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


def gen_family(family_id: str, g: int, d: int, r: int) -> RelationFamily:
    """Generate one of the three relation families, deterministically ordered.

    Items are the nonzero generators that ``_generator_rows`` picks in each
    cell: strong8 the rows e > d-r+s, herbaut7 their tail, vdgk6 the
    composition sum.  The family is routed, (family_id, d-r): its items are
    formed on first read, and its span reads its rows off the cell tables
    (``GradedSpan``), so a comparison forms no item.
    """
    _validate_params(g, d, r)
    if family_id not in ("vdgk6", "herbaut7", "strong8"):
        raise ValueError(f"unknown family {family_id!r}")
    family = object.__new__(RelationFamily)
    for name, value in (("family_id", family_id), ("g", g), ("d", d), ("r", r),
                        ("_span", None), ("_route", (family_id, d - r))):
        object.__setattr__(family, name, value)
    return family


# ---------------------------------------------------------------------------
# Graded ideal comparison
# ---------------------------------------------------------------------------

class GradedSpan:
    """Per-bidegree exact row spaces of the graded ideal a family generates.

    Rows are integer vectors in the canonical monomial basis of each
    bidegree.  The ideal's piece at (i, j), i >= 1, is spanned by the
    generators of bidegree (i, j) and the pieces (i-1, j-k) times C(k),
    0 <= k < g, since every monomial of positive size has a factor C(k).
    Multiplying by C(k) is an injective map on monomials
    (``_shift_columns``), so a shifted row is the same integers written into
    other columns, and each monomial m' of a full piece (i-1, j-k) gives the
    unit row at the column of m'*C(k): that column is covered.

    A cell takes its generators first, so its first echelon rows, up to its
    generator rank, span the bare generators of that bidegree.  When the
    covered columns are all of them, the cell is full (rank = dim) with no
    arithmetic, and it keeps only its generator rows.  Otherwise it adds the
    unit rows at the covered columns, then the echelon rows of the deficient
    cells below, shifted and with the covered columns cut, until it is full;
    its rows then span its piece.  A full cell lends the cells above it
    columns, never rows.

    A cell depends only on its generators and the cells below it, so each
    family has one span, kept on the family (``from_family``), and a cell is
    built the first time it is read.

    The generator rows come by one of two routes, which give every cell the
    same generator span.  A family that ``gen_family`` made carries its
    route (family_id, d-r), and its items are never read: with k = d-r+i, a
    cell with 2i+j > k reads its rows off the cell table, and only when it
    is built.  strong8 starts from the first ``ranks[k+1]`` echelon rows of
    the cell's shared table (``_top_echelon``); vdgk6 and herbaut7 insert
    their one row of ``_generator_rows``.  Every other family (read from
    JSON, built by hand or edited) has its items checked for genus and
    homogeneity, scales each to integers and inserts the rows in item order.
    """

    def __init__(self, family: RelationFamily) -> None:
        self.g, self.r, self.route = family.g, family.r, family._route
        self.generators: dict[tuple[int, int], list[list[int]]] = {}
        for item in family.items if self.route is None else ():
            if item.element.g != self.g:
                raise ValueError(f"item at s={item.s}, t^{item.t_exp} is in genus "
                                 f"{item.element.g}, its family in genus {self.g}")
            terms = item.element.terms
            if not terms:
                continue
            bideg = item.element.bidegree()
            if bideg != item.bidegree:
                raise InvariantViolation(
                    f"item at s={item.s}, t^{item.t_exp} is not homogeneous "
                    f"of the labeled bidegree")
            # integers: a nonzero scalar changes neither span nor ideal, and
            # ``RowSpace.add`` divides each reduced row by its gcd
            den = lcm(*(c.denominator for c in terms.values()))
            self.generators.setdefault(bideg, []).append(
                [int(terms.get(m, 0) * den) for m in monomials_of_bidegree(self.g, *bideg)])
        self.cells: dict[tuple[int, int], tuple[RowSpace, int, int]] = {}

    @classmethod
    def from_family(cls, family: RelationFamily) -> "GradedSpan":
        """The family's shared span."""
        span = family._span
        if span is None:
            span = cls(family)
            object.__setattr__(family, "_span", span)
        return span

    def cell(self, i: int, j: int) -> tuple[RowSpace, int, int]:
        """The cell (i, j): its row space, generator rank and ideal rank.

        The space starts from the generators' echelon rows, read off the
        shared tables or the items (see the class), and holds, when the rank
        is below the dimension, rows that span the ideal's piece."""
        found = self.cells.get((i, j))
        if found is not None:
            return found
        dim = len(monomials_of_bidegree(self.g, i, j))
        space = self._generator_space(i, j, dim)
        generator_rank = rank = space.rank
        if i and rank < dim:
            lower = [(_shift_columns(self.g, i, j, k), self.cell(i - 1, j - k))
                     for k in range(min(self.g, j + 1))]
            # a full cell below covers every column its monomials reach
            covered = {c for shift, (_, _, n) in lower if n == len(shift) for c in shift}
            rank = dim
            if len(covered) < dim:
                for row in _cut_rows(lower, covered, dim):
                    if space.add(row) and space.rank == dim:
                        break
                rank = space.rank
        found = self.cells[(i, j)] = (space, generator_rank, rank)
        return found

    def generator_cells(self) -> Iterable[tuple[int, int]]:
        """The bidegrees of the generators: the items' (in item order), or
        for a routed family every cell above the cut, as ``_items`` runs."""
        if self.route is None:
            return self.generators
        cut = self.route[1]
        return ((i, j) for i in range(1, self.r + 1)
                for j in range(max(0, cut - i + 1), i * (self.g - 1) + 1))

    def _generator_space(self, i: int, j: int, dim: int) -> RowSpace:
        """The echelon rows of the generators of bidegree (i, j)."""
        space = RowSpace(dim)
        if self.route is None:
            for row in self.generators.get((i, j), ()):
                space.add(row)
            return space
        family_id, cut = self.route
        if not dim or not 1 <= i <= self.r or i + j <= cut:  # no generator: 2i+j <= k
            return space
        if family_id == "strong8":
            pivots, ranks = _top_echelon(self.g, i, j)
            space.pivots.update(pivots[:ranks[cut + i + 1]])
        else:
            for _, row in _generator_rows(family_id, self.g, i, j, cut + i):
                space.add(row)
        return space


@lru_cache(maxsize=None)
def _top_echelon(g: int, s: int, w: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...],
                                                  tuple[int, ...]]:
    """The echelon rows of the rows A[e] = (orderings(m) [u^e] Q_m)_m of
    cell (s, w), inserted from e = 2s+w down, and ``ranks[e]``, the rank of
    the rows e..2s+w (``ranks[2s+w+1] = 0``).  Strong8's generators in the
    cell are the rows e > d-r+s, so their span is the first
    ``ranks[d-r+s+1]`` echelon rows; no other family reads the table.

    Since P_n(0) = P_n(-1) = 0 and P_n(-1-u) = (-1)^n P_n(u) (certified in
    ``_p_coefficients``), every Q_m is (u(1+u))^s times a polynomial f of
    degree w with f(-1-u) = (-1)^w f(u), a space of dimension
    floor(w/2) + 1 that holds every column of A; once the rank reaches
    that, or the cell's dimension, no further row is inserted."""
    table = _cell_table(g, s, w)
    bound = min(len(table), w // 2 + 1)
    space = RowSpace(len(table))
    ranks = [0]
    for e in range(2 * s + w, -1, -1):
        if space.rank < bound:
            space.add([n * q[e] for _, n, q in table])
        ranks.append(space.rank)
    return tuple(space.pivots.items()), tuple(reversed(ranks))


@lru_cache(maxsize=None)
def _shift_columns(g: int, i: int, j: int, k: int) -> tuple[int, ...]:
    """The column of m'*C(k) in cell (i, j), for each monomial m' of cell
    (i-1, j-k) in order."""
    column = {m: c for c, m in enumerate(monomials_of_bidegree(g, i, j))}
    return tuple(column[_mono_mul(m, (k,))] for m in monomials_of_bidegree(g, i - 1, j - k))


def _cut_rows(lower, covered: set[int], dim: int):
    """Unit rows at the covered columns, then the echelon rows of the
    deficient lower cells times C(k), with the covered columns cut."""
    for c in sorted(covered):
        yield [int(x == c) for x in range(dim)]
    for shift, (below, _, n) in lower:
        if n < len(shift):
            for piv in below.pivots.values():
                row = [0] * dim
                for c, x in zip(shift, piv):
                    if c not in covered:
                        row[c] = x
                yield row


def _joint_rank(a: RowSpace, a_rows: int, b: RowSpace, b_rows: int) -> int:
    """Rank of a's first a_rows and b's first b_rows echelon rows together."""
    if a_rows < b_rows:
        a, a_rows, b, b_rows = b, b_rows, a, a_rows
    joint = RowSpace(a.ncols, islice(a.pivots.items(), a_rows))
    for row in islice(b.pivots.values(), b_rows):
        if joint.rank == joint.ncols:
            break
        joint.add(row)
    return joint.rank


class CellComparison(NamedTuple):
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


class IdealComparison(NamedTuple):
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


def compare_ideals(f1: RelationFamily, f2: RelationFamily) -> IdealComparison:
    """Decide per-bidegree whether two families generate the same graded ideal.

    Both the ideal pieces (generators times all complementary monomials) and
    the bare generator spans are compared; equality holds in a cell when each
    family's rank equals the rank of the concatenation, in the cells (i, j)
    with 1 <= i <= r and j <= r(g-1); a generator beyond them raises
    ``TruncationError``.  Each family's span is built once and shared by
    every comparison it enters.  When both families are routed and one is
    strong8, the other's generators lie in strong8's span cell by cell (see
    ``_generator_rows``), so strong8's ranks are the joint ranks.
    """
    if (f1.g, f1.d, f1.r) != (f2.g, f2.d, f2.r):
        raise ValueError("families must share the same (g, d, r)")
    g, d, r = f1.g, f1.d, f1.r
    i_max, j_max = r, r * (g - 1)
    span1, span2 = GradedSpan.from_family(f1), GradedSpan.from_family(f2)
    top = None  # the side whose ranks are the joint ranks, by inclusion
    if span1.route and span2.route:
        top = 1 if f2.family_id == "strong8" else 0 if f1.family_id == "strong8" else None
    # a routed family lies in the window by construction
    for family, span in ((f1, span1), (f2, span2)):
        for s, w in span.generators:
            if s > i_max or w > j_max:
                raise TruncationError(f"window ({i_max}, {j_max}) misses the "
                                      f"{family.family_id} generator of bidegree ({s}, {w})")
    cells = []
    for i in range(1, i_max + 1):
        for j in range(0, j_max + 1):
            (a, a_gens, a_rank), (b, b_gens, b_rank) = span1.cell(i, j), span2.cell(i, j)
            if not (a_rank or b_rank):
                continue
            dim, ranks, gens = a.ncols, (a_rank, b_rank), (a_gens, b_gens)
            if top is not None:
                ideal_joint, span_joint = ranks[top], gens[top]
            else:
                ideal_joint = dim if dim in ranks else _joint_rank(a, a_rank, b, b_rank)
                span_joint = dim if dim in gens else _joint_rank(a, a_gens, b, b_gens)
            cells.append(CellComparison(i=i, j=j, dim=dim, ideal_ranks=ranks,
                                        ideal_joint=ideal_joint, span_ranks=gens,
                                        span_joint=span_joint))
    return IdealComparison(family_ids=(f1.family_id, f2.family_id),
                           g=g, d=d, r=r, i_max=i_max, j_max=j_max,
                           cells=tuple(cells))


def span_contains(f_sub: RelationFamily, f_sup: RelationFamily) -> bool:
    """True when every item of f_sub lies in the per-bidegree span of f_sup.

    The cells come from f_sub's span (``GradedSpan.generator_cells``), so no
    routed family forms its items; when both are routed and f_sup is
    strong8, the inclusion answers (see ``compare_ideals``)."""
    if (f_sub.g, f_sub.d, f_sub.r) != (f_sup.g, f_sup.d, f_sup.r):
        raise ValueError("families must share the same (g, d, r)")
    sub, sup = GradedSpan.from_family(f_sub), GradedSpan.from_family(f_sup)
    if sub.route and sup.route and f_sup.family_id == "strong8":
        return True
    for i, j in sub.generator_cells():
        rows, row_rank, _ = sub.cell(i, j)
        space, generator_rank, _ = sup.cell(i, j)
        if _joint_rank(space, generator_rank, rows, row_rank) > generator_rank:
            return False
    return True


# ---------------------------------------------------------------------------
# Series bookkeeping: eps(x,t) and the implication chain
# ---------------------------------------------------------------------------

class EpsilonReport(NamedTuple):
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
    _log_ladder(g + 1, x_order)  # every power read below, built at once
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


@lru_cache(maxsize=_CACHE_SIZE)
def _power_law_ok(n: int, x_order: int) -> bool:
    """L^-n * L = L^-(n-1) on its window, with L = log(1+x) and L^0 = 1."""
    below = _bare_log_inv_pow(n - 1, x_order) if n > 1 else LaurentSeries.monomial(0)
    return (_bare_log_inv_pow(n, x_order) * log1p_series(x_order + n)).agrees_with(below)


@lru_cache(maxsize=_CACHE_SIZE)
def _generator_split_ok(n: int, x_order: int) -> bool:
    """P_n(1/x) = (n-1)! L^-n + e_{n-2} on its window, P_n read off the
    integers that ``_h_product`` multiplies."""
    return LaurentSeries(-n, reversed(_p_coefficients(n))).agrees_with(
        _bare_log_inv_pow(n, x_order) * factorial(n - 1) + _e_part(n, x_order))


class ScalarCheck(NamedTuple):
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


class DegreeBoundCheck(NamedTuple):
    s: int
    bound: int
    min_x_exponent: int
    certified: bool


class ChainReport(NamedTuple):
    """Checks (a)-(c) of ``verify_implication_chain``.  ``x_order`` records
    the x-window the series were known below, 2(g+2).  ``identity9_ok``
    holds when L^-n * L = L^-(n-1), L = log(1+x), for n <= r(g+1), and
    P_n(1/x) = (n-1)! L^-n + e_{n-2} for n = a+2, a < g: the facts that the
    distributive law at every monomial of the window follows from.  The
    power law is also what certifies the powers themselves: they come off
    ``combinat``'s derivative ladder, and the law checks them by products,
    which share no code with it.

    Check (b) is the valuation lemma.  With the vdgk6 relations rewritten to
    zero, a kept term at m = (a_1..a_s) is G_S * prod_{i not in S} e_{a_i},
    G_S a positive integer times L^-N, N = |S| + k with cut weight
    k = |S| + sum_{i in S} a_i <= d-r (S empty always kept).  So once
    every e_a has valuation >= 0, no kept term has an x-exponent below
    -max N, the ``min_x_exponent`` of ``DegreeBoundCheck``, and it is
    known below min(trunc L^-N, val L^-N + min_a trunc e_a).  The floor
    is attained: by S = m when d-r >= s (the only term at -N), else by
    |S| = d-r zero weights, since e_0 has valuation exactly 0."""

    g: int
    d: int
    r: int
    x_order: int
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


def verify_implication_chain(g: int, d: int, r: int) -> ChainReport:
    """Certify the series steps that tie the three families together.

    Every series involved is linear in the generators and C(a) carries
    t^(a+2), so each check reads scalar series over Q, exactly in t; only
    the x-order truncates, at the fixed window 2(g+2) that
    ``ChainReport.x_order`` records.  No check forms a product per
    monomial, and every series it reads is cached, so a warm d does no
    series arithmetic.

    (a) The binomial identity H(1/x,t)^s = sum_{s'} C(s,s') G(t/log(1+x))^s'
        eps^(s-s') holds for s = 1..r: at a monomial it is the distributive
        law for prod (g_{a_i} + e_{a_i}), certified by the facts it follows
        from (see ``ChainReport``).
    (b) With the vdgk6 vanishing rewritten into G's powers, the right-hand
        side is certified to contain no x-exponent below -(d-r+s), by the
        valuation lemma (see ``ChainReport``).
    (c) The extraction scalar, the x^-(d-r+s) coefficient of
        x/(1+x) * log(1+x)^-n, equals (d-r+s)!/(n-1)! S(n-1, d-r+s) and is
        nonzero for every n > d-r+s.
    """
    _validate_params(g, d, r)
    x_order = 2 * (g + 2)
    _log_ladder(r * (g + 1), x_order)  # every power read below, built at once
    identity9_ok = (all(_power_law_ok(n, x_order) for n in range(1, r * (g + 1) + 1))
                    and all(_generator_split_ok(a + 2, x_order) for a in range(g)))
    e_parts = [_e_part(a + 2, x_order) for a in range(g)]
    e_ok = all(e.valuation >= 0 for e in e_parts)
    e_trunc = min(e.trunc for e in e_parts)
    degree_checks: list[DegreeBoundCheck] = []
    for s in range(1, r + 1):
        bound = -(d - r + s)
        # max N over the kept (S, m): S = m, or d-r zero weights if d-r < s
        top = s + min(d - r, s * g) if d - r >= s else 2 * max(d - r, 0)
        powers = [_bare_log_inv_pow(n, x_order) for n in range(1, top + 1)]
        floor = min((p.valuation for p in powers), default=0)
        window = min([e_trunc] + [min(p.trunc, p.valuation + e_trunc) for p in powers])
        degree_checks.append(DegreeBoundCheck(
            s=s, bound=bound, min_x_exponent=floor,
            certified=e_ok and window >= bound and floor >= bound))

    scalar_checks: list[ScalarCheck] = []
    # x/(1+x), wide enough that the product window always covers x^-m
    geom_order = max(x_order, r * (g + 1) + 2)
    geom = LaurentSeries(1, [(-1) ** i for i in range(geom_order)], geom_order + 1)
    for s in range(1, r + 1):
        m = d - r + s
        for n in range(m + 1, s * (g + 1) + 1):
            value = geom.product_coeff(_bare_log_inv_pow(n, x_order), -m)
            expected = Fraction(factorial(m), factorial(n - 1)) * stirling2(n - 1, m)
            scalar_checks.append(ScalarCheck(s=s, n=n, m=m, value=value,
                                             expected=expected))

    return ChainReport(g=g, d=d, r=r, x_order=x_order, identity9_ok=identity9_ok,
                       degree_bounds=tuple(degree_checks), scalar_checks=tuple(scalar_checks))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

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
    """The family of ``family_to_jsonable``.  Coefficients are strings or
    integers (a JSON float or boolean raises ``TypeError``), with g, r >= 1
    and d >= 0 (else ``ValueError``); the family name is a string; the
    coefficients of one monomial, in any order of its weights, add up."""
    g = data["g"]
    for key, value in [("g", g), ("d", data["d"]), ("r", data["r"])] + [
            (k, e[k]) for e in data["items"] for k in ("s", "t_exp", "u_exp") if k in e]:
        if type(value) is not int:
            raise TypeError(f"{key} must be an int: {value!r}")
    if not isinstance(data["family"], str):
        raise TypeError(f"family must be a str: {data['family']!r}")
    _validate_params(g, data["d"], data["r"], families=False)
    items = []
    for entry in data["items"]:
        terms: dict[Monomial, int | Fraction] = {}
        for term in entry["element"]:
            mono, coeff = _canonical_monomial(g, term["monomial"]), term["coeff"]
            terms[mono] = terms.get(mono, 0) + (Fraction(coeff) if isinstance(coeff, str)
                                                else _rational(coeff))
        items.append(RelationItem(s=entry["s"], t_exp=entry["t_exp"],
                                  element=TautElement(g, terms), u_exp=entry.get("u_exp")))
    return RelationFamily(data["family"], g, data["d"], data["r"], tuple(items))


def family_from_json(text: str) -> RelationFamily:
    return family_from_jsonable(json.loads(text))
