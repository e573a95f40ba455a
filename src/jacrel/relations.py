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
coefficient orderings(m) * Q_m(u) in H(u,t)^s, Q_m(u) = prod P_{a_i+2}(u).
With v = u(1+u), P_n = v (1+2u)^(n mod 2) pi_n(v) (``_pi_coefficients``), so
Q_m = v^s (1+2u)^eps F_m(v), eps = w mod 2, and each cell has one table F
of floor(w/2)+1 rows (orderings(m) [v^i] F_m)_m (``_f_table``).  Every
family's row is one combination of F's rows (``_f_row``), for items and
spans alike (``_generator_rows``): with k = d-r+s, strong8's rows are the
u^e rows of orderings(m) Q_m for e > k, vdgk6's is the top row 2^eps F[D],
G(t)^s's coefficient since G(t) is the top-u part of H(u,t), and
herbaut7's is the u^k row of orderings(m) Q_m/(1+u).  theorem1 and the GRR
check read G(t)^s's coefficient as the composition sum
orderings(m) prod (a_i+1)!, with no product (``_g_power_coefficient``).

``compare_ideals`` decides, bidegree by bidegree and by exact rank
computations, whether two families generate the same graded ideal; it also
reports the weaker per-bidegree span comparison of the bare generators and
flags any parameter set where the two notions differ.  Its rows are integer
vectors, and multiplying by C(k) only moves a row's entries to other columns
(see ``GradedSpan``).  A family that ``gen_family`` made is routed: it
forms its items only on first read, and its span reads its rows off F:
strong8's generators span a suffix of F, vdgk6's row is its last row and
herbaut7's a combination of the suffix, so both lie in strong8's span.  A
routed family's cell (i, j) depends only on its route key (family_id, g,
d-r), so there is one span per route key (``_SPANS``), shared across r,
and the three spans of one (g, d-r) share one elimination per cell
(``GradedSpan.joint``).  Every other family (read from JSON, built by hand
or edited) reduces its own item rows, each scaled once to integers.  A
cell whose columns the full cells below it all reach is full with no
elimination, and a pair with a side that reaches the bound (the cell's
dimension, or for two routed families strong8's rank) has that bound as
its joint rank; only the other cells are reduced.  The spans, a routed
family's items, and the ``lru_cache``s (the column maps of C(k),
``_shift_columns``, the tables F and their suffix ranks among them) are
the shared state; a span publishes a cell, and strong8's a joint cell,
only once complete, and the first published is the one every reader
gets, so racing threads at most build a cell twice, with the same rows;
the first span published for a route key is the one every family of that
key reads, and the first complete item tuple published, under a lock, is
the one every thread reads.

``epsilon_series`` and ``verify_implication_chain`` replay the series
bookkeeping connecting the families: the substitution defect
eps(x,t) = H(1/x,t) - G(t/log(1+x)), the binomial expansion of H(1/x,t)^s in
terms of it, the degree bound it yields once the vdgk6 relations are
rewritten to zero, and the Stirling-coefficient nonvanishing that closes the
chain.  All three series are linear in the generators, so each is a scalar
Laurent series over Q per generator: h_a = P_{a+2}(1/x) in H(1/x,t),
g_a = (a+1)! L^-(a+2), L = log(1+x), in G(t/log(1+x)), and e_a = h_a - g_a
in eps (``_e_part``).  At a monomial m = (a_1..a_s) the expansion is the
distributive law for prod (g_{a_i} + e_{a_i}), a sum over position sets S.
h_a = g_a + e_a is ``_e_part``'s definition, so the one fact the law needs
beyond it is certified once per power and window (``_power_law_ok``): the
cached powers of L multiply as powers (the power law).  The degree bound is
the paper's valuation lemma (see ``ChainReport``): it reads the valuations
and windows of the cached e_a and L^-N, forms no product and visits no
monomial.  The extraction scalar [x^-m] x/(1+x) L^-n reads only L^-n's
principal part, so it is computed once per (n, m) (``_extraction_scalar``).

Note that eps has x-exponents >= 0 but genuinely nonzero x^0 terms
(Bernoulli values B_n/n for even n = a+2), so the sharpest certifiable bound
is O(t^2) with no negative x-powers, not O(x t^2).
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, lcm
from threading import Lock
from typing import Iterable, NamedTuple

from .combinat import _bare_log_inv_pow, p_poly, principal_part, stirling2
from .linalg import RowSpace
from .rings import (LaurentSeries, TruncationError, InvariantViolation, Value, _convolve,
                    _rational, log1p_series)
from .tautalg import (Monomial, TautElement, _canonical_monomial, _g_power_coefficient,
                      _mono_mul, element_to_jsonable, monomials_of_bidegree)


# Bound on the chain's caches, ``_e_part``, ``_power_law_ok`` and
# ``_extraction_scalar``: the criterion-6b grid fills 18, 21 and 65.
_CACHE_SIZE = 4096

# publishes a routed family's items and any family's span
_PUBLISH = Lock()
# the span of each route key (family_id, g, d-r), first published wins
_SPANS: dict[tuple[str, int, int], "GradedSpan"] = {}


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
    nor ``repr``: ``_span``, the family's ``GradedSpan`` (on a routed family
    the one span of its route key, shared across r), and ``_route``,
    (family_id, d-r) on a family that ``gen_family`` made (d-r may be 0 or
    -1; never serialized).  A routed family is its parameters: its items are
    formed on first read and published complete, its span reads its
    generator rows off the tables F, and a copy is ``gen_family``'s
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
def _pi_coefficients(n: int) -> tuple[int, ...]:
    """Coefficients of pi_n(v), v^0 first: pi_2k = sum_j (2j+1)! T(2k, 2j+2)
    v^j, and pi_(2k+1) the same sum with each term times j+1, where T are
    the central factorial numbers, T(2n, 2m) = T(2n-2, 2m-2) +
    m^2 T(2n-2, 2m) (Riordan, Combinatorial Identities, 1968).  P_n is read
    once, as ``p_poly(n).coeffs``: each coefficient must be an integer, and
    v (1+2u)^(n mod 2) pi_n(v), expanded in u, must equal them, else
    ``InvariantViolation``.  This certifies the factorization the tables F
    rest on, so P_n(0) = P_n(-1) = 0 and P_n(-1-u) = (-1)^n P_n(u)."""
    row = [1]  # T(2k, 2m), m = 0..k, for k up to n // 2
    for k in range(1, n // 2 + 1):
        row = [(row[m - 1] if m else 0) + m * m * (row[m] if m < k else 0)
               for m in range(k + 1)]
    pi = tuple((j + 1 if n % 2 else 1) * factorial(2 * j + 1) * row[j + 1]
               for j in range(n // 2))
    expanded = [0]
    for c in reversed(pi):  # Horner's rule in v = u + u^2
        expanded = _convolve(expanded, (0, 1, 1))
        expanded[0] += c
    expanded = _convolve(expanded, (0, 1, 1) if n % 2 == 0 else (0, 1, 3, 2))
    exact = p_poly(n).coeffs
    if any(c.denominator != 1 for c in exact):
        raise InvariantViolation(f"P_{n} has a non-integral coefficient")
    if tuple(expanded[:n + 1]) != exact or any(expanded[n + 1:]):
        raise InvariantViolation(f"pi_{n}'s closed form does not reproduce P_{n}")
    return pi


@lru_cache(maxsize=None)
def _f_table(g: int, s: int, w: int) -> tuple[tuple[int, ...], ...]:
    """Rows i = 0..D, D = floor(w/2), of F: (orderings(m) [v^i] F_m)_m over
    the monomials m = (a_1..a_s) of bidegree (s, w), where
    Q_m = v^s (1+2u)^eps F_m(v), eps = w mod 2, so
    F_m = (1+4v)^((o-eps)/2) prod pi_(a_i+2)(v), o odd weights.  The cell
    table's rows are A = Phi F, column i of Phi the u-coefficients of
    v^s (1+2u)^eps v^i.  Each column is one product on the column of m
    without its first weight a_1, in the table of (s-1, w-a_1), with 1+4v
    folded in when a_1 and w-a_1 are odd.  Every g >= w+1 has the
    monomials, and the table, of g = w+1."""
    if g > w + 1:
        return _f_table(w + 1, s, w)
    if not s:
        return ((1,),) if not w else ()
    columns = []
    for a in range(min(g - 1, w), -1, -1):  # the first weight, as ``_compositions``
        if w - a > (s - 1) * a:
            break
        rest = monomials_of_bidegree(g, s - 1, w - a)
        factor = _pi_coefficients(a + 2)
        if a % 2 and (w - a) % 2:
            factor = _convolve(factor, (1, 4))
        first = next(c for c, m in enumerate(rest) if not m or m[0] <= a)
        for c, column in enumerate(tuple(zip(*_f_table(g, s - 1, w - a)))[first:], first):
            n = 1 + rest[c].count(a)  # orderings(m) = orderings(rest) * s / n
            columns.append(_convolve([x * s // n for x in column], factor))
    return tuple(zip(*columns))


def _suffix_start(s: int, w: int, k: int) -> int:
    """i0: strong8's generators A[e], e > k, in cell (s, w) span exactly
    F[i0:], since Phi's rows e > k vanish on the columns i < i0 and are
    triangular with nonzero diagonal on the others."""
    return max(0, (k - 2 * s - w % 2) // 2 + 1)


@lru_cache(maxsize=None)
def _suffix_ranks(g: int, s: int, w: int) -> tuple[int, ...]:
    """``ranks[i]``, i = 0..D+1, the rank of F[i:] (strong8's generator rank
    at i = i0): the number of leading degrees >= i in an echelon basis of U,
    the span of F's columns F_m read from v^D down, since those of degree
    < i span U's part of degree < i.  The last column comes first only
    because it fills U sooner; the order changes no rank.  Keyed like F."""
    if g > w + 1:
        return _suffix_ranks(w + 1, s, w)
    rows = _f_table(g, s, w)
    space = RowSpace(len(rows))
    space.fill([row[m] for row in reversed(rows)] for m in reversed(range(len(rows[0]))))
    return tuple(accumulate((c in space.pivots for c in range(len(rows))), initial=0))[::-1]


def _f_row(g: int, s: int, w: int, e: int, divided: int) -> list[int]:
    """Row e of the cell table A = Phi F, (orderings(m) [u^e] Q_m)_m, or
    with divided = 1 that of Q_m/(1+u): sum_i lambda_i F[i], with
    lambda_i = [u^(e-s-i)] (1+u)^(s+i-divided) (1+2u)^eps, zero for i < i0."""
    out = [0] * len(monomials_of_bidegree(g, s, w))
    for i, row in enumerate(_f_table(g, s, w)):
        n, c = s + i - divided, e - s - i
        weight = (comb(n, c) if c >= 0 else 0) + (2 * comb(n, c - 1) if w % 2 and c >= 1 else 0)
        if weight:
            out = [x + weight * y for x, y in zip(out, row)]
    return out


def _generator_rows(family_id: str, g: int, s: int, w: int, k: int):
    """(u_exp, row) of each generator of the family in cell (s, w), with
    k = d-r+s, its row the integer coefficients on the cell's monomials in
    order, off F (``_f_row``); none unless 2s+w > k.  strong8 takes the
    rows e > k, labelled e, vdgk6 the top row 2s+w, which is 2^eps F[D],
    G(t)^s's coefficient, and herbaut7 orderings(m) [u^k] Q_m/(1+u)."""
    if family_id == "strong8":
        yield from ((e, _f_row(g, s, w, e, 0)) for e in range(k + 1, 2 * s + w + 1))
    elif 2 * s + w > k:
        yield None, _f_row(g, s, w, *((2 * s + w, 0) if family_id == "vdgk6" else (k, 1)))


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
    formed on first read, and its span reads the same rows off the tables F
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
    generators of bidegree (i, j) and L, the pieces (i-1, j-k) times C(k),
    0 <= k < g, since every monomial of positive size has a factor C(k).
    Multiplying by C(k) is an injective map on monomials
    (``_shift_columns``), so a shifted row is the same integers written into
    other columns, and each monomial m' of a full piece (i-1, j-k) gives the
    unit row at the column of m'*C(k): that column is covered.  When the
    covered columns are all of them, L is full (rank = dim) with no
    arithmetic.  Otherwise L is spanned by the unit rows at the covered
    columns and the echelon rows of the deficient cells below, shifted and
    with the covered columns cut (``_grow``), added until the cell is full.
    A full cell lends the cells above it columns, never rows.

    A cell is (space, generator rank, rank); when the rank is below the
    dimension, the space's rows span the piece.  A cell depends only on its
    generators and the cells below it, is built the first time it is read,
    and is published once complete: the first published is the one every
    reader gets.

    Every cell takes L's rows first and its generators' last.  A span
    takes its generator rows from the family's items or, for a routed
    family, from F, and both give every cell the same generator span.  A
    family read from JSON, built by hand or edited passes its items
    (``GradedSpan(g, items=...)``): they are checked for genus and
    homogeneity, scaled to integers and reduced once, into one echelon
    space per bidegree (``generators``, which no reader changes), and the
    span reduces its own cells (``_reduce``).  Its span is its own, kept
    on the family.

    A family that ``gen_family`` made carries its route (family_id, d-r),
    its span is built from g and the route alone (``GradedSpan(g, route)``),
    and its items are never read: with k = d-r+i, its generators sit at the
    cells with i >= 1 and 2i+j > k, read off F: strong8's span is the
    suffix F[i0:] (``_suffix_start``), of rank ``_suffix_ranks``, and
    vdgk6's and herbaut7's rows are their items' rows, 2^eps F[D] and
    lambda F; where rows are read (``span_contains``, or a comparison with
    an unrouted family) each reduces its own (``_generator_rows``).  Such
    a span carries no r: one span per route key (family_id, g, d-r) serves
    every r (``from_family``).  The three routed spans of one (g, d-r) share
    one elimination per cell, kept on strong8's span (``joint``): L is
    reduced once, vdgk6's and herbaut7's rows are tested for membership in
    L, and F[i0:] is added, which gives strong8's piece.  By induction on i:
    if a family's pieces equal strong8's in every cell below (i, j), its L
    is strong8's, so its piece is L plus its row, of rank rank(L) + [row
    not in L], inside strong8's piece; it equals strong8's exactly when the
    ranks agree, and the cell is then strong8's.  Where they differ, or a
    cell below differed, the family reduces its own cell from its own cells
    below (on the grids tested, only herbaut7 at d-r = -1, which is empty:
    its row at s is the u^(s-1) row of orderings(m) Q_m/(1+u), and Q_m has
    u-valuation s).
    """

    def __init__(self, g: int, route: tuple[str, int] | None = None,
                 items: Iterable[RelationItem] = ()) -> None:
        self.g, self.route = g, route
        self.generators: dict[tuple[int, int], RowSpace] = {}
        for item in items:
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
            basis = monomials_of_bidegree(self.g, *bideg)
            self.generators.setdefault(bideg, RowSpace(len(basis))).add(
                [int(terms.get(m, 0) * den) for m in basis])
        self.cells: dict[tuple[int, int], tuple[RowSpace, int, int]] = {}
        # on strong8's routed span: the joint cells its route key shares
        self.joints: dict[tuple[int, int], _JointCell] = {}
        self.top = None  # a routed span's strong8 span of the same key
        if self.route is not None:
            self.top = (self if self.route[0] == "strong8"
                        else _route_span("strong8", self.g, self.route[1]))

    @classmethod
    def from_family(cls, family: RelationFamily) -> "GradedSpan":
        """The family's span, kept on the family: for a routed family the
        one span of its route key (family_id, g, d-r), shared across r."""
        span = family._span
        if span is None:
            span = (cls(family.g, items=family.items) if family._route is None
                    else _route_span(family.family_id, family.g, family._route[1]))
            with _PUBLISH:  # threads that race here all return the first span published
                if family._span is None:
                    object.__setattr__(family, "_span", span)
                span = family._span
        return span

    def cell(self, i: int, j: int) -> tuple[RowSpace, int, int]:
        """The cell (i, j): its row space, generator rank and ideal rank."""
        found = self.cells.get((i, j))
        if found is None:
            found = self.cells.setdefault((i, j), self._build(i, j))
        return found

    def _build(self, i: int, j: int) -> tuple[RowSpace, int, int]:
        """The cell: a routed span's is its joint cell where the family's
        piece is strong8's, every other cell is reduced."""
        dim = len(monomials_of_bidegree(self.g, i, j))
        if self.route is None:
            return self._reduce(i, j, dim)
        joint = self.top.joint(i, j)
        if self.route[0] == "strong8":  # generators at i >= 1, 2i+j > k
            k = self.route[1] + i
            n = (_suffix_ranks(self.g, i, j)[_suffix_start(i, j, k)]
                 if dim and i and 2 * i + j > k else 0)
            return joint.space, n, joint.rank
        generator_rank, rank = joint.routed[self.route[0]]
        if rank != joint.rank:  # None unless every cell below agreed
            return self._reduce(i, j, dim)
        return joint.space, generator_rank, rank

    def joint(self, i: int, j: int) -> "_JointCell":
        """The joint cell (i, j) of strong8's routed span (see
        ``_JointCell``), from the joint cells below."""
        found = self.joints.get((i, j))
        if found is not None:
            return found
        g, cut = self.g, self.route[1]
        dim = len(monomials_of_bidegree(g, i, j))
        below = [(_shift_columns(g, i, j, k), self.joint(i - 1, j - k)) for k in self._below(i, j)]
        space = RowSpace(dim)
        rank = rank_below = _grow(space, [(shift, c.space, c.rank) for shift, c in below], dim)
        generators = {"vdgk6": 0, "herbaut7": 0}
        ranks = dict.fromkeys(generators, rank_below)
        pair = 0
        if dim and i and i + j > cut:  # generators: 2i+j > k
            rows, herbaut7 = _f_table(g, i, j), _f_row(g, i, j, cut + i, 1)
            top = rows[-1]  # vdgk6's row, with no zero entry
            generators = {"vdgk6": 1, "herbaut7": int(any(herbaut7))}
            pair = 1 + any(x * top[0] != y * herbaut7[0] for x, y in zip(herbaut7, top))
            if rank_below < dim:
                ranks["herbaut7"] += not space.contains(herbaut7)
                ranks["vdgk6"] += space.add(top)  # strong8's first row too
                rank = space.fill(reversed(rows[_suffix_start(i, j, cut + i):-1]))
        routed = {f: (n, ranks[f] if all(c.routed[f][1] == c.rank for _, c in below) else None)
                  for f, n in generators.items()}
        return self.joints.setdefault((i, j), _JointCell(space, rank, routed, pair))

    def _reduce(self, i: int, j: int, dim: int) -> tuple[RowSpace, int, int]:
        """The cell from the span's own cells below, then its generators."""
        space, generators = RowSpace(dim), self._generator_space(i, j, dim)
        lower = [(_shift_columns(self.g, i, j, k), *self.cell(i - 1, j - k)[::2])
                 for k in self._below(i, j)]
        rank = _grow(space, lower, dim)
        if rank < dim:
            rank = space.fill(generators.pivots.values())
        return space, generators.rank, rank

    def _below(self, i: int, j: int) -> range:
        """The k whose cell (i-1, j-k) has a monomial: j-k <= (i-1)(g-1)."""
        if not i:
            return range(0)
        return range(max(0, j - (i - 1) * (self.g - 1)), min(self.g, j + 1))

    def generator_cells(self, r: int) -> Iterable[tuple[int, int]]:
        """The bidegrees of the generators: the items' (in item order), or
        for a routed family at r every cell above the cut with i <= r, as
        ``_items`` runs."""
        if self.route is None:
            return self.generators
        cut = self.route[1]
        return ((i, j) for i in range(1, r + 1)
                for j in range(max(0, cut - i + 1), i * (self.g - 1) + 1))

    def _generator_space(self, i: int, j: int, dim: int) -> RowSpace:
        """The echelon rows of the generators of bidegree (i, j): the kept
        space of the items' rows, or a routed family's rows off F
        (``_generator_rows``)."""
        if self.route is None:
            return self.generators.get((i, j)) or RowSpace(dim)
        space = RowSpace(dim)
        if i >= 1:
            family_id, cut = self.route
            space.fill(row for _, row in _generator_rows(family_id, self.g, i, j, cut + i))
        return space


class _JointCell(NamedTuple):
    """The cell the routed spans of one (g, d-r) share: ``space`` holds the
    echelon rows of L, then F[i0:]'s from F[D] (vdgk6's row) down, up to
    strong8's ``rank``; ``routed`` maps vdgk6 and herbaut7 to (generator
    rank, rank(L) + [row not in L], or None unless every cell below agreed
    with strong8's); ``pair`` is the rank of their two rows."""

    space: RowSpace
    rank: int
    routed: dict[str, tuple[int, int | None]]
    pair: int


def _grow(space: RowSpace, lower, dim: int) -> int:
    """Adds L's rows to the space until it is full, from the cells below as
    (shift, space, rank); returns the rank reached, dim when the covered
    columns are all of them."""
    covered = {c for shift, _, n in lower if n == len(shift) for c in shift}
    if len(covered) == dim:
        return dim
    return space.fill(_cut_rows(lower, covered, dim))


def _route_span(family_id: str, g: int, cut: int) -> GradedSpan:
    """The one span of the route key (family_id, g, cut), first published
    wins."""
    span = _SPANS.get((family_id, g, cut))
    if span is None:
        span = _SPANS.setdefault((family_id, g, cut), GradedSpan(g, (family_id, cut)))
    return span


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
    for shift, below, n in lower:
        if n < len(shift):
            for piv in below.pivots.values():
                row = [0] * dim
                for c, x in zip(shift, piv):
                    if c not in covered:
                        row[c] = x
                yield row


def _joint_rank(a: RowSpace, b: RowSpace) -> int:
    """Rank of a's and b's echelon rows together."""
    if a.rank < b.rank:
        a, b = b, a
    return RowSpace(a.ncols, a.pivots.items()).fill(b.pivots.values())


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
    def quotient_dims(self) -> tuple[int, int]:
        """dim - ideal rank on each side: the quotient algebra's dimension."""
        return (self.dim - self.ideal_ranks[0], self.dim - self.ideal_ranks[1])

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
    ``TruncationError``.  Each span is built once and shared by every
    comparison it enters: a routed family's by every comparison of its route
    key (family_id, g, d-r), whatever r.  Two routed families read one
    elimination per cell (``GradedSpan.joint``): each ideal lies in
    strong8's at the same (g, d-r), cell by cell, so strong8's rank bounds
    their joint rank, and a side that reaches it has it as the joint rank;
    routed strong8's generator span holds the other side's, and a
    vdgk6-herbaut7 span joint is the rank of their two rows.  Any other
    joint rank is at most the cell's dimension, and only the cells where no
    side reaches its bound are reduced.
    """
    if (f1.g, f1.d, f1.r) != (f2.g, f2.d, f2.r):
        raise ValueError("families must share the same (g, d, r)")
    g, d, r = f1.g, f1.d, f1.r
    i_max, j_max = r, r * (g - 1)
    span1, span2 = GradedSpan.from_family(f1), GradedSpan.from_family(f2)
    routed = span1.route is not None and span2.route is not None
    with_strong8 = routed and "strong8" in (span1.route[0], span2.route[0])
    # a routed family lies in the window by construction; a kept generator
    # has weight w <= s(g-1), so s <= r puts it inside
    for family, span in ((f1, span1), (f2, span2)):
        for s, w in span.generators:
            if s > i_max:
                raise TruncationError(f"window ({i_max}, {j_max}) misses the "
                                      f"{family.family_id} generator of bidegree ({s}, {w})")
    cells = []
    for i in range(1, i_max + 1):
        for j in range(i * (g - 1) + 1):  # the cells with a monomial
            (a, a_gens, a_rank), (b, b_gens, b_rank) = span1.cell(i, j), span2.cell(i, j)
            if not (a_rank or b_rank):
                continue
            dim = a.ncols
            bound = span1.top.joint(i, j).rank if routed else dim
            ideal_joint = bound if max(a_rank, b_rank) == bound else _joint_rank(a, b)
            span_joint = max(a_gens, b_gens)
            if not routed:
                if span_joint < dim:
                    span_joint = _joint_rank(span1._generator_space(i, j, dim),
                                             span2._generator_space(i, j, dim))
            elif not with_strong8 and span1.route != span2.route:  # vdgk6 and herbaut7
                span_joint = span1.top.joint(i, j).pair
            cells.append(CellComparison(i=i, j=j, dim=dim, ideal_ranks=(a_rank, b_rank),
                                        ideal_joint=ideal_joint, span_ranks=(a_gens, b_gens),
                                        span_joint=span_joint))
    return IdealComparison(family_ids=(f1.family_id, f2.family_id),
                           g=g, d=d, r=r, i_max=i_max, j_max=j_max,
                           cells=tuple(cells))


def span_contains(f_sub: RelationFamily, f_sup: RelationFamily) -> bool:
    """True when every item of f_sub lies in the per-bidegree span of f_sup.

    The cells come from f_sub's span (``GradedSpan.generator_cells``), so no
    routed family forms its items, and both sides read only their generator
    rows (``GradedSpan._generator_space``), so no ideal cell is built; when
    both are routed and f_sup is strong8, the inclusion answers (see
    ``compare_ideals``)."""
    if (f_sub.g, f_sub.d, f_sub.r) != (f_sup.g, f_sup.d, f_sup.r):
        raise ValueError("families must share the same (g, d, r)")
    sub, sup = GradedSpan.from_family(f_sub), GradedSpan.from_family(f_sup)
    if sub.route and sup.route and f_sup.family_id == "strong8":
        return True
    for i, j in sub.generator_cells(f_sub.r):
        dim = len(monomials_of_bidegree(f_sub.g, i, j))
        rows, space = sub._generator_space(i, j, dim), RowSpace(dim)
        if sup.route is None or i <= f_sup.r:  # a routed span's generators past r are not f_sup's
            space = sup._generator_space(i, j, dim)
        if not all(space.contains(row) for row in rows.pivots.values()):
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
def _power_law_ok(n: int, window: int) -> bool:
    """L^-n * L = L^-(n-1) below x^window, with L = log(1+x) and L^0 = 1:
    one product per (n, window)."""
    power = _bare_log_inv_pow(n, window)  # before L^-(n-1): see check (a)
    below = _bare_log_inv_pow(n - 1, window) if n > 1 else LaurentSeries.monomial(0)
    return (power * log1p_series(window + n)).agrees_with(below)


@lru_cache(maxsize=_CACHE_SIZE)
def _extraction_scalar(n: int, m: int) -> Fraction:
    """[x^-m] x/(1+x) L^-n for m < n: with x/(1+x) = sum_i (-1)^i x^(i+1),
    the alternating sum of L^-n's coefficients at x^-(m+1) .. x^-n, all in
    its principal part, which every x-window holds."""
    power = _bare_log_inv_pow(n, 0)  # the principal part
    return Fraction(sum(x if (e + m) % 2 else -x
                        for e, x in enumerate(power.nums, power.valuation) if e < -m), power.den)


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
    holds when L^-n * L = L^-(n-1), L = log(1+x), for n <= r(g+1).  With
    h_a = g_a + e_a, which is ``_e_part``'s definition, the distributive
    law at every monomial of the window follows from this power law, which
    also certifies the powers, rows of ``combinat``'s table of (x/L)^n, by
    products sharing no code with the table.  A window of L^-n cuts its
    row, which never changes value, so the law on a window holds on every
    narrower one: each power is checked at the window rounded up to a
    multiple of 8, and at its own only if that fails.

    Check (b) is the valuation lemma.  With the vdgk6 relations rewritten to
    zero, a kept term at m = (a_1..a_s) is G_S * prod_{i not in S} e_{a_i},
    G_S a positive integer times L^-N, N = |S| + k with cut weight
    k = |S| + sum_{i in S} a_i <= d-r (S empty always kept).  So once
    every e_a has valuation >= 0, no kept term has an x-exponent below
    -max N, the ``min_x_exponent`` of ``DegreeBoundCheck``, and it is
    known below min(trunc L^-N, val L^-N + min_a trunc e_a).  The floor
    is attained: by S = m when d-r >= s (the only term at -N), else by
    |S| = d-r zero weights, since e_0 has valuation exactly 0.

    Check (c)'s ``value``, [x^-m] x/(1+x) L^-n with m = d-r+s < n, reads
    only L^-n's principal part, at x^-n .. x^(-m-1), so it is one scalar
    per (n, m), computed once whatever the window; ``expected``,
    (m!/(n-1)!) S(n-1, m), is formed on every call."""

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
    monomial, every power it reads is cached, check (a) multiplies once per
    power and window, and each extraction scalar is computed once per
    (n, m), so a warm call does no series arithmetic.

    (a) The binomial identity H(1/x,t)^s = sum_{s'} C(s,s') G(t/log(1+x))^s'
        eps^(s-s') holds for s = 1..r: at a monomial it is the distributive
        law for prod (g_{a_i} + e_{a_i}), certified by the power law of the
        cached L^-n, the one fact it needs beyond ``_e_part``'s definition
        h_a = g_a + e_a (see ``ChainReport``).
    (b) With the vdgk6 vanishing rewritten into G's powers, the right-hand
        side is certified to contain no x-exponent below -(d-r+s), by the
        valuation lemma (see ``ChainReport``).
    (c) The extraction scalar, the x^-(d-r+s) coefficient of
        x/(1+x) * log(1+x)^-n, equals (d-r+s)!/(n-1)! S(n-1, d-r+s) and is
        nonzero for every n > d-r+s.  It reads only log(1+x)^-n's
        principal part, so it is computed once per (n, m = d-r+s), whatever
        the window.
    """
    _validate_params(g, d, r)
    x_order = 2 * (g + 2)
    # tallest power first, so a cold table grows once to the window's full
    # height and width; rounding makes a sequence of calls' products depend on
    # the multiples of 8 it reaches, not on the calls' order
    wide = -(-x_order // 8) * 8
    identity9_ok = all(_power_law_ok(n, wide) or _power_law_ok(n, x_order)
                       for n in range(r * (g + 1), 0, -1))
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
    for s in range(1, r + 1):
        m = d - r + s
        for n in range(m + 1, s * (g + 1) + 1):
            expected = Fraction(factorial(m) * stirling2(n - 1, m), factorial(n - 1))
            scalar_checks.append(ScalarCheck(s=s, n=n, m=m, value=_extraction_scalar(n, m),
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
    integers (a JSON float or boolean raises ``TypeError``, a string that is
    no fraction or has a zero denominator ``ValueError``), with g, r >= 1
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
            try:
                value = Fraction(coeff) if isinstance(coeff, str) else _rational(coeff)
            except ZeroDivisionError:
                raise ValueError(f"coefficient {coeff!r} has a zero denominator") from None
            terms[mono] = terms.get(mono, 0) + value
        items.append(RelationItem(s=entry["s"], t_exp=entry["t_exp"],
                                  element=TautElement(g, terms), u_exp=entry.get("u_exp")))
    return RelationFamily(data["family"], g, data["d"], data["r"], tuple(items))


def family_from_json(text: str) -> RelationFamily:
    return family_from_jsonable(json.loads(text))
