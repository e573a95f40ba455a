"""The free bigraded commutative Q-algebra on generators C(0)..C(g-1).

The product is the Pontryagin product: monomials are multisets of generator
weights and multiply by multiset union, so the algebra is genuinely free (no
extra vanishing is imposed).  A monomial of s generators with weight sum w
has bidegree (s, w).

The relation families are coefficients of the powers of

    G(t) = sum_a (a+1)! C(a) t^(a+2)
    H(u,t) = sum_a P_{a+2}(u) C(a) t^(a+2),

which ``jacrel.relations`` builds monomial by monomial from closed forms.
The bases of each bidegree and G(t)'s powers live here, so the GRR replay
needs neither the families nor linear algebra.  A power's coefficient
``_g_power_coefficient`` depends only on (g, s, w), so one value per key is
kept in a bounded ``lru_cache`` that ``relations.gen_theorem1`` and the GRR
replay's ``gamma_top_reference`` and ``GammaData.theorem1`` share across
every d and M; callers must not mutate the shared element.
``BivarPoly``, ``build_g_poly``, ``build_h_poly`` and ``poly_power`` expand
those powers literally and exactly, with no t-truncation, since t carries no
information; they are the tests' reference route, the library does not call
them, and ``build_h_poly`` imports ``combinat`` when called.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Any, Iterator

from .rings import _EXACT_TYPES, SparseElement, Value, _rational

Monomial = tuple[int, ...]

# Bound on the ``_g_power_coefficient`` cache, keyed by (g, s, w); the
# criterion-7 grid (r <= 3, g <= 5, M <= 10) has 150 keys.
_CACHE_SIZE = 256


def mono_key(mono: Monomial) -> tuple:
    """Canonical sort key: size first, then weights tuple in descending order."""
    return (len(mono), tuple(-w for w in mono))


def mono_bidegree(mono: Monomial) -> tuple[int, int]:
    return (len(mono), sum(mono))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(sorted(m1 + m2, reverse=True))


def _canonical_monomial(g: int, weights) -> Monomial:
    """The weights, each an ``int`` (not a ``bool``) in [0, g-1], sorted."""
    if any(type(w) is not int for w in weights):
        raise TypeError(f"generator weights must be ints: {weights}")
    if any(w < 0 or w >= g for w in weights):
        raise ValueError(f"generator weight out of range [0, {g - 1}]: {weights}")
    return tuple(sorted(weights, reverse=True))


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


@lru_cache(maxsize=None)
def monomials_of_bidegree(g: int, size: int, weight: int) -> tuple[Monomial, ...]:
    """All monomials of the given bidegree, in canonical order, which for
    one size is ``_compositions``' order: weights descending."""
    if size < 0 or weight < 0:
        return ()
    return tuple(_compositions(weight, size, g - 1))


@lru_cache(maxsize=None)
def _orderings(mono: Monomial) -> int:
    """Number of distinct orderings of a multiset."""
    count = factorial(len(mono))
    for w in set(mono):
        count //= factorial(mono.count(w))
    return count


class TautElement(SparseElement):
    """Element of the free algebra: a finite Q-linear combination of monomials.

    Monomials are stored as weakly decreasing weight tuples, in the normal
    form of :class:`~jacrel.rings.SparseElement`.  The constructor sorts
    each monomial and checks its weights (``_canonical_monomial``), rejects
    anything but ``int``/``Fraction`` coefficients (``TypeError``) and sums
    the coefficients of monomials that sort alike; products and sums, whose
    monomials are canonical by construction, go through ``_trusted``.
    """

    __slots__ = ()
    g = SparseElement.ambient  # the ambient genus parameter

    def __new__(cls, g: int, terms: dict[Monomial, int | Fraction] | None = None) -> "TautElement":
        if g < 1:
            raise ValueError("ambient genus parameter must be >= 1")
        summed: dict[Monomial, int | Fraction] = {}
        for mono, coeff in (terms or {}).items():
            key = _canonical_monomial(g, mono)
            coeff = _rational(coeff)
            summed[key] = summed[key] + coeff if key in summed else coeff
        return cls._trusted(g, summed)

    @classmethod
    def one(cls, g: int) -> "TautElement":
        return cls(g, {(): 1})

    @classmethod
    def generator(cls, g: int, j: int) -> "TautElement":
        if not 0 <= j < g:
            raise ValueError(f"generator index {j} outside [0, {g - 1}]")
        return cls(g, {(j,): 1})

    @classmethod
    def monomial(cls, g: int, weights: Monomial, coeff: int | Fraction = 1) -> "TautElement":
        return cls(g, {tuple(weights): coeff})

    def coefficient(self, mono: Monomial) -> int | Fraction:
        return self.terms.get(tuple(sorted(mono, reverse=True)), 0)

    def _check(self, other: "TautElement") -> None:
        if self.g != other.g:
            raise ValueError(f"mismatched ambient genus: {self.g} vs {other.g}")

    def __mul__(self, other: Any) -> "TautElement":
        if isinstance(other, TautElement):
            self._check(other)
            terms: dict[Monomial, int | Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = _mono_mul(m1, m2)
                    terms[mono] = terms.get(mono, 0) + c1 * c2
            return TautElement._trusted(self.g, terms)
        if type(other) in _EXACT_TYPES:
            return TautElement._trusted(self.g, {m: c * other for m, c in self.terms.items()})
        return NotImplemented

    def bidegrees(self) -> set[tuple[int, int]]:
        return {mono_bidegree(m) for m in self.terms}

    def bidegree(self) -> tuple[int, int] | None:
        """Bidegree of a homogeneous element; None for zero or mixed elements."""
        degs = self.bidegrees()
        if len(degs) == 1:
            return next(iter(degs))
        return None

    def sorted_terms(self) -> list[tuple[Monomial, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0]))

    def _monomial_text(self, mono: Monomial) -> str:
        """e.g. ``C(0)*C(2)^2``; ``render`` gives ``12*C(0)*C(2) + 4*C(1)^2``."""
        factors: list[str] = []
        for w in sorted(set(mono)):
            e = mono.count(w)
            factors.append(f"C({w})" if e == 1 else f"C({w})^{e}")
        return "*".join(factors)

    def __repr__(self) -> str:
        return f"TautElement(g={self.g}, {self.render()})"


def element_to_jsonable(element: TautElement) -> list[dict]:
    return [{"monomial": list(mono), "coeff": str(coeff)}
            for mono, coeff in element.sorted_terms()]


@lru_cache(maxsize=_CACHE_SIZE)
def _g_power_coefficient(g: int, s: int, w: int) -> TautElement:
    """The t^(2s+w) coefficient of G(t)^s: orderings(m) prod (a_i+1)! at each
    monomial m = (a_1..a_s) of bidegree (s, w).  It depends on nothing else,
    so one value per (g, s, w) is cached and shared by every caller."""
    weights = [factorial(a + 1) for a in range(g)]
    return TautElement._trusted(g, {m: _orderings(m) * prod(map(weights.__getitem__, m))
                                    for m in monomials_of_bidegree(g, s, w)})


class BivarPoly(Value):
    """Polynomial in t and u with TautElement coefficients, kept exact.

    Terms are keyed by (u_exp, t_exp); no term is zero.  ``terms`` is a
    dict, so a BivarPoly has no hash.
    """

    __slots__ = ("g", "terms")

    def __init__(self, g: int, terms: dict[tuple[int, int], TautElement] | None = None) -> None:
        clean: dict[tuple[int, int], TautElement] = {}
        for (ue, te), elt in (terms or {}).items():
            if ue < 0 or te < 0:
                raise ValueError("u and t exponents must be >= 0")
            if not elt.is_zero:
                clean[(ue, te)] = elt
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "terms", clean)

    def coeff(self, u_exp: int, t_exp: int) -> TautElement:
        """The coefficient of u^u_exp t^t_exp; a zero is built only for an absent term."""
        elt = self.terms.get((u_exp, t_exp))
        return TautElement.zero(self.g) if elt is None else elt

    def u_slice(self, u_exp: int) -> dict[int, TautElement]:
        """The t-polynomial at a fixed u-exponent, as {t_exp: element}."""
        return {te: elt for (ue, te), elt in self.terms.items() if ue == u_exp}

    @property
    def t_degree(self) -> int:
        return max((te for _, te in self.terms), default=-1)

    @property
    def u_degree(self) -> int:
        return max((ue for ue, _ in self.terms), default=-1)

    def items(self) -> Iterator[tuple[int, int, TautElement]]:
        for (ue, te) in sorted(self.terms):
            yield ue, te, self.terms[(ue, te)]

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        if not isinstance(other, BivarPoly):
            return NotImplemented
        if self.g != other.g:
            raise ValueError("mismatched ambient genus")
        terms: dict[tuple[int, int], TautElement] = {}
        for (u1, t1), e1 in self.terms.items():
            for (u2, t2), e2 in other.terms.items():
                key = (u1 + u2, t1 + t2)
                prod = e1 * e2
                terms[key] = terms[key] + prod if key in terms else prod
        return BivarPoly(self.g, terms)


def build_g_poly(g: int) -> BivarPoly:
    """G(t) = sum_{a=0}^{g-1} (a+1)! C(a) t^(a+2); t-degree g+1."""
    if g < 1:
        raise ValueError("g must be >= 1")
    terms = {(0, a + 2): TautElement.monomial(g, (a,), Fraction(factorial(a + 1)))
             for a in range(g)}
    return BivarPoly(g, terms)


def build_h_poly(g: int) -> BivarPoly:
    """H(u,t) = sum_{a=0}^{g-1} P_{a+2}(u) C(a) t^(a+2)."""
    if g < 1:
        raise ValueError("g must be >= 1")
    from .combinat import p_poly
    terms: dict[tuple[int, int], TautElement] = {}
    for a in range(g):
        pn = p_poly(a + 2)
        for m, c in pn.items():
            terms[(m, a + 2)] = TautElement.monomial(g, (a,), c)
    return BivarPoly(g, terms)


def poly_power(p: BivarPoly, s: int) -> BivarPoly:
    """The exact s-th power, s >= 1."""
    if s < 1:
        raise ValueError("power must be >= 1")
    result = p
    for _ in range(s - 1):
        result = result * p
    return result
