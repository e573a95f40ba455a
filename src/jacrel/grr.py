"""Symbolic Chern-character engine over the projective-bundle base.

The working ring is a sparse polynomial ring over Q in

* ``k``      - the twisting power variable,
* ``a1..a_{r-1}``, ``b0..b_{r-1}`` - the unknown coefficients of the relative
  Todd class A(x) + B(x) rho (a0 = 1 is substituted at construction),
* ``FC0..FC_{g-1}`` - the Fourier images of the curve-class generators,
* ``xi``     - the hyperplane class, nilpotent with xi^(r+1) = 0.

The bundle degree d is a plain integer, not a symbol.  The codimension
grading weighs xi by 1 and FC_j by j+1; k, a_j and b_j are degree 0.

The pushforward table sends upstairs monomials l^mu x^nu (rho^eps) downstairs
and rewrites q-pushforwards of powers of the Poincare class into the FC
generators.  The Chern character has integer coefficients: the 1/mu! of
e^(k l) cancels the mu! of the q-pushforward.  So coefficients are ``int``
wherever they are integral (``Fraction`` otherwise), and the Chern classes
c(t) = exp(F(t)) follow from Newton's identity
n*c_n = sum_j (-1)^(j-1) j! ch_j c_(n-j) scaled by (n-1)!, a recurrence on
integers for C_n = n! c_n; each class is divided by n! once.  That every
ch_j is integral and divisible by xi is checked, not assumed.  The top
k-power of the xi^r component of the first vanishing Chern class reproduces
the factorial composition relations, whose sum ``gamma_top_reference``
reads as orderings(m) prod (a_i+1)! per monomial from ``tautalg``'s cache,
one sum per (g, r, N) shared across every d and M.

No builder makes throwaway elements.  One table, ``_pushforward_case``,
gives each upstairs image as an exponent shift and a scalar, which
``ch_vk``'s route writes straight into one map; one product kernel serves
``GrrElement.__mul__`` and sums each tower step into its class's map; and
``gamma_extract`` reads c_(M+1)'s xi^r terms into the gammas in one pass.

Nothing before the Chern classes depends on M, and c_0..c_(M+1) is a prefix
of every longer tower.  So ``ch_vk`` caches one ``ChernData``, the bundle's
character, per (g, d, r) in a bounded ``lru_cache``, and ``chern_classes``
keeps the tower on it as a memo, extended on demand, and returns a slice of
it: no class past the requested order is returned, so none reads as zero.
These are the module's shared state: the memo is replaced only by a complete
longer tower, so racing threads never read a partial tower and at worst
compute the same classes more than once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import add, mul
from threading import Lock
from typing import Any, Iterator, NamedTuple

from .rings import _EXACT_TYPES, InvariantViolation, SparseElement, Value, _rational
from .tautalg import Monomial, TautElement, _g_power_coefficient

# Bound on the ``ch_vk`` cache, keyed by (g, d, r); the criterion-7 grid
# (r <= 3, g <= 5, d <= 8) has 120 keys.
_CACHE_SIZE = 256
# Serializes the check-and-replace of a Chern-class memo, so that it never
# shrinks; the towers themselves are built outside it.
_PUBLISH = Lock()
_Terms = dict[tuple[int, ...], int | Fraction]


class GrrContext(NamedTuple("_GrrParams", [("g", int), ("d", int), ("r", int)])):
    """Ambient parameters and the variable layout of the symbolic ring."""

    __slots__ = ()

    def __new__(cls, g: int, d: int, r: int) -> "GrrContext":
        if g < 1 or d < 1 or r < 1:
            raise ValueError("g, d, r must all be >= 1")
        return super().__new__(cls, g, d, r)

    @classmethod
    def _make(cls, fields) -> "GrrContext":  # so that ``_replace`` checks too
        return cls(*fields)

    @property
    def nvars(self) -> int:
        return 2 * self.r + self.g + 1

    @property
    def xi_index(self) -> int:
        return 2 * self.r + self.g

    def a_index(self, j: int) -> int | None:
        """Index of a_j; None for a_0 (fixed to 1)."""
        if not 0 <= j <= self.r - 1:
            raise ValueError(f"a_{j} out of range")
        return None if j == 0 else j

    def b_index(self, j: int) -> int:
        if not 0 <= j <= self.r - 1:
            raise ValueError(f"b_{j} out of range")
        return self.r + j

    def fc_index(self, j: int) -> int:
        if not 0 <= j <= self.g - 1:
            raise ValueError(f"FC_{j} out of range")
        return 2 * self.r + j

    def codim_weights(self) -> tuple[int, ...]:
        w = [0] * self.nvars
        for j in range(self.g):
            w[self.fc_index(j)] = j + 1
        w[self.xi_index] = 1
        return tuple(w)

    def display(self) -> tuple[tuple[int, str], ...]:
        """(index, name) of each variable, in the order a monomial is
        rendered: a1..a_(r-1), b0..b_(r-1), k, FC0..FC_(g-1), xi."""
        r = self.r
        return (tuple((j, f"a{j}") for j in range(1, r))
                + tuple((r + j, f"b{j}") for j in range(r)) + ((0, "k"),)
                + tuple((2 * r + j, f"FC{j}") for j in range(self.g))
                + ((self.xi_index, "xi"),))


def _quotient(a: int, b: int) -> int | Fraction:
    """a/b in normal form: an ``int`` where b divides a."""
    q, rem = divmod(a, b)
    return Fraction(a, b) if rem else q


def _multiply_into(acc: _Terms, ctx: GrrContext, terms1: _Terms, terms2: _Terms,
                   scale: int | Fraction) -> None:
    """Add scale * terms1 * terms2 into ``acc``, dropping every product at or
    above xi^(r+1); ``acc`` may be left with zero coefficients."""
    xi, cap = ctx.xi_index, ctx.r
    for e1, c1 in terms1.items():
        room, c1 = cap - e1[xi], c1 * scale
        for e2, c2 in terms2.items():
            if e2[xi] <= room:
                exp = tuple(map(add, e1, e2))
                acc[exp] = acc.get(exp, 0) + c1 * c2


def _fc_to_taut(ctx: GrrContext, terms: _Terms, scale: int) -> TautElement:
    """scale times ``terms`` in the free algebra, in one pass: each FC
    monomial FC_0^n_0..FC_(g-1)^n_(g-1) maps to the algebra monomial with
    n_j parts j.  A term with any k, a_j, b_j or xi exponent (a slot outside
    FC's) raises InvariantViolation."""
    g, fc, xi = ctx.g, 2 * ctx.r, ctx.xi_index
    mapped: dict[Monomial, int | Fraction] = {}
    for e, c in terms.items():
        if any(e[:fc]) or e[xi]:  # k, a_1..a_(r-1), b_0..b_(r-1); xi
            raise InvariantViolation(
                "element still involves k, xi or Todd unknowns; "
                "only FC monomials map to the free algebra")
        # weights in decreasing order: the monomial is canonical as built
        mapped[tuple(j for j in range(g - 1, -1, -1) for _ in range(e[fc + j]))] = c * scale
    return TautElement._trusted(g, mapped)


class GrrElement(SparseElement):
    """Sparse polynomial of the symbolic ring, with xi^(r+1) reduced eagerly.

    Terms are in the normal form of :class:`~jacrel.rings.SparseElement`.
    The constructor checks each exponent tuple's arity, drops terms at or
    above xi^(r+1) and rejects anything but ``int``/``Fraction``
    coefficients (``TypeError``); sums and products build through
    ``_trusted``, which checks nothing.
    """

    __slots__ = ()
    ctx = SparseElement.ambient  # the ambient GrrContext

    def __new__(cls, ctx: GrrContext, terms: _Terms | None = None) -> "GrrElement":
        kept: _Terms = {}
        xi = ctx.xi_index
        for exp, coeff in (terms or {}).items():
            if len(exp) != ctx.nvars:
                raise ValueError("exponent tuple has the wrong arity")
            coeff = _rational(coeff)
            if exp[xi] <= ctx.r:
                kept[exp] = coeff
        return cls._trusted(ctx, kept)

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, ctx: GrrContext, value: int | Fraction) -> "GrrElement":
        return cls(ctx, {(0,) * ctx.nvars: value})

    @classmethod
    def one(cls, ctx: GrrContext) -> "GrrElement":
        return cls.scalar(ctx, 1)

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "GrrElement") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("mismatched symbolic contexts")

    def __mul__(self, other: Any) -> "GrrElement":
        if isinstance(other, GrrElement):
            self._check(other)
            terms: _Terms = {}
            _multiply_into(terms, self.ctx, self.terms, other.terms, 1)
            return GrrElement._trusted(self.ctx, terms)
        if type(other) in _EXACT_TYPES:
            return GrrElement._trusted(self.ctx, {e: c * other for e, c in self.terms.items()})
        return NotImplemented

    # -- structure queries -------------------------------------------------

    def codim_pieces(self) -> tuple["GrrElement", ...]:
        """The codimension-j components for j = 0 .. the top codimension."""
        weights = self.ctx.codim_weights()
        split: dict[int, _Terms] = {}
        for e, c in self.terms.items():
            split.setdefault(sum(map(mul, weights, e)), {})[e] = c
        return tuple(GrrElement._trusted(self.ctx, split.get(j, {}))
                     for j in range(max(split, default=0) + 1))

    def xi_coefficient(self, m: int) -> "GrrElement":
        """The coefficient of xi^m, with the xi variable stripped."""
        xi = self.ctx.xi_index  # the last variable
        return GrrElement._trusted(self.ctx, {e[:xi] + (0,): c
                                              for e, c in self.terms.items() if e[xi] == m})

    @property
    def min_xi_exponent(self) -> int:
        xi = self.ctx.xi_index
        return min((e[xi] for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def _monomial_text(self, exp: tuple[int, ...]) -> str:
        return "*".join(name if exp[idx] == 1 else f"{name}^{exp[idx]}"
                        for idx, name in self.ctx.display() if exp[idx])

    def __repr__(self) -> str:
        return f"GrrElement({self.render()})"


class UpstairsTerm(NamedTuple("_UpstairsFields", [("ctx", GrrContext), ("mu", int), ("nu", int),
                                                  ("rho", int), ("coeff", GrrElement)])):
    """Monomial l^mu x^nu rho^eps with a coefficient free of xi and FC.

    rho^2 = 0 keeps eps binary; x^(r+1) = 0 keeps nu within 0..r.
    """

    __slots__ = ()

    def __new__(cls, ctx: GrrContext, mu: int, nu: int, rho: int,
                coeff: GrrElement) -> "UpstairsTerm":
        if mu < 0:
            raise ValueError("mu must be >= 0")
        if not 0 <= nu <= ctx.r:
            raise ValueError(f"nu must lie in 0..{ctx.r}")
        if rho not in (0, 1):
            raise ValueError("rho exponent must be 0 or 1")
        for e in coeff.terms:
            if any(e[2 * ctx.r:]):  # FC_0 .. FC_(g-1), then xi
                raise ValueError("upstairs coefficients must be free of xi and FC")
        return super().__new__(cls, ctx, mu, nu, rho, coeff)

    @classmethod
    def _make(cls, fields) -> "UpstairsTerm":  # so that ``_replace`` checks too
        return cls(*fields)


def _exponent(ctx: GrrContext, k: int, xi: int, *ones: int | None) -> tuple[int, ...]:
    """The exponent of k^k xi^xi times one power of each variable in ``ones``
    (None, the index of a_0 = 1, adds nothing)."""
    exp = [0] * ctx.nvars
    exp[0], exp[ctx.xi_index] = k, xi
    for idx in ones:
        if idx is not None:
            exp[idx] += 1
    return tuple(exp)


def _pushforward_case(ctx: GrrContext, mu: int, nu: int,
                      rho: int) -> tuple[tuple[int, ...], int] | None:
    """The four-case pushforward table for l^mu x^nu rho^eps (eps = ``rho``),
    as an exponent shift and a scalar: rho x^nu goes to xi^(nu+1), x^nu to d xi^nu and
    l^mu x^nu, 2 <= mu <= g+1, to mu! FC_(mu-2) xi^(nu+1) (the
    q-pushforward of the mu-th Poincare-class power).  None stands for a zero
    image: every other case, and anything at xi^(r+1)."""
    if mu == 0:
        shift, scale = (_exponent(ctx, 0, nu + 1), 1) if rho else (_exponent(ctx, 0, nu), ctx.d)
    elif not rho and 2 <= mu <= ctx.g + 1:
        shift, scale = _exponent(ctx, 0, nu + 1, ctx.fc_index(mu - 2)), factorial(mu)
    else:
        return None
    return None if shift[ctx.xi_index] > ctx.r else (shift, scale)


def pushforward(term: UpstairsTerm) -> GrrElement:
    """``_pushforward_case`` applied to each term of one monomial's coefficient."""
    ctx = term.ctx
    case = _pushforward_case(ctx, term.mu, term.nu, term.rho)
    if case is None:
        return GrrElement.zero(ctx)
    shift, scale = case
    # the coefficient is free of xi and FC, so the shift lands on zeros
    return GrrElement._trusted(ctx, {tuple(map(add, e, shift)): c * scale
                                     for e, c in term.coeff.terms.items()})


class ChernData(Value):
    """A bundle's graded Chern-character components ``ch``, with the memo
    ``_tower`` of ``chern_classes`` (see ``_Tower``), which takes no part in
    ``==``, ``hash``, ``repr`` or a copy."""

    __slots__ = ("ctx", "ch", "_tower")

    def __init__(self, ctx: GrrContext, ch: tuple[GrrElement, ...]) -> None:
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ch", ch)
        object.__setattr__(self, "_tower", None)

    def ch_j(self, j: int) -> GrrElement:
        if 0 <= j < len(self.ch):
            return self.ch[j]
        return GrrElement.zero(self.ctx)


def _ch_grr_route(ctx: GrrContext) -> GrrElement:
    """alpha_*(e^(k l) (A(x) + B(x) rho)): the table's shift and scalar for
    each upstairs term k^mu/mu! a_j l^mu x^j and k^mu/mu! b_j l^mu x^j rho
    apply to its one-term coefficient, and the images are summed into one map.

    The l-exponent stops at g+1: beyond it the q-pushforward rewrite is zero,
    which is the one geometric fact hard-coded into the engine.
    """
    terms: _Terms = {}
    for mu in range(ctx.g + 2):
        for j in range(ctx.r):
            for rho, idx in ((0, ctx.a_index(j)), (1, ctx.b_index(j))):
                case = _pushforward_case(ctx, mu, j, rho)
                if case is not None:
                    shift, scale = case
                    exp = tuple(map(add, _exponent(ctx, mu, 0, idx), shift))
                    terms[exp] = terms.get(exp, 0) + _quotient(scale, factorial(mu))
    return GrrElement._trusted(ctx, terms)


def _ch_closed_form(ctx: GrrContext) -> GrrElement:
    """d A(xi) + xi B(xi) + (sum_mu k^(mu+2) FC_mu) xi A(xi), written term by
    term: d a_j xi^j, b_j xi^(j+1) and k^(mu+2) FC_mu a_j xi^(j+1) for
    j < r, so no term reaches xi^(r+1) and no two share a monomial."""
    terms: _Terms = {}
    for j in range(ctx.r):
        a = ctx.a_index(j)
        terms[_exponent(ctx, 0, j, a)] = ctx.d
        terms[_exponent(ctx, 0, j + 1, ctx.b_index(j))] = 1
        for mu in range(ctx.g):
            terms[_exponent(ctx, mu + 2, j + 1, ctx.fc_index(mu), a)] = 1
    return GrrElement._trusted(ctx, terms)


@lru_cache(maxsize=_CACHE_SIZE)
def ch_vk(g: int, d: int, r: int) -> ChernData:
    """The Chern character, computed through the pushforward table and checked
    against the closed form before being split into graded components.

    It does not depend on M, so one value per (g, d, r) is cached and shared,
    and with it the Chern-class memo that ``chern_classes`` keeps on it.
    """
    ctx = GrrContext(g, d, r)
    computed = _ch_grr_route(ctx)
    closed = _ch_closed_form(ctx)
    if computed != closed:
        raise InvariantViolation("pushforward route disagrees with the closed form")
    return ChernData(ctx=ctx, ch=computed.codim_pieces())


def extract_amj(data: ChernData, m: int, j: int) -> GrrElement:
    """The xi^m coefficient of the codimension-j Chern character piece."""
    if not 1 <= m <= data.ctx.r:
        raise ValueError(f"m must lie in 1..{data.ctx.r}")
    if j < 1:
        raise ValueError("j must be >= 1")
    return data.ch_j(j).xi_coefficient(m)


class _Tower(NamedTuple):
    """``chern_classes``' memo on a ``ChernData``: the factors
    (-1)^(j-1) j! ch_j for j >= 1, then C_n = n! c_n and c_n for n below one
    length."""

    factors: tuple[GrrElement, ...]
    scaled: tuple[GrrElement, ...]
    classes: tuple[GrrElement, ...]


def _newton_factors(data: ChernData) -> tuple[GrrElement, ...]:
    """(-1)^(j-1) j! ch_j for j >= 1, with integer coefficients.

    Every such ch_j must be divisible by xi, which keeps the Chern classes
    inside xi's nilpotent range, and integral, which keeps the scaled
    recurrence on integers; both are checked, not assumed.
    """
    factors = []
    for j in range(1, len(data.ch)):
        piece = data.ch[j]
        if not piece.is_zero and piece.min_xi_exponent < 1:
            raise InvariantViolation(f"ch_{j} is not divisible by xi")
        if any(type(c) is not int for c in piece.terms.values()):
            raise InvariantViolation(f"ch_{j} has a non-integral coefficient")
        factors.append(piece * ((-1) ** (j - 1) * factorial(j)))
    return tuple(factors)


def chern_classes(data: ChernData, t_order: int) -> tuple[GrrElement, ...]:
    """The Chern classes c_0..c_(t_order-1), from the exponential formula.

    c(t) = exp(F(t)) with F(t) = sum_j (-1)^(j-1) (j-1)! ch_j t^j, so
    c' = F' c gives Newton's identity c_0 = 1,
    n*c_n = sum_{j=1..n} (-1)^(j-1) j! ch_j c_(n-j).  Multiplied by (n-1)!,
    it is a recurrence on integers for the scaled classes C_n = n! c_n:
    C_n = sum_{j=1..n} (-1)^(j-1) j! (n-1)!/(n-j)! ch_j C_(n-j).  Each class
    is divided by n! once, as it joins the memo on ``data``.  The memo is
    extended on demand and replaced only by a complete longer one, so
    threads sharing ``data`` never read a partial tower and at worst compute
    the same classes more than once.  The classes are a slice of the memo:
    no class past c_(t_order-1) is returned.
    """
    if t_order < 1:
        raise ValueError("t_order must be >= 1")
    memo = data._tower
    if memo is None:
        one = GrrElement.one(data.ctx)
        memo = _Tower(_newton_factors(data), (one,), (one,))
    if len(memo.classes) < t_order:
        factors = memo.factors
        scaled, classes = list(memo.scaled), list(memo.classes)
        for n in range(len(scaled), t_order):
            acc: dict[tuple[int, ...], int] = {}
            falling = 1  # (n-1)!/(n-j)!
            for j in range(1, min(n, len(factors)) + 1):
                _multiply_into(acc, data.ctx, factors[j - 1].terms, scaled[n - j].terms, falling)
                falling *= n - j
            scaled.append(GrrElement._trusted(data.ctx, acc))
            n_factorial = factorial(n)
            classes.append(GrrElement._trusted(
                data.ctx, {e: _quotient(c, n_factorial) for e, c in acc.items()}))
        memo = _Tower(factors, tuple(scaled), tuple(classes))
    if memo is not data._tower:
        with _PUBLISH:
            current = data._tower
            if current is None or len(current.classes) < len(memo.classes):
                object.__setattr__(data, "_tower", memo)
    return memo.classes[:t_order]


class GammaData(NamedTuple):
    """The k-power decomposition of the xi^r part of the vanishing coefficient.

    ``gammas[s]`` is the coefficient of k^s, normalized by the sign
    (-1)^(M+1) so that the top entry carries the factorial composition sum
    times (-1)^r / r!; the keys ascend and the zero powers are absent.
    """

    ctx: GrrContext
    M: int
    gammas: dict[int, GrrElement]

    def gamma(self, s: int) -> GrrElement:
        """The coefficient of k^s; a zero is built only for an absent power."""
        gamma = self.gammas.get(s)
        return GrrElement.zero(self.ctx) if gamma is None else gamma

    @property
    def max_power(self) -> int:
        return max(self.gammas, default=0)

    def items(self) -> Iterator[tuple[int, GrrElement]]:
        for s in sorted(self.gammas):
            yield s, self.gammas[s]

    def theorem1(self) -> TautElement:
        """Re-derive the factorial composition relation from this data.

        Maps the top k-power to the free algebra in one pass, clearing the
        (-1)^r/r! scalar as it writes each term and raising on any k, xi or
        Todd unknown, then checks the result against the composition sum of
        weight N = M-2r+1, zero for N < 0, at any d the bundle has; a
        mismatch raises InvariantViolation.
        """
        g, r = self.ctx.g, self.ctx.r
        element = _fc_to_taut(self.ctx, self.gamma(self.M + 1).terms, (-1) ** r * factorial(r))
        N = self.M - 2 * r + 1
        if element != _g_power_coefficient(g, r, N):  # zero for N < 0
            raise InvariantViolation(
                f"derived relation disagrees with the composition sum at N={N}")
        return element


def gamma_extract(g: int, d: int, r: int, M: int) -> GammaData:
    """Split the t^(M+1) Chern-class coefficient at xi^r into k-powers."""
    if M < d:
        raise ValueError("M must be >= d")
    shared = ch_vk(g, d, r)
    ctx, xi, sign = shared.ctx, shared.ctx.xi_index, (-1) ** (M + 1)
    top = chern_classes(shared, M + 2)[M + 1]
    split: dict[int, _Terms] = {}
    for e, c in top.terms.items():
        if e[xi] == r:  # k is the first variable and xi the last
            split.setdefault(e[0], {})[(0,) + e[1:xi] + (0,)] = c * sign
    gammas = {s: GrrElement._trusted(ctx, split[s]) for s in sorted(split)}
    return GammaData(ctx=ctx, M=M, gammas=gammas)


def gamma_top_reference(g: int, d: int, r: int, M: int) -> GrrElement:
    """The predicted top k-power: (-1)^r/r! times the factorial composition
    sum of weight M-2r+1 (zero below 0), each C(a) written as FC_a; M >= d,
    as for ``gamma_extract``."""
    if M < d:
        raise ValueError("M must be >= d")
    ctx = GrrContext(g, d, r)
    sign, r_factorial = (-1) ** r, factorial(r)
    terms: _Terms = {}
    for mono, coeff in _g_power_coefficient(g, r, M - 2 * r + 1).terms.items():
        exp = [0] * ctx.nvars
        for a in mono:
            exp[2 * r + a] += 1  # FC_a's slot
        terms[tuple(exp)] = _quotient(coeff * sign, r_factorial)
    return GrrElement._trusted(ctx, terms)


def derive_theorem1(g: int, d: int, r: int, M: int) -> TautElement:
    """Re-derive the factorial composition relation from the engine; see
    ``GammaData.theorem1``."""
    return gamma_extract(g, d, r, M).theorem1()
