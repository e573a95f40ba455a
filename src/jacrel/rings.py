"""Exact arithmetic kernel over Q: dense polynomials, truncated Laurent series
and the sparse-term kernel of the algebras built on them.

Everything here is exact; there are no floats anywhere.  Both dense
containers are over the rationals only: their coefficients and scalar
factors must be exactly ``int`` or ``Fraction`` (``_EXACT_TYPES``, so never a
``bool``); anything else raises ``TypeError``.

A :class:`SparseElement` is an immutable ``monomial -> int | Fraction`` map
with no zero coefficient and every integral coefficient an ``int``.  It
holds the normal form, sums, negation, hashing and rendering that
``tautalg.TautElement`` (the free algebra) and ``grr.GrrElement`` (the
Chern-character ring) share; each subclass keeps its own checked
constructor, monomial text and product.

The dense arithmetic has one kernel.  A :class:`LaurentSeries` keeps
integer numerators over one common denominator: ``valuation``, ``nums`` (a
tuple of ``int``), ``den`` (a positive ``int``) and ``trunc``, so that
``nums[i] / den`` is the coefficient of ``x^(valuation+i)``.  The form is
canonical: ``nums`` has no zero at either end and the gcd of all numerators
with ``den`` is 1 (the zero series stores no numerators, ``den = 1`` and
``valuation = trunc``, or 0 when exact), so equal series compare and hash
equal however they were built.  Products, sums and the power and
exponential recurrences run on integers and reduce once per result; a
product is one integer convolution, ``_convolve``, which also builds the
tables F of ``relations``; ``coeff``, ``items``, ``render`` and ``coeffs``
(a tuple) hand out ``Fraction`` values.  A :class:`DensePoly` is that
kernel's exact face with no negative exponent: it stores an exact series
and forwards its arithmetic to it.

Truncation orders are explicit fields, never implicit globals.  A
:class:`LaurentSeries` knows exactly which window of exponents it has
computed; asking for a coefficient at or beyond the truncation order raises
:class:`TruncationError` instead of silently returning zero.

All values are immutable after construction and all operations are pure, so
everything is safe to share across threads.  The slotted values derive from
:class:`Value`: their fields are their public slots, and the slots named
with an underscore are memos.  The base refuses assignment and gives ``==``
(within one class), ``hash``, ``repr``, copies and pickles by the fields; a
copy's memos are ``None``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import attrgetter
from typing import Any, Iterable, Iterator, Sequence


class TruncationError(ArithmeticError):
    """A computation needs coefficients beyond the tracked truncation order."""


class InvariantViolation(RuntimeError):
    """An internal cross-check that must hold by construction has failed."""


# Exactly int or Fraction, never a bool; tested inline, as products are hot paths.
_EXACT_TYPES = (int, Fraction)


def min_trunc(a: int | None, b: int | None) -> int | None:
    """The tighter of two truncation orders; None stands for an exact object."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _convolve(a: Sequence[int], b: Sequence[int], size: int | None = None) -> list[int]:
    """The integer coefficients of the product of two coefficient lists,
    x^0 first, cut at ``size`` (all of them by default); zero entries of a
    are skipped."""
    full = len(a) + len(b) - 1 if a and b else 0
    size = full if size is None else max(min(size, full), 0)
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i], i):
                out[j] += x * y
    return out


def _rational(c: Any) -> int | Fraction:
    """c itself if it is an exact rational (int or Fraction, not bool)."""
    if type(c) not in _EXACT_TYPES:
        raise TypeError(f"{type(c).__name__} {c!r} is not an exact rational")
    return c


class Value:
    """Base of the slotted values (see the module docstring)."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:  # the slot names, once per class
        slots = [name for klass in reversed(cls.__mro__)
                 for name in vars(klass).get("__slots__", ())]
        cls._public_slots = tuple(name for name in slots if not name.startswith("_"))
        cls._memo_slots = tuple(name for name in slots if name.startswith("_"))
        cls._public_values = attrgetter(*cls._public_slots)  # one name: the bare value

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: Any) -> bool:
        key = self._public_values
        return key(self) == key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._public_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._public_slots)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return _rebuild, (type(self), tuple(getattr(self, name) for name in self._public_slots))


def _rebuild(cls: type, values: tuple) -> Any:
    """The value of ``cls`` with these fields and no memo."""
    value = object.__new__(cls)
    for name, field in zip(cls._public_slots, values):
        object.__setattr__(value, name, field)
    for name in cls._memo_slots:
        object.__setattr__(value, name, None)
    return value


class DensePoly(Value):
    """Dense univariate polynomial over Q: ``series``, an exact
    :class:`LaurentSeries` with no negative exponent, read from x^0, whose
    arithmetic it forwards to.  ``coeffs`` holds the coefficients at exponents
    ``0..deg`` as Fractions, the last nonzero (the zero polynomial has none)."""

    __slots__ = ("series",)

    def __init__(self, coeffs: Iterable[int | Fraction] = ()) -> None:
        object.__setattr__(self, "series", LaurentSeries(0, coeffs))

    @classmethod
    def zero(cls) -> "DensePoly":
        return cls(())

    @classmethod
    def one(cls) -> "DensePoly":
        return cls((1,))

    @classmethod
    def monomial(cls, exp: int, coeff: int | Fraction = 1) -> "DensePoly":
        if exp < 0:
            raise ValueError("DensePoly exponents must be >= 0")
        return _poly(LaurentSeries.monomial(exp, coeff))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return (Fraction(0),) * self.series.valuation + self.series.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return self.series.valuation + len(self.series.nums) - 1

    @property
    def is_zero(self) -> bool:
        return self.series.is_zero

    def coeff(self, exp: int) -> Fraction:
        return self.series.coeff(exp)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Yield (exponent, coefficient) for the nonzero coefficients."""
        return self.series.items()

    def __add__(self, other: "DensePoly") -> "DensePoly":
        if not isinstance(other, DensePoly):
            return NotImplemented
        return _poly(self.series + other.series)

    def __neg__(self) -> "DensePoly":
        return _poly(-self.series)

    def __mul__(self, other: Any) -> "DensePoly":
        if isinstance(other, DensePoly):
            other = other.series
        elif type(other) not in _EXACT_TYPES:
            return NotImplemented
        return _poly(self.series * other)

    def __rmul__(self, other: Any) -> "DensePoly":
        return self.__mul__(other)

    def truncate(self, order: int) -> "DensePoly":
        """Drop all coefficients at exponents >= order."""
        s = self.series
        return _poly(_series(s.valuation, s.nums[: max(order - s.valuation, 0)], s.den, None))

    def evaluate(self, point: Any) -> Any:
        """Evaluate by Horner's rule; the point must multiply with Fractions."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __repr__(self) -> str:
        return f"DensePoly({list(self.coeffs)!r})"


def _poly(series: LaurentSeries) -> DensePoly:
    """The polynomial whose exact series this is (no negative exponent)."""
    p = object.__new__(DensePoly)
    object.__setattr__(p, "series", series)
    return p


class LaurentSeries(Value):
    """Truncated Laurent series over Q, on integer numerators over one
    common denominator (see the module docstring for the canonical form).

    The stored window covers exponents ``valuation .. valuation+len-1``;
    exponents from the end of the window up to ``trunc`` are known to be
    zero, and exponents at or beyond ``trunc`` are unknown.  ``trunc=None``
    marks an exact series (a Laurent polynomial, known at every exponent).

    Arithmetic always records the tightest truncation order that the inputs
    can justify.
    """

    __slots__ = ("valuation", "nums", "den", "trunc")

    def __init__(self, valuation: int, coeffs: Iterable[int | Fraction] = (),
                 trunc: int | None = None) -> None:
        coeffs = [_rational(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        self._fill(valuation, [c.numerator * (den // c.denominator) for c in coeffs],
                   den, trunc)

    def _fill(self, valuation: int, nums: Any, den: int, trunc: int | None) -> None:
        """Store sum nums[i]/den x^(valuation+i), cut at trunc, in canonical form."""
        if trunc is not None and len(nums) > trunc - valuation:
            nums = nums[: max(trunc - valuation, 0)]
        lo, hi = 0, len(nums)
        while lo < hi and not nums[lo]:
            lo += 1
        while hi > lo and not nums[hi - 1]:
            hi -= 1
        if lo == hi:
            valuation, nums, den = (0 if trunc is None else trunc), (), 1
        else:
            valuation += lo
            nums = nums[lo:hi]
            common = gcd(den, *nums)
            if den < 0:
                common = -common
            nums = tuple([x // common for x in nums] if common != 1 else nums)
            den //= common
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "trunc", trunc)

    @classmethod
    def zero(cls, trunc: int | None = None) -> "LaurentSeries":
        return cls(0, (), trunc)

    @classmethod
    def monomial(cls, exp: int, coeff: int | Fraction = 1,
                 trunc: int | None = None) -> "LaurentSeries":
        return cls(exp, (coeff,), trunc)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The stored window's coefficients, as Fractions."""
        return tuple([Fraction(x, self.den) for x in self.nums])

    @property
    def is_zero(self) -> bool:
        """True when every known coefficient is zero (up to the truncation)."""
        return not self.nums

    def coeff(self, exp: int) -> Fraction:
        if self.trunc is not None and exp >= self.trunc:
            raise TruncationError(
                f"coefficient at exponent {exp} is beyond truncation order {self.trunc}")
        i = exp - self.valuation
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Yield (exponent, coefficient) for the nonzero known coefficients."""
        for i, x in enumerate(self.nums):
            if x:
                yield self.valuation + i, Fraction(x, self.den)

    def _merge(self, other: "LaurentSeries", sign: int) -> "LaurentSeries":
        trunc = min_trunc(self.trunc, other.trunc)
        a, b = self.nums, other.nums
        # both numerator tuples brought to the lcm of the two denominators
        common = gcd(self.den, other.den)
        scale_a, scale_b = other.den // common, sign * (self.den // common)
        lo = min(self.valuation, other.valuation)
        out = [0] * (max(self.valuation + len(a), other.valuation + len(b)) - lo)
        for i, x in enumerate(a, self.valuation - lo):
            out[i] = x * scale_a
        for i, x in enumerate(b, other.valuation - lo):
            out[i] += x * scale_b
        return _series(lo, out, self.den // common * other.den, trunc)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._merge(other, +1)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._merge(other, -1)

    def __neg__(self) -> "LaurentSeries":
        return _series(self.valuation, [-x for x in self.nums], self.den, self.trunc)

    def __mul__(self, other: Any) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            if type(other) not in _EXACT_TYPES:
                return NotImplemented
            return _series(self.valuation, [x * other.numerator for x in self.nums],
                           self.den * other.denominator, self.trunc)
        if (self.is_zero and self.trunc is None) or (other.is_zero and other.trunc is None):
            return LaurentSeries.zero()
        lo = self.valuation + other.valuation
        trunc = min_trunc(None if self.trunc is None else self.trunc + other.valuation,
                          None if other.trunc is None else other.trunc + self.valuation)
        out = _convolve(self.nums, other.nums, None if trunc is None else trunc - lo)
        return _series(lo, out, self.den * other.den, trunc)

    def __rmul__(self, other: Any) -> "LaurentSeries":
        return self.__mul__(other)

    def truncate(self, order: int) -> "LaurentSeries":
        """Forget all coefficients at exponents >= order.

        Raising the truncation order is impossible: that would claim
        knowledge of coefficients which were never computed.
        """
        if self.trunc is not None and order > self.trunc:
            raise TruncationError(
                f"cannot extend truncation order {self.trunc} to {order}")
        return _series(self.valuation, self.nums, self.den, order)

    def agrees_with(self, other: "LaurentSeries") -> bool:
        """Compare coefficients on the window both series know: the
        difference is cut at the tighter truncation order."""
        return (self - other).is_zero

    def render(self) -> str:
        """Human-readable form in x, ascending exponents, plus the O-term."""
        text = join_terms((c, "" if e == 0 else "x" if e == 1 else f"x^{e}")
                          for e, c in self.items())
        if self.trunc is not None:
            text += f" + O(x^{self.trunc})"
        return text

    def __repr__(self) -> str:
        return f"LaurentSeries({self.render()})"


def _series(valuation: int, nums: Any, den: int, trunc: int | None) -> LaurentSeries:
    """The series sum nums[i]/den x^(valuation+i) cut at trunc; den may be
    any nonzero int."""
    s = object.__new__(LaurentSeries)
    s._fill(valuation, nums, den, trunc)
    return s


def join_terms(terms: Iterable[tuple[Any, str]]) -> str:
    """Render (coefficient, body) pairs as a signed sum, or ``0`` if empty.

    An empty body is a bare number; a coefficient of 1 or -1 in front of a
    body is written as a sign only; any other one as ``coeff*body``.
    """
    text = ""
    for coeff, body in terms:
        if not body:
            term = str(coeff)
        elif coeff == 1:
            term = body
        elif coeff == -1:
            term = "-" + body
        else:
            term = f"{coeff}*{body}"
        if not text:
            text = term
        elif term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text or "0"


class SparseElement(Value):
    """Immutable sparse element of an exact commutative algebra over Q:
    ``terms`` maps monomials to coefficients, over the parameters ``ambient``.

    The normal form keeps no zero coefficient, an integral coefficient is an
    ``int`` and any other a ``Fraction``, and the empty map is zero, so
    integer arithmetic stays on ``int``.  This kernel owns that form, the
    unchecked constructor ``_trusted``, ``zero``, sums, negation, scalars
    from the left, ``hash`` and ``render``.  A subclass names the ambient by
    aliasing the ``ambient`` slot and supplies the rest: its checked public
    constructor (a ``__new__`` ending in ``_trusted``, which ``zero`` calls
    with no terms, so the ambient is checked), ``_check`` (a
    ``ValueError`` unless both operands share the ambient), the text of one
    monomial, ``sorted_terms``, ``__repr__`` and its own ``__mul__``.
    """

    __slots__ = ("ambient", "terms")

    @classmethod
    def _trusted(cls, ambient: Any, terms: dict[Any, int | Fraction]) -> Any:
        """An element from canonical monomials and ``int``/``Fraction``
        coefficients, unchecked; only zeros are dropped and integral
        coefficients made ``int``."""
        self = object.__new__(cls)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", {
            key: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for key, c in terms.items() if c})
        return self

    @classmethod
    def zero(cls, ambient: Any) -> Any:
        return cls(ambient, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: Any) -> Any:
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return self._trusted(self.ambient, terms)

    def __sub__(self, other: Any) -> Any:
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> Any:
        return self._trusted(self.ambient, {key: -c for key, c in self.terms.items()})

    def __rmul__(self, other: Any) -> Any:
        return self.__mul__(other)

    def __hash__(self) -> int:
        return hash((self.ambient, tuple(sorted(self.terms.items()))))

    def render(self) -> str:
        """Canonical text form: the terms in ``sorted_terms`` order."""
        return join_terms((coeff, self._monomial_text(key))
                          for key, coeff in self.sorted_terms())

    def __str__(self) -> str:
        return self.render()


def log1p_series(order: int) -> LaurentSeries:
    """The series x - x^2/2 + x^3/3 - ... truncated at the given order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    den = lcm(*range(1, order))
    return _series(1, [(-1) ** (i - 1) * (den // i) for i in range(1, order)], den, order)


def _recurrence(a: Any, den: int, count: int, alpha: int, beta: int,
                scale: int) -> tuple[list[int], int]:
    """Solve y_0 = 1, k*y_k = sum_{i=1..k} (alpha*i + beta*k) * (a[i]/den) * y_{k-i}
    for k < count; return the numerators of y_0..y_{count-1} over one
    common denominator, and that denominator.

    The recurrence runs on the integers t_k = y_k * den^k * scale, where it
    reads k*t_k = sum_i (alpha*i + beta*k) * a[i]*den^(i-1) * t_{k-i}.  The
    caller's scale must make every t_k an integer; each division by k is
    then exact, and is checked.
    """
    powers = [1]
    for _ in range(1, count):
        powers.append(powers[-1] * den)
    lifted = [a[i] * powers[i - 1] for i in range(1, min(len(a), count))]
    t = [scale]
    for k in range(1, count):
        acc = 0
        for i, x in enumerate(lifted[:k], 1):
            if x:
                acc += (alpha * i + beta * k) * x * t[k - i]
        tk, rem = divmod(acc, k)
        if rem:
            raise InvariantViolation(f"power recurrence left a remainder at k={k}")
        t.append(tk)
    return [x * powers[count - 1 - k] for k, x in enumerate(t)], powers[-1] * scale


def laurent_pow_inv(s: LaurentSeries, n: int, order: int) -> LaurentSeries:
    """The inverse power s^(-n), known strictly below x^order.

    The leading monomial lead*x^v is factored out, leaving a unit series u
    with u_0 = 1, and p = u^(-n) follows from the power recurrence
    p_0 = 1, k*p_k = sum_{i=1..k} ((1-n)*i - k) * u_i * p_{k-i}, which is
    u*p' = -n*u'*p read coefficient by coefficient; the result is p scaled by
    lead^(-n).  With u_i = nums[i]/nums[0], p_k * nums[0]^k is an integer,
    so the recurrence runs on integers.  If the input's truncation cannot
    support the requested order, a TruncationError is raised rather than
    returning an under-truncated result.  No module of the package calls
    it: ``combinat`` reads log(1+x)^-n off its table of (x/L)^n.  It stays a
    public export, the benchmark's tracer hooks its name, and
    ``tests/oracles.py`` inverts log(1+x)^n with it as that table's oracle.
    """
    if n < 1:
        raise ValueError("inverse power exponent must be >= 1")
    if s.is_zero:
        raise ValueError("cannot invert a series with no known nonzero coefficient")
    v = s.valuation
    if s.trunc is not None and s.trunc - v - n * v < order:
        raise TruncationError(f"input truncation supports order {s.trunc - v - n * v}, "
                              f"but {order} was requested")
    lead = s.nums[0]
    # the result's window -n*v .. order-1 needs p_0 .. p_(order+n*v-1)
    nums, den = _recurrence(s.nums, lead, max(order + n * v, 1), 1 - n, -1, 1)
    scale = s.den ** n
    return _series(-n * v, [x * scale for x in nums], den * lead ** n, order)


def series_exp(s: LaurentSeries, order: int) -> LaurentSeries:
    """Sum of s^i / i!, truncated at the given order.

    The argument must have no constant term (valuation >= 1).  The
    coefficients follow from k*E_k = sum_{i=1..k} i * s_i * E_{k-i}, which is
    E' = s'*E read coefficient by coefficient.  Below the output truncation
    K, E_k * den^k * (K-1)! is an integer, so the recurrence runs on integers.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not isinstance(s, LaurentSeries):
        raise TypeError(f"series_exp does not accept {type(s).__name__}")
    if s.trunc is not None and s.trunc <= 0:
        raise TruncationError("constant term is not known; cannot exponentiate")
    if not s.is_zero and s.valuation <= 0:
        raise ValueError("series_exp needs a zero constant term")
    out_trunc = order if s.trunc is None else min(order, s.trunc)
    nums, den = _recurrence((0,) * s.valuation + s.nums, s.den, out_trunc, 1, 0,
                            factorial(out_trunc - 1))
    return _series(0, nums, den, out_trunc)
