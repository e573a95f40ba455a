"""Exact arithmetic kernel over Q: dense polynomials, truncated Laurent series.

Everything here is exact; there are no floats anywhere.  Both containers are
over the rationals only: their first constructor argument is ``QQ``, and
their coefficients and scalar factors must be ``int`` or ``Fraction``;
anything else raises ``TypeError``.

A :class:`DensePoly` keeps its coefficients as a tuple of ``Fraction``.  A
:class:`LaurentSeries` keeps integer numerators over one common denominator:
``valuation``, ``nums`` (a tuple of ``int``), ``den`` (a positive ``int``)
and ``trunc``, so that ``nums[i] / den`` is the coefficient of
``x^(valuation+i)``.  The form is canonical: ``nums`` has no zero at either
end and the gcd of all numerators with ``den`` is 1 (the zero series stores
no numerators, ``den = 1`` and ``valuation = trunc``, or 0 when exact), so
equal series compare and hash equal however they were built.  Products, sums
and the power and exponential recurrences run on integers and reduce once
per result; ``coeff``, ``items``, ``coeffs`` and ``render`` hand out
``Fraction`` values.

Truncation orders are explicit fields, never implicit globals.  A
:class:`LaurentSeries` knows exactly which window of exponents it has
computed; asking for a coefficient at or beyond the truncation order raises
:class:`TruncationError` instead of silently returning zero.

All values are immutable after construction and all operations are pure, so
everything is safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Any, Iterable, Iterator


class TruncationError(ArithmeticError):
    """A computation needs coefficients beyond the tracked truncation order."""


class InvariantViolation(RuntimeError):
    """An internal cross-check that must hold by construction has failed."""


#: The rationals, the one coefficient field; ``QQ(n, d)`` is the Fraction n/d.
QQ = Fraction


def min_trunc(a: int | None, b: int | None) -> int | None:
    """The tighter of two truncation orders; None stands for an exact object."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _check_field(ring: Any) -> None:
    if ring is not QQ:
        raise TypeError(f"coefficients must lie in QQ, not {ring!r}")


def _rational(c: Any) -> int | Fraction:
    """c itself if it is an exact rational (int or Fraction)."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"{type(c).__name__} {c!r} is not an exact rational")
    return c


class DensePoly:
    """Dense univariate polynomial over Q.

    Coefficients are indexed by exponent ``0..deg``; the highest stored
    coefficient is nonzero (the zero polynomial stores nothing).
    """

    __slots__ = ("coeffs",)

    def __init__(self, ring: Any, coeffs: Iterable[int | Fraction] = ()) -> None:
        _check_field(ring)
        coeffs = [c if type(c) is Fraction else Fraction(_rational(c)) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("DensePoly is immutable")

    @classmethod
    def zero(cls, ring: Any) -> "DensePoly":
        return cls(ring, ())

    @classmethod
    def one(cls, ring: Any) -> "DensePoly":
        return cls(ring, (1,))

    @classmethod
    def monomial(cls, ring: Any, exp: int, coeff: int | Fraction = 1) -> "DensePoly":
        if exp < 0:
            raise ValueError("DensePoly exponents must be >= 0")
        return cls(ring, (0,) * exp + (coeff,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exp: int) -> Fraction:
        if 0 <= exp < len(self.coeffs):
            return self.coeffs[exp]
        return Fraction(0)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Yield (exponent, coefficient) for the nonzero coefficients."""
        for e, c in enumerate(self.coeffs):
            if c:
                yield e, c

    def __add__(self, other: "DensePoly") -> "DensePoly":
        if not isinstance(other, DensePoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return DensePoly(QQ, out)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        return self + (-other)

    def __neg__(self) -> "DensePoly":
        return DensePoly(QQ, tuple(-c for c in self.coeffs))

    def __mul__(self, other: Any) -> "DensePoly":
        if isinstance(other, DensePoly):
            if self.is_zero or other.is_zero:
                return DensePoly.zero(QQ)
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return DensePoly(QQ, out)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return DensePoly(QQ, tuple(c * other for c in self.coeffs))

    def __rmul__(self, other: Any) -> "DensePoly":
        return self.__mul__(other)

    def truncate(self, order: int) -> "DensePoly":
        """Drop all coefficients at exponents >= order."""
        return DensePoly(QQ, self.coeffs[: max(order, 0)])

    def evaluate(self, point: Any) -> Any:
        """Evaluate by Horner's rule; the point must multiply with Fractions."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"DensePoly({list(self.coeffs)!r})"


class LaurentSeries:
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

    def __init__(self, ring: Any, valuation: int,
                 coeffs: Iterable[int | Fraction] = (), trunc: int | None = None) -> None:
        _check_field(ring)
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

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("LaurentSeries is immutable")

    @classmethod
    def zero(cls, ring: Any, trunc: int | None = None) -> "LaurentSeries":
        return cls(ring, 0, (), trunc)

    @classmethod
    def monomial(cls, ring: Any, exp: int, coeff: int | Fraction = 1,
                 trunc: int | None = None) -> "LaurentSeries":
        return cls(ring, exp, (coeff,), trunc)

    @property
    def coeffs(self) -> "FractionView":
        """The stored window's coefficients, as Fractions."""
        return FractionView(self.nums, self.den)

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
        if not b:
            return _series(self.valuation, a, self.den, trunc)
        if not a:
            return _series(other.valuation, [sign * x for x in b], other.den, trunc)
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
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return _series(self.valuation, [x * other.numerator for x in self.nums],
                           self.den * other.denominator, self.trunc)
        if (self.is_zero and self.trunc is None) or (other.is_zero and other.trunc is None):
            return LaurentSeries.zero(QQ)
        lo = self.valuation + other.valuation
        trunc = min_trunc(None if self.trunc is None else self.trunc + other.valuation,
                          None if other.trunc is None else other.trunc + self.valuation)
        a, b = self.nums, other.nums
        size = len(a) + len(b) - 1
        if trunc is not None:
            size = max(min(size, trunc - lo), 0)
        # the integer convolution, cut at the truncation
        out = [0] * size
        for i, x in enumerate(a[:size]):
            if x:
                for j, y in enumerate(b[: size - i], i):
                    out[j] += x * y
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

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.valuation == other.valuation and self.nums == other.nums
                and self.den == other.den and self.trunc == other.trunc)

    def __hash__(self) -> int:
        return hash((self.valuation, self.nums, self.den, self.trunc))

    def render(self, var: str = "x") -> str:
        """Human-readable form, ascending exponents, plus the O-term."""
        text = join_terms((c, "" if e == 0 else var if e == 1 else f"{var}^{e}")
                          for e, c in self.items())
        if self.trunc is not None:
            text += f" + O({var}^{self.trunc})"
        return text

    def __repr__(self) -> str:
        return f"LaurentSeries({self.render()})"


class FractionView(Sequence):
    """A read-only sequence of Fractions nums[i]/den, each built on access;
    its length costs nothing, and it compares equal to any sequence of the
    same values."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: tuple[int, ...], den: int) -> None:
        self._nums, self._den = nums, den

    def __len__(self) -> int:
        return len(self._nums)

    def __getitem__(self, i: Any) -> Any:
        if isinstance(i, slice):
            return tuple(self)[i]
        return Fraction(self._nums[i], self._den)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


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
    returning an under-truncated result.
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
