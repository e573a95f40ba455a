"""Exact arithmetic kernel: rationals, dense polynomials, truncated Laurent series.

Everything here is exact; there are no floats anywhere.  The library builds
its polynomials and series over ``QQ`` only.  The containers stay generic
over their coefficient ring all the same: a coefficient may be a ``Fraction``
or any commutative Q-algebra element that implements ``+``, ``-``, unary
``-``, ``*`` (with its own kind and with ``Fraction``/``int`` scalars) and
``==``, and a :class:`Ring` bundle supplies the zero and one elements.  The
test references use this: the implication chain expanded over the free
algebra, and the Chern classes as ``series_exp`` over the GRR ring.

Truncation orders are explicit fields, never implicit globals.  A
:class:`LaurentSeries` knows exactly which window of exponents it has
computed; asking for a coefficient at or beyond the truncation order raises
:class:`TruncationError` instead of silently returning zero.

All values are immutable after construction and all operations are pure, so
everything is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator


class TruncationError(ArithmeticError):
    """A computation needs coefficients beyond the tracked truncation order."""


class InvariantViolation(RuntimeError):
    """An internal cross-check that must hold by construction has failed."""


@dataclass(frozen=True)
class Ring:
    """A commutative coefficient ring, described by its zero and one elements."""

    zero: Any
    one: Any


#: The rationals, the default coefficient ring.
QQ = Ring(Fraction(0), Fraction(1))


def min_trunc(a: int | None, b: int | None) -> int | None:
    """The tighter of two truncation orders; None stands for an exact object."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class DensePoly:
    """Dense univariate polynomial over a generic commutative ring.

    Coefficients are indexed by exponent ``0..deg``; the highest stored
    coefficient is nonzero (the zero polynomial stores nothing).
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: Any = ()) -> None:
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == ring.zero:
            coeffs.pop()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("DensePoly is immutable")

    @classmethod
    def zero(cls, ring: Ring) -> "DensePoly":
        return cls(ring, ())

    @classmethod
    def one(cls, ring: Ring) -> "DensePoly":
        return cls(ring, (ring.one,))

    @classmethod
    def monomial(cls, ring: Ring, exp: int, coeff: Any = None) -> "DensePoly":
        if exp < 0:
            raise ValueError("DensePoly exponents must be >= 0")
        c = ring.one if coeff is None else coeff
        return cls(ring, (ring.zero,) * exp + (c,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exp: int) -> Any:
        if 0 <= exp < len(self.coeffs):
            return self.coeffs[exp]
        return self.ring.zero

    def items(self) -> Iterator[tuple[int, Any]]:
        """Yield (exponent, coefficient) for the nonzero coefficients."""
        for e, c in enumerate(self.coeffs):
            if c != self.ring.zero:
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
        return DensePoly(self.ring, out)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        return self + (-other)

    def __neg__(self) -> "DensePoly":
        return DensePoly(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other: Any) -> "DensePoly":
        if isinstance(other, DensePoly):
            if self.is_zero or other.is_zero:
                return DensePoly.zero(self.ring)
            out = [self.ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == self.ring.zero:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return DensePoly(self.ring, out)
        if isinstance(other, LaurentSeries):
            return NotImplemented
        return DensePoly(self.ring, tuple(c * other for c in self.coeffs))

    def __rmul__(self, other: Any) -> "DensePoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "DensePoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be integers >= 0")
        result = DensePoly.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def truncate(self, order: int) -> "DensePoly":
        """Drop all coefficients at exponents >= order."""
        return DensePoly(self.ring, self.coeffs[: max(order, 0)])

    def evaluate(self, point: Any) -> Any:
        """Evaluate by Horner's rule; the point must multiply into the ring."""
        acc = self.ring.zero
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
    """Truncated Laurent series over a generic commutative ring.

    The stored window covers exponents ``valuation .. valuation+len-1``;
    exponents from the end of the window up to ``trunc`` are known to be
    zero, and exponents at or beyond ``trunc`` are unknown.  ``trunc=None``
    marks an exact series (a Laurent polynomial, known at every exponent).

    Arithmetic always records the tightest truncation order that the inputs
    can justify.
    """

    __slots__ = ("ring", "valuation", "coeffs", "trunc")

    def __init__(self, ring: Ring, valuation: int, coeffs: Any = (),
                 trunc: int | None = None) -> None:
        coeffs = list(coeffs)
        if trunc is not None:
            # keep only the window the truncation order can support
            keep = trunc - valuation
            if keep < len(coeffs):
                coeffs = coeffs[: max(keep, 0)]
        while coeffs and coeffs[0] == ring.zero:
            coeffs.pop(0)
            valuation += 1
        while coeffs and coeffs[-1] == ring.zero:
            coeffs.pop()
        if not coeffs:
            valuation = trunc if trunc is not None else 0
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("LaurentSeries is immutable")

    @classmethod
    def zero(cls, ring: Ring, trunc: int | None = None) -> "LaurentSeries":
        return cls(ring, 0, (), trunc)

    @classmethod
    def monomial(cls, ring: Ring, exp: int, coeff: Any = None,
                 trunc: int | None = None) -> "LaurentSeries":
        c = ring.one if coeff is None else coeff
        return cls(ring, exp, (c,), trunc)

    @property
    def is_zero(self) -> bool:
        """True when every known coefficient is zero (up to the truncation)."""
        return not self.coeffs

    def coeff(self, exp: int) -> Any:
        if self.trunc is not None and exp >= self.trunc:
            raise TruncationError(
                f"coefficient at exponent {exp} is beyond truncation order {self.trunc}")
        i = exp - self.valuation
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    def items(self) -> Iterator[tuple[int, Any]]:
        """Yield (exponent, coefficient) for the nonzero known coefficients."""
        for i, c in enumerate(self.coeffs):
            if c != self.ring.zero:
                yield self.valuation + i, c

    def _merge(self, other: "LaurentSeries", sign: int) -> "LaurentSeries":
        trunc = min_trunc(self.trunc, other.trunc)
        data: dict[int, Any] = {}
        for e, c in zip(range(self.valuation, self.valuation + len(self.coeffs)),
                        self.coeffs):
            data[e] = c
        for e, c in zip(range(other.valuation, other.valuation + len(other.coeffs)),
                        other.coeffs):
            c = c if sign > 0 else -c
            data[e] = data[e] + c if e in data else c
        if not data:
            return LaurentSeries.zero(self.ring, trunc)
        lo, hi = min(data), max(data)
        coeffs = [data.get(e, self.ring.zero) for e in range(lo, hi + 1)]
        return LaurentSeries(self.ring, lo, coeffs, trunc)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._merge(other, +1)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._merge(other, -1)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.ring, self.valuation,
                             tuple(-c for c in self.coeffs), self.trunc)

    def __mul__(self, other: Any) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            # scalar (Fraction/int) or coefficient-ring element
            return LaurentSeries(self.ring, self.valuation,
                                 tuple(c * other for c in self.coeffs), self.trunc)
        if (self.is_zero and self.trunc is None) or (other.is_zero and other.trunc is None):
            return LaurentSeries.zero(self.ring)
        cands = []
        if self.trunc is not None:
            cands.append(self.trunc + other.valuation)
        if other.trunc is not None:
            cands.append(other.trunc + self.valuation)
        trunc = min(cands) if cands else None
        data: dict[int, Any] = {}
        for i, a in enumerate(self.coeffs):
            if a == self.ring.zero:
                continue
            ea = self.valuation + i
            for j, b in enumerate(other.coeffs):
                e = ea + other.valuation + j
                if trunc is not None and e >= trunc:
                    break
                prod = a * b
                data[e] = data[e] + prod if e in data else prod
        if not data:
            return LaurentSeries.zero(self.ring, trunc)
        lo, hi = min(data), max(data)
        coeffs = [data.get(e, self.ring.zero) for e in range(lo, hi + 1)]
        return LaurentSeries(self.ring, lo, coeffs, trunc)

    def __rmul__(self, other: Any) -> "LaurentSeries":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "LaurentSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers must be integers >= 0")
        result = LaurentSeries.monomial(self.ring, 0)
        for _ in range(n):
            result = result * self
        return result

    def truncate(self, order: int) -> "LaurentSeries":
        """Forget all coefficients at exponents >= order.

        Raising the truncation order is impossible: that would claim
        knowledge of coefficients which were never computed.
        """
        if self.trunc is not None and order > self.trunc:
            raise TruncationError(
                f"cannot extend truncation order {self.trunc} to {order}")
        return LaurentSeries(self.ring, self.valuation, self.coeffs, order)

    def agrees_with(self, other: "LaurentSeries") -> bool:
        """Compare coefficients on the window both series know."""
        horizon = min_trunc(self.trunc, other.trunc)
        exps = {e for e, _ in self.items()} | {e for e, _ in other.items()}
        for e in exps:
            if horizon is not None and e >= horizon:
                continue
            if self.coeff(e) != other.coeff(e):
                return False
        return True

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.valuation == other.valuation and self.coeffs == other.coeffs
                and self.trunc == other.trunc)

    def __hash__(self) -> int:
        return hash((self.valuation, self.coeffs, self.trunc))

    def render(self, var: str = "x") -> str:
        """Human-readable form, ascending exponents, plus the O-term."""
        text = join_terms((c, "" if e == 0 else var if e == 1 else f"{var}^{e}")
                          for e, c in self.items())
        if self.trunc is not None:
            text += f" + O({var}^{self.trunc})"
        return text

    def __repr__(self) -> str:
        return f"LaurentSeries({self.render()})"


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
    coeffs = [Fraction((-1) ** (i - 1), i) for i in range(1, order)]
    return LaurentSeries(QQ, 1, coeffs, order)


def laurent_pow_inv(s: LaurentSeries, n: int, order: int) -> LaurentSeries:
    """The inverse power s^(-n), known strictly below x^order.

    The leading monomial lead*x^v is factored out, leaving a unit series u
    with u_0 = 1, and p = u^(-n) follows from the power recurrence
    p_0 = 1, k*p_k = sum_{i=1..k} ((1-n)*i - k) * u_i * p_{k-i}, which is
    u*p' = -n*u'*p read coefficient by coefficient; the result is p scaled by
    lead^(-n).  The leading coefficient must be invertible (for Fraction
    coefficients it always is).  If the input's truncation cannot support
    the requested order, a TruncationError is raised rather than returning an
    under-truncated result.
    """
    if n < 1:
        raise ValueError("inverse power exponent must be >= 1")
    if s.is_zero:
        raise ValueError("cannot invert a series with no known nonzero coefficient")
    v = s.valuation
    lead = s.coeffs[0]
    try:
        lead_inv = s.ring.one / lead
    except TypeError:
        raise ValueError("leading coefficient is not invertible") from None
    if s.trunc is None:
        m = max(order + n * v, 1)
    else:
        m = s.trunc - v
    provable = m - n * v
    if provable < order:
        raise TruncationError(
            f"input truncation supports order {provable}, but {order} was requested")
    zero = s.ring.zero
    unit = [c * lead_inv for c in s.coeffs[:m]]
    unit += [zero] * (m - len(unit))
    powered = [s.ring.one]
    for k in range(1, m):
        acc = zero
        for i in range(1, k + 1):
            if unit[i] != zero:
                acc = acc + unit[i] * powered[k - i] * ((1 - n) * i - k)
        powered.append(acc * Fraction(1, k))
    scale = lead_inv ** n
    coeffs = [c * scale for c in powered]
    return LaurentSeries(s.ring, -n * v, coeffs, provable).truncate(order)


def series_exp(s: LaurentSeries, order: int) -> LaurentSeries:
    """Sum of s^i / i!, truncated at the given order.

    The argument must have no constant term (valuation >= 1); each power then
    raises the valuation, so the sum below the truncation order is finite.
    Nilpotent coefficient rings terminate the loop early on their own.
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
    result = LaurentSeries.monomial(s.ring, 0, trunc=out_trunc)
    term = result
    for i in range(1, out_trunc):
        term = (term * s).truncate(out_trunc) * Fraction(1, i)
        # s has valuation >= 1, so a term that is zero below the
        # truncation stays zero there for all later powers
        if term.is_zero:
            break
        result = result + term
    return result
