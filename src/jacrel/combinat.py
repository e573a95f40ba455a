"""Stirling numbers, the polynomials P_n(u) by three independent routes, the
alternating sums B_d, and the Laurent-expansion identity tying them together.

P_n(u) = sum_{m=1}^{n} (m-1)! S(n,m) u^m, where S(n,m) is the Stirling number
of the second kind.  The three construction routes are:

* ``stirling``: the closed form above;
* ``genfunc``: the coefficient of t^(n-1)/(n-1)! in u*e^t / (1 - u*(e^t - 1)),
  expanded in u first: its u^m coefficient is e^t (e^t - 1)^(m-1), a scalar
  series in t;
* ``laurent``: the principal part of (n-1)!/log(1+x)^n read off at u = 1/x.

The Laurent expansion of (n-1)!/log(1+x)^n equals P_n(1/x) in all negative
exponents; its constant term is the Bernoulli value B_n/n (1/2 for n = 1),
which vanishes exactly when n >= 3 is odd.  ``verify_identity4`` certifies
the principal-part equality and reports the non-negative residual tail.

L^-n, L = log(1+x), is built in one place, the cached ``_bare_log_inv_pow``,
which the implication chain in ``jacrel.relations`` shares.  It reads row n
of one table of (x/L)^n that serves every x-window and only grows: row 1
follows from (x/L)(L/x) = 1 and each next row from
L^-(n+1) = -(1+x) (L^-n)'/n, which loses no coefficient, so a wider or
taller request computes only the entries the table lacks (``_grown``).  The
table is the module's other shared state; each larger one is published
complete, under a lock, in place of the smaller one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from operator import mul
from threading import Lock
from typing import NamedTuple, Sequence

from .rings import DensePoly, LaurentSeries, _series, series_exp

P_ROUTES = ("stirling", "genfunc", "laurent")

# Memoized Stirling table.  Writers always store identical values, so
# concurrent use is idempotent (last write wins with the same entry).
_stirling_table: dict[tuple[int, int], int] = {}
# The table of (x/L)^n (see ``_bare_log_inv_pow``): row n as (denominator,
# numerators), all rows equally wide; a grown copy replaces it under the lock.
_table: tuple[tuple[int, tuple[int, ...]], ...] = ()
_PUBLISH = Lock()


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind via the alternating binomial sum.

    S(n,m) = (1/m!) * sum_{k=0}^{m} (-1)^(m-k) C(m,k) k^n.  Out-of-range
    arguments (m > n, or m = 0 < n) return 0 by convention.
    """
    if n < 0 or m < 0:
        raise ValueError("stirling2 arguments must be >= 0")
    if m > n:
        return 0
    if m == n:
        return 1
    if m == 0:
        return 0
    key = (n, m)
    cached = _stirling_table.get(key)
    if cached is not None:
        return cached
    total = sum((-1) ** (m - k) * comb(m, k) * k ** n for k in range(m + 1))
    value, rem = divmod(total, factorial(m))
    if rem:
        raise ArithmeticError("alternating sum not divisible by m!")
    _stirling_table[key] = value
    return value


def _extend_base(nums: Sequence[int], den: int, width: int) -> tuple[list[int], int]:
    """Row 1, x/L, extended from its entries ``nums`` over ``den`` to
    ``width`` entries, over the least common denominator, which it returns:
    y_0 = 1 and y_k = -sum_{i=1..k} (-1)^i y_(k-i)/(i+1), which is
    (x/L)(L/x) = 1 read coefficient by coefficient."""
    nums = list(nums) or [1]
    m = lcm(*range(1, len(nums) + 1))  # lcm(1..k+1): the 1/(i+1) are integers over it
    for k in range(len(nums), width):
        m = lcm(m, k + 1)
        acc = sum((-1) ** i * nums[k - i] * (m // (i + 1)) for i in range(1, k + 1))
        common = gcd(acc, den * m)
        num, below = -acc // common, den * m // common
        if den % below:  # y_k's denominator does not divide den: rescale the base so far
            grow = below // gcd(den, below)
            nums, den = [x * grow for x in nums], den * grow
        nums.append(num * (den // below))
    return nums, den


def _row_step(row: Sequence[int], den: int, n: int, start: int) -> tuple[list[int], int]:
    """Row n+1's entries from k = start on, and their denominator, from row n
    (``row`` over ``den``): n v(n+1)_k = (n-k) v(n)_k + (n-k+1) v(n)_(k-1),
    so the numerators stay integers over n*den, and row n+1 is as wide as
    row n."""
    return [(n - k) * row[k] + (n - k + 1) * row[k - 1] if k else n * row[0]
            for k in range(start, len(row))], den * n


def _grown(rows: tuple, height: int, width: int) -> tuple:
    """The table with at least ``height`` rows of at least ``width`` entries:
    the base is extended first, the kept rows are rescaled once to its
    denominator, and only the missing entries are computed."""
    den, base = rows[0] if rows else (1, ())
    base, new_den = _extend_base(base, den, width)
    scale = new_den // den
    out = [(new_den, tuple(base))]
    for n in range(1, max(height, len(rows))):
        kept = [x * scale for x in rows[n][1]] if n < len(rows) else []
        tail, row_den = _row_step(out[-1][1], out[-1][0], n, len(kept))
        out.append((row_den, tuple(kept + tail)))
    return tuple(out)


@lru_cache(maxsize=None)
def _bare_log_inv_pow(n: int, order: int) -> LaurentSeries:
    """log(1+x)^(-n), known strictly below x^order: x^-n times row n of the
    table, cut at k < order + n; the table grows first if it lacks them."""
    global _table
    if n < 1:
        raise ValueError("inverse power exponent must be >= 1")
    rows = _table
    if len(rows) < n or len(rows[0][1]) < order + n:
        with _PUBLISH:
            rows = _table
            if len(rows) < n or len(rows[0][1]) < order + n:
                rows = _table = _grown(rows, n, order + n)
    den, nums = rows[n - 1]
    return _series(-n, nums, den, order)


def inv_log1p_pow(n: int, order: int) -> LaurentSeries:
    """(n-1)!/log(1+x)^n as a Laurent series known strictly below x^order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    return _bare_log_inv_pow(n, order) * factorial(n - 1)


def _p_stirling(n: int) -> DensePoly:
    coeffs = [0] * (n + 1)
    for m in range(1, n + 1):
        coeffs[m] = factorial(m - 1) * stirling2(n, m)
    return DensePoly(coeffs)


def _p_genfunc(n: int) -> DensePoly:
    # [u^m] u e^t / (1 - u(e^t - 1)) = e^t (e^t - 1)^(m-1), whose t-valuation
    # m-1 bounds m by n below the truncation at t^n
    t = LaurentSeries.monomial(1, trunc=n)
    e_t = series_exp(t, n)
    em1 = e_t - LaurentSeries.monomial(0, trunc=n)
    coeffs = [Fraction(0)]
    power = e_t
    for _ in range(n):
        coeffs.append(power.coeff(n - 1) * factorial(n - 1))
        power = (power * em1).truncate(n)
    return DensePoly(coeffs)


def _p_laurent(n: int) -> DensePoly:
    expansion = inv_log1p_pow(n, 1)
    coeffs = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        coeffs[m] = expansion.coeff(-m)
    return DensePoly(coeffs)


def p_poly(n: int, route: str = "stirling") -> DensePoly:
    """The polynomial P_n(u), by any of the three independent routes.

    All routes agree exactly; they are kept separate so each can serve as an
    oracle for the others.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if route == "stirling":
        return _p_stirling(n)
    if route == "genfunc":
        return _p_genfunc(n)
    if route == "laurent":
        return _p_laurent(n)
    raise ValueError(f"unknown route {route!r}; expected one of {P_ROUTES}")


def principal_part(n: int) -> LaurentSeries:
    """P_n(1/x) as an exact Laurent polynomial: P_n's numerators reversed."""
    p = p_poly(n)
    return _series(-p.degree, p.series.nums[::-1], p.series.den, None)


def b_sum(d: int, a: tuple[int, ...]) -> Fraction:
    """The alternating sum over index tuples (i_1..i_r) of positive integers.

    B_d(a_1..a_r) = sum (-1)^(d - i_1 - ... - i_r) C(d, i_1+...+i_r)
    i_1^a_1 ... i_r^a_r, where the binomial kills every tuple with total
    above d, so only i_1 + ... + i_r <= d contributes.  It is summed by
    total, one exponent at a time: after k exponents, ways[u] is the sum of
    the products over the k-tuples of total k+u, and only u <= d-r can
    still reach d.
    """
    a = tuple(a)
    if d < 0:
        raise ValueError("d must be >= 0")
    if not a or any(e < 0 for e in a):
        raise ValueError("exponent tuple must be nonempty with entries >= 0")
    r = len(a)
    n = d - r + 1
    ways = [i ** a[0] for i in range(1, n + 1)]
    for e in a[1:]:
        power = [i ** e for i in range(1, n + 1)]
        ways = [sum(map(mul, ways[u::-1], power)) for u in range(n)]
    total = 0
    for t, x in enumerate(ways, r):  # the sign alternates from + at t = d down
        total = comb(d, t) * x - total
    return Fraction(total)


def b_gen(d: int, a: tuple[int, ...]) -> Fraction:
    """Coefficient of u^d in P_{a_1+1}(u)...P_{a_r+1}(u) / (1+u).

    The division is the geometric expansion of 1/(1+u) truncated at u^d.
    Agrees with ``b_sum`` on every input.
    """
    a = tuple(a)
    if d < 0:
        raise ValueError("d must be >= 0")
    if not a or any(e < 0 for e in a):
        raise ValueError("exponent tuple must be nonempty with entries >= 0")
    prod = DensePoly.one()
    for e in a:
        prod = (prod * p_poly(e + 1)).truncate(d + 1)
    return sum(((-1) ** j * prod.coeff(d - j) for j in range(d + 1)),
               Fraction(0))


class IdentityReport(NamedTuple):
    """Result of checking the Laurent expansion against P_n(1/x).

    ``ok`` certifies that every coefficient at a negative exponent matches,
    i.e. the principal part of (n-1)!/log(1+x)^n is exactly P_n(1/x).
    ``constant`` is the x^0 coefficient of the residual: the Bernoulli value
    B_n/n, which is 0 precisely for odd n >= 3.  ``residual`` lists the
    nonzero residual coefficients at exponents 0..order-1.
    """

    n: int
    order: int
    ok: bool
    constant: Fraction
    residual: tuple[tuple[int, Fraction], ...]


def verify_identity4(n: int, order: int) -> IdentityReport:
    """Compare (n-1)!/log(1+x)^n with P_n(1/x) coefficient by coefficient."""
    residual = inv_log1p_pow(n, order) - principal_part(n)
    ok = all(e >= 0 for e, _ in residual.items())
    tail = tuple((e, c) for e, c in residual.items() if e >= 0)
    return IdentityReport(n=n, order=order, ok=ok,
                          constant=residual.coeff(0), residual=tail)
