"""Independent oracles from sympy: series, Bernoulli and Stirling numbers.

sympy is a test-only dependency; without it this module is skipped.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest

from jacrel.combinat import inv_log1p_pow, p_poly, stirling2
from jacrel.relations import epsilon_series
from jacrel.tautalg import TautElement

sympy = pytest.importorskip("sympy")

X_ORDER = 8


def _fraction(value) -> F:
    value = sympy.Rational(value)
    return F(int(value.p), int(value.q))


@lru_cache(maxsize=None)
def _defect_series(n: int) -> dict[int, F]:
    """Coefficients of P_n(1/x) - (n-1)!/log(1+x)^n below x^X_ORDER."""
    x = sympy.Symbol("x")
    p_at_inverse = sum(int(c) * x ** -m for m, c in p_poly(n).items())
    expr = p_at_inverse - sympy.factorial(n - 1) / sympy.log(1 + x) ** n
    poly = sympy.series(expr, x, 0, X_ORDER).removeO()
    return {e: _fraction(poly.coeff(x, e)) for e in range(-n, X_ORDER)}


def test_epsilon_parts_match_sympy_series():
    for g in range(1, 7):
        report = epsilon_series(g, X_ORDER)
        assert sorted(report.parts) == list(range(2, g + 2))
        for n, part in report.parts.items():
            assert part.trunc == X_ORDER, (g, n)
            expected = _defect_series(n)
            for e in range(-n, X_ORDER):
                assert part.coeff(e) == expected[e], (g, n, e)


def test_high_inverse_log_powers_match_sympy_series():
    # the exponents 2|S| + sum a_i that the chain's split sums reach
    x = sympy.Symbol("x")
    order = 4
    for n in (9, 14, 21):
        expr = sympy.factorial(n - 1) / sympy.log(1 + x) ** n
        poly = sympy.series(expr, x, 0, order).removeO()
        got = inv_log1p_pow(n, order)
        assert got.trunc == order, n
        for e in range(-n, order):
            assert got.coeff(e) == _fraction(poly.coeff(x, e)), (n, e)


def test_x0_coefficients_are_minus_bernoulli_over_n():
    for g in range(1, 7):
        report = epsilon_series(g, X_ORDER)
        expected = {}
        for n in range(2, g + 2):
            value = _fraction(-sympy.bernoulli(n) / n)
            if value:
                expected[n] = TautElement.monomial(g, (n - 2,), value)
        assert report.x0_coefficients == expected, g
        assert set(expected) == {n for n in range(2, g + 2) if n % 2 == 0}


def test_stirling2_matches_sympy():
    from sympy.functions.combinatorial.numbers import stirling
    for n in range(0, 13):
        for m in range(0, n + 1):
            assert stirling2(n, m) == int(stirling(n, m, kind=2)), (n, m)
