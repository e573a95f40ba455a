import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

from jacrel.grr import GrrContext
from jacrel.rings import (DensePoly, InvariantViolation, LaurentSeries, TruncationError,
                          _convolve, _recurrence, laurent_pow_inv, log1p_series, series_exp)
from jacrel.tautalg import TautElement
from oracles import grr_monomial, power


class TestLog1pSeries:
    def test_order_three(self):
        s = log1p_series(3)
        assert s.valuation == 1
        assert s.coeffs == (F(1), F(-1, 2))
        assert s.trunc == 3

    def test_order_one_empty_window(self):
        s = log1p_series(1)
        assert s.is_zero
        assert s.trunc == 1

    def test_order_five(self):
        s = log1p_series(5)
        assert [s.coeff(e) for e in range(1, 5)] == [F(1), F(-1, 2), F(1, 3), F(-1, 4)]

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            log1p_series(0)


class TestLaurentPowInv:
    def test_reference_expansion_block(self):
        # 4!/log(1+x)^5: principal part, constant, and the first five tail terms
        s = laurent_pow_inv(log1p_series(12), 5, 6) * F(24)
        expected = [F(24), F(60), F(50), F(15), F(1), F(0), F(-1, 252), F(1, 504),
                    F(-19, 30240), F(-1, 20160), F(53, 147840)]
        assert [s.coeff(e) for e in range(-5, 6)] == expected

    def test_monomial_inversion(self):
        x = LaurentSeries.monomial(1)
        inv = laurent_pow_inv(x, 2, 1)
        assert inv.valuation == -2
        assert inv.coeff(-2) == 1
        assert inv.coeff(0) == 0

    def test_inverse_property(self):
        s = LaurentSeries(1, (F(2), F(1), F(-1, 3)), 8)
        for n in (1, 2, 3):
            prod = laurent_pow_inv(s, n, 4) * power(s, n)
            assert prod.coeff(0) == 1
            assert all(prod.coeff(e) == 0 for e in range(1, prod.trunc))

    def test_insufficient_truncation(self):
        with pytest.raises(TruncationError):
            laurent_pow_inv(log1p_series(3), 5, 6)

    def test_zero_not_invertible(self):
        with pytest.raises(ValueError):
            laurent_pow_inv(LaurentSeries.zero(4), 1, 2)
        with pytest.raises(ValueError, match="inverse power exponent must be >= 1"):
            laurent_pow_inv(log1p_series(4), 0, 2)

    def test_remainder_in_the_power_recurrence_is_refused(self):
        # y' = y with y_0 = 1 on integers needs scale 2! for y_2 = 1/2;
        # scale 1 leaves 1 to be divided by k = 2
        with pytest.raises(InvariantViolation, match="left a remainder at k=2"):
            _recurrence([0, 1], 1, 3, 1, 0, 1)


class TestSeriesExp:
    def test_exp_t_order_three(self):
        t = LaurentSeries.monomial(1)
        assert series_exp(t, 3) == LaurentSeries(0, (F(1), F(1), F(1, 2)), 3)

    def test_exp_zero(self):
        z = LaurentSeries.zero()
        assert series_exp(z, 4) == LaurentSeries.monomial(0, trunc=4)

    def test_et_times_et_minus_one_coefficient(self):
        # oracle: e^t (e^t - 1) = e^{2t} - e^t, expanded term by term
        order = 6
        from oracles import exp_poly_coeffs
        oracle = [a - b for a, b in zip(exp_poly_coeffs(2, order),
                                        exp_poly_coeffs(1, order))]
        t = LaurentSeries.monomial(1)
        e_t = series_exp(t, order)
        product = e_t * (e_t - LaurentSeries.monomial(0))
        assert product.trunc == order
        assert [product.coeff(i) for i in range(order)] == oracle
        assert product.coeff(3) == F(7, 6)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            series_exp(LaurentSeries.monomial(0), 3)
        with pytest.raises(ValueError):
            series_exp(LaurentSeries.monomial(0, trunc=3), 3)
        with pytest.raises(ValueError, match="order must be >= 1"):
            series_exp(LaurentSeries.monomial(1), 0)

    def test_polynomial_input_rejected(self):
        with pytest.raises(TypeError):
            series_exp(DensePoly.monomial(1), 3)

    def test_unknown_constant_term_is_refused(self):
        with pytest.raises(TruncationError, match="constant term is not known"):
            series_exp(LaurentSeries(0, [], 0), 3)

    def test_laurent_exp(self):
        t = LaurentSeries.monomial(1, trunc=4)
        e = series_exp(t, 4)
        assert [e.coeff(i) for i in range(4)] == [F(1), F(1), F(1, 2), F(1, 6)]


class TestTruncationDiscipline:
    def test_coefficient_beyond_truncation_is_an_error(self):
        s = log1p_series(3)
        with pytest.raises(TruncationError):
            s.coeff(3)

    def test_truncation_cannot_be_extended(self):
        s = log1p_series(3)
        with pytest.raises(TruncationError):
            s.truncate(5)

    def test_product_truncation_rule(self):
        f = LaurentSeries(-1, (F(1), F(2)), 4)
        g = LaurentSeries(2, (F(3),), 5)
        prod = f * g
        assert prod.trunc == min(4 + 2, 5 + (-1))
        assert prod.coeff(1) == 3

    def test_exact_series_have_no_truncation(self):
        p = LaurentSeries(-2, (F(1), F(0), F(5)))
        assert p.trunc is None
        assert p.coeff(100) == 0

    def test_sum_takes_min_truncation(self):
        a = LaurentSeries(0, (F(1),), 5)
        b = LaurentSeries(0, (F(2),), 3)
        assert (a + b).trunc == 3


class TestConvolve:
    def test_matches_the_dense_product_and_its_prefix(self):
        rng = random.Random(4207)
        for _ in range(200):
            # half the entries zero, as the skipped entries of a
            a, b = ([rng.choice((0, rng.randint(-9, 9))) for _ in range(rng.randint(0, 6))]
                    for _ in range(2))
            product = DensePoly(a) * DensePoly(b)
            full = _convolve(a, b)
            assert len(full) == (len(a) + len(b) - 1 if a and b else 0), (a, b)
            assert full == [product.coeff(e) for e in range(len(full))], (a, b)
            assert product.degree < len(full) or product.is_zero, (a, b)
            for size in range(len(full) + 2):
                assert _convolve(a, b, size) == full[:size], (a, b, size)

    def test_empty_operand_and_size_at_most_zero(self):
        assert _convolve([], [1, 2]) == _convolve([1, 2], []) == _convolve([], []) == []
        assert _convolve([], [1, 2], 3) == []
        assert _convolve([1, 2], [3, 4], 0) == _convolve([1, 2], [3, 4], -1) == []
        assert _convolve([0, 1], [1, 1]) == [0, 1, 1]


class TestDensePoly:
    def test_trailing_zeros_stripped(self):
        p = DensePoly((F(1), F(0), F(0)))
        assert p.degree == 0

    def test_pow_square_and_multiply(self):
        p = DensePoly((F(1), F(1)))
        assert power(p, 4) == DensePoly((F(1), F(4), F(6), F(4), F(1)))

    def test_evaluate(self):
        p = DensePoly((F(1), F(2), F(3)))
        assert p.evaluate(F(2)) == 1 + 4 + 12

    def test_coeffs_read_from_x0_with_leading_zeros(self):
        p = DensePoly.monomial(2)
        assert p.coeffs == (F(0), F(0), F(1)) and p.degree == 2
        assert all(type(c) is F for c in p.coeffs)
        assert DensePoly.zero().coeffs == () and DensePoly.zero().degree == -1

    def test_coeff_outside_the_support_is_zero(self):
        # a polynomial is exact: no exponent is beyond a truncation order,
        # and none is negative
        p = DensePoly([1, F(1, 2)])
        for exp in (-3, -1, 2, 50):
            assert p.coeff(exp) == 0 and type(p.coeff(exp)) is F
        assert p.coeff(1) == F(1, 2)
        with pytest.raises(ValueError, match="DensePoly exponents must be >= 0"):
            DensePoly.monomial(-1)

    def test_truncate_stays_exact(self):
        p = DensePoly([1, F(1, 2), 3, F(-4, 3)])
        cut = p.truncate(2)
        assert cut == DensePoly([1, F(1, 2)]) and cut.coeff(3) == 0
        assert cut * DensePoly.monomial(3) == DensePoly([0, 0, 0, 1, F(1, 2)])
        assert p.truncate(10) == p
        assert p.truncate(0).is_zero and p.truncate(-1).is_zero
        assert DensePoly.monomial(3, 5).truncate(2).is_zero

    def test_repr(self):
        assert repr(DensePoly([1, F(1, 2)])) == "DensePoly([Fraction(1, 1), Fraction(1, 2)])"
        assert repr(DensePoly.zero()) == "DensePoly([])"
        assert repr(DensePoly.monomial(1, -2)) == "DensePoly([Fraction(0, 1), Fraction(-2, 1)])"

    def test_int_and_fraction_coefficients_compare_and_hash_equal(self):
        a, b = DensePoly([2, 0, -3, 0]), DensePoly([F(4, 2), F(0), F(-3)])
        assert a == b and hash(a) == hash(b)
        assert DensePoly([F(1, 3), 1]) * 3 == DensePoly([1, 3])
        assert hash(DensePoly([F(1, 3), 1]) * 3) == hash(DensePoly([1, 3]))

    def test_never_equal_to_a_laurent_series(self):
        for p, s in ((DensePoly([1, 2]), LaurentSeries(0, [1, 2])),
                     (DensePoly.zero(), LaurentSeries.zero()),
                     (DensePoly.one(), LaurentSeries.monomial(0))):
            assert p != s and s != p and not p == s


class TestExactCoefficientsOnly:
    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            LaurentSeries(0, [0.1, 2], 4)
        with pytest.raises(TypeError):
            DensePoly([F(1), 0.5])
        with pytest.raises(TypeError):
            LaurentSeries.monomial(2, "3")

    def test_float_scalars_rejected(self):
        for value in (LaurentSeries(0, [1, 2], 4), DensePoly([1, 2])):
            with pytest.raises(TypeError):
                value * 0.5
            with pytest.raises(TypeError):
                0.5 * value

    def test_only_qq_coefficients(self):
        # Q is the only coefficient field, so no constructor takes a ring
        with pytest.raises(TypeError):
            LaurentSeries(0, [1j])
        with pytest.raises(TypeError):
            DensePoly([Decimal(1)])
        with pytest.raises(TypeError):
            LaurentSeries(0, [True])

    @pytest.mark.parametrize("make", [
        lambda: LaurentSeries(-1, [1, F(1, 2)], 4),
        lambda: DensePoly([1, F(1, 2)]),
        lambda: TautElement.generator(3, 0) + TautElement.monomial(3, (2, 1), F(1, 3)),
        lambda: (grr_monomial(GrrContext(3, 4, 2), F(1, 2), xi=1)
                 + grr_monomial(GrrContext(3, 4, 2), fc=1)),
    ], ids=["LaurentSeries", "DensePoly", "TautElement", "GrrElement"])
    def test_bool_is_not_a_scalar(self, make):
        # the scalar branch of every product takes exactly int or Fraction,
        # and no sum takes an int: + and - refuse it, and == says no
        x = make()
        with pytest.raises(TypeError):
            x * True
        with pytest.raises(TypeError):
            False * x
        assert x * 2 == x + x
        with pytest.raises(TypeError):
            x + 1
        with pytest.raises(TypeError):
            x - 1
        assert not x == 1 and x != 1

    def test_int_and_fraction_scalars(self):
        s = LaurentSeries(0, [1, 2], 4)
        assert s * 3 == 3 * s == LaurentSeries(0, [F(3), F(6)], 4)
        assert (s * F(1, 2)).coeffs == (F(1, 2), F(1))
        assert DensePoly([1, 2]) * F(1, 2) == DensePoly([F(1, 2), F(1)])


class TestCanonicalStorage:
    def test_integer_numerators_over_one_denominator(self):
        s = LaurentSeries(-1, [0, F(2, 4), 0, F(-1, 3), 0], 6)
        assert (s.valuation, s.nums, s.den, s.trunc) == (0, (3, 0, -2), 6, 6)
        assert s.coeffs == (F(1, 2), F(0), F(-1, 3))

    def test_truncation_reduces_the_denominator(self):
        s = LaurentSeries(0, [2, F(1, 2)], 5).truncate(1)
        assert (s.nums, s.den) == ((2,), 1)
        assert s == LaurentSeries.monomial(0, 2, trunc=1)

    def test_zero_series(self):
        z = LaurentSeries(-3, [F(0), F(0)], 2)
        assert (z.valuation, z.nums, z.den, z.trunc) == (2, (), 1, 2)
        assert z == LaurentSeries.zero(2) == (LaurentSeries(0, [1], 3) * 0).truncate(2)
