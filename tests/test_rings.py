from fractions import Fraction as F

import pytest

from jacrel.rings import (QQ, DensePoly, LaurentSeries, TruncationError,
                          laurent_pow_inv, log1p_series, series_exp)


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
        x = LaurentSeries.monomial(QQ, 1)
        inv = laurent_pow_inv(x, 2, 1)
        assert inv.valuation == -2
        assert inv.coeff(-2) == 1
        assert inv.coeff(0) == 0

    def test_inverse_property(self):
        s = LaurentSeries(QQ, 1, (F(2), F(1), F(-1, 3)), 8)
        for n in (1, 2, 3):
            prod = laurent_pow_inv(s, n, 4) * s ** n
            assert prod.coeff(0) == 1
            assert all(prod.coeff(e) == 0 for e in range(1, prod.trunc))

    def test_insufficient_truncation(self):
        with pytest.raises(TruncationError):
            laurent_pow_inv(log1p_series(3), 5, 6)

    def test_zero_not_invertible(self):
        with pytest.raises(ValueError):
            laurent_pow_inv(LaurentSeries.zero(QQ, 4), 1, 2)


class TestSeriesExp:
    def test_exp_t_order_three(self):
        t = LaurentSeries.monomial(QQ, 1)
        assert series_exp(t, 3) == LaurentSeries(QQ, 0, (F(1), F(1), F(1, 2)), 3)

    def test_exp_zero(self):
        z = LaurentSeries.zero(QQ)
        assert series_exp(z, 4) == LaurentSeries.monomial(QQ, 0, trunc=4)

    def test_et_times_et_minus_one_coefficient(self):
        # oracle: e^t (e^t - 1) = e^{2t} - e^t, expanded term by term
        order = 6
        from oracles import exp_poly_coeffs
        oracle = [a - b for a, b in zip(exp_poly_coeffs(2, order),
                                        exp_poly_coeffs(1, order))]
        t = LaurentSeries.monomial(QQ, 1)
        e_t = series_exp(t, order)
        product = e_t * (e_t - LaurentSeries.monomial(QQ, 0))
        assert product.trunc == order
        assert [product.coeff(i) for i in range(order)] == oracle
        assert product.coeff(3) == F(7, 6)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            series_exp(LaurentSeries.monomial(QQ, 0), 3)
        with pytest.raises(ValueError):
            series_exp(LaurentSeries.monomial(QQ, 0, trunc=3), 3)

    def test_polynomial_input_rejected(self):
        with pytest.raises(TypeError):
            series_exp(DensePoly.monomial(QQ, 1), 3)

    def test_laurent_exp(self):
        t = LaurentSeries.monomial(QQ, 1, trunc=4)
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
        f = LaurentSeries(QQ, -1, (F(1), F(2)), 4)
        g = LaurentSeries(QQ, 2, (F(3),), 5)
        prod = f * g
        assert prod.trunc == min(4 + 2, 5 + (-1))
        assert prod.coeff(1) == 3

    def test_exact_series_have_no_truncation(self):
        p = LaurentSeries(QQ, -2, (F(1), F(0), F(5)))
        assert p.trunc is None
        assert p.coeff(100) == 0

    def test_sum_takes_min_truncation(self):
        a = LaurentSeries(QQ, 0, (F(1),), 5)
        b = LaurentSeries(QQ, 0, (F(2),), 3)
        assert (a + b).trunc == 3


class TestDensePoly:
    def test_trailing_zeros_stripped(self):
        p = DensePoly(QQ, (F(1), F(0), F(0)))
        assert p.degree == 0

    def test_pow_square_and_multiply(self):
        p = DensePoly(QQ, (F(1), F(1)))
        assert p ** 4 == DensePoly(QQ, (F(1), F(4), F(6), F(4), F(1)))

    def test_evaluate(self):
        p = DensePoly(QQ, (F(1), F(2), F(3)))
        assert p.evaluate(F(2)) == 1 + 4 + 12
