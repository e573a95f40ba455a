import random
from fractions import Fraction as F

import pytest

import jacrel.combinat as combinat
from jacrel.combinat import (b_gen, b_sum, inv_log1p_pow, p_poly, stirling2,
                             verify_identity4)
from jacrel.rings import DensePoly
from oracles import _bare_log_inv_pow as log_inv_pow_by_inversion
from oracles import stirling_row_by_enumeration


class TestStirling2:
    def test_examples(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 5) == 1
        assert stirling2(3, 4) == 0
        assert stirling2(5, 4) == 10

    def test_out_of_range_conventions(self):
        assert stirling2(0, 0) == 1
        assert stirling2(4, 0) == 0
        assert stirling2(5, 1) == 1

    def test_against_partition_enumeration(self):
        for n in range(0, 11):
            row = stirling_row_by_enumeration(n)
            for m in range(0, n + 2):
                assert stirling2(n, m) == row.get(m, 0), (n, m)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)

    def test_sum_not_divisible_by_m_factorial_is_refused(self, monkeypatch):
        # S(4, 2) = 7 from an alternating sum of 14: twice 2! does not divide it
        real = combinat.factorial
        monkeypatch.setattr(combinat, "factorial", lambda m: 2 * real(m))
        monkeypatch.setattr(combinat, "_stirling_table", {})
        with pytest.raises(ArithmeticError, match="not divisible by m!"):
            stirling2(4, 2)


KNOWN_P_TABLE = {
    1: [0, 1],
    2: [0, 1, 1],
    3: [0, 1, 3, 2],
    4: [0, 1, 7, 12, 6],
    5: [0, 1, 15, 50, 60, 24],
}


class TestPPoly:
    def test_first_five_values(self):
        for n, coeffs in KNOWN_P_TABLE.items():
            assert p_poly(n) == DensePoly([F(c) for c in coeffs]), n

    @pytest.mark.parametrize("route", ["stirling", "genfunc", "laurent"])
    def test_routes_produce_same_table(self, route):
        for n, coeffs in KNOWN_P_TABLE.items():
            assert p_poly(n, route) == DensePoly([F(c) for c in coeffs])

    def test_three_route_agreement(self):
        for n in range(1, 13):
            reference = p_poly(n, "stirling")
            assert p_poly(n, "genfunc") == reference, n
            assert p_poly(n, "laurent") == reference, n

    def test_vanishing_at_minus_one(self):
        for n in range(2, 13):
            assert p_poly(n).evaluate(F(-1)) == 0, n

    def test_degree_and_leading_coefficient(self):
        from math import factorial
        for n in range(1, 13):
            p = p_poly(n)
            assert p.degree == n
            assert p.coeff(n) == factorial(n - 1)
            assert p.coeff(0) == 0

    def test_coefficients_positive_integers(self):
        for n in range(1, 13):
            for m in range(1, n + 1):
                c = p_poly(n).coeff(m)
                assert c.denominator == 1 and c > 0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            p_poly(0)
        with pytest.raises(ValueError):
            p_poly(3, "magic")


class TestBSums:
    def test_examples(self):
        assert b_sum(2, (1,)) == 0
        assert b_sum(1, (1,)) == 1
        assert b_sum(0, (1,)) == 0

    def test_gen_examples(self):
        assert b_gen(2, (1,)) == 0
        assert b_gen(1, (1,)) == 1

    def test_two_routes_agree_on_grid(self):
        for d in range(0, 7):
            for a1 in range(0, 4):
                assert b_sum(d, (a1,)) == b_gen(d, (a1,))
                for a2 in range(0, 4):
                    assert b_sum(d, (a1, a2)) == b_gen(d, (a1, a2))

    def test_values_are_integers(self):
        for d in range(0, 6):
            for a in ((2,), (1, 3), (0, 2, 1)):
                v = b_sum(d, a)
                assert v.denominator == 1

    def test_single_block_closed_form(self):
        # sum_i (-1)^(d-i) C(d,i) i^n counts surjections: d! S(n, d)
        from math import factorial
        for d in range(1, 6):
            for n in range(1, 7):
                assert b_sum(d, (n,)) == factorial(d) * stirling2(n, d)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            b_sum(-1, (1,))
        with pytest.raises(ValueError):
            b_sum(2, ())
        with pytest.raises(ValueError):
            b_gen(2, (-1,))
        with pytest.raises(ValueError, match="d must be >= 0"):
            b_gen(-1, (1,))


class TestIdentity4:
    def test_n5_certifies_with_documented_tail(self):
        rep = verify_identity4(5, 5)
        assert rep.ok
        assert rep.constant == 0
        assert rep.residual[0] == (1, F(-1, 252))

    def test_n1_principal_part(self):
        rep = verify_identity4(1, 3)
        assert rep.ok
        assert rep.constant == F(1, 2)

    def test_constant_is_the_bernoulli_value(self):
        # B_n/n for n >= 2: 1/12, 0, -1/120, 0, 1/252, ...
        expected = {2: F(1, 12), 3: F(0), 4: F(-1, 120), 5: F(0),
                    6: F(1, 252), 7: F(0), 8: F(-1, 240)}
        for n, value in expected.items():
            rep = verify_identity4(n, 4)
            assert rep.ok
            assert rep.constant == value, n

    def test_constant_vanishes_exactly_for_odd_n(self):
        for n in range(3, 12, 2):
            assert verify_identity4(n, 3).constant == 0
        for n in range(2, 12, 2):
            assert verify_identity4(n, 3).constant != 0

    def test_certified_up_to_n10_order10(self):
        for n in range(1, 11):
            assert verify_identity4(n, 10).ok

    def test_order_validation(self):
        with pytest.raises(ValueError):
            verify_identity4(3, 0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            verify_identity4(0, 0)  # n is checked first
        with pytest.raises(ValueError, match="order must be >= 1"):
            inv_log1p_pow(3, 0)


class TestInvLogPow:
    def test_matches_p_poly_principal_part(self):
        for n in range(1, 8):
            series = inv_log1p_pow(n, 1)
            p = p_poly(n)
            for m in range(1, n + 1):
                assert series.coeff(-m) == p.coeff(m)


def cold_ladders():
    combinat._ladders.clear()
    combinat._bare_log_inv_pow.cache_clear()


class TestLogLadder:
    CASES = [(n, order) for order in range(1, 17) for n in range(1, 41)]

    def test_matches_one_inversion_per_power_in_any_request_order(self):
        # each power of the ladder against its own laurent_pow_inv run, on a
        # cold store per request order, so no value depends on which powers
        # and windows were asked for before it
        interleaved = list(self.CASES)
        random.Random(27).shuffle(interleaved)
        try:
            for requests in (self.CASES, self.CASES[::-1], interleaved):
                cold_ladders()
                for n, order in requests:
                    got, want = combinat._bare_log_inv_pow(n, order), \
                        log_inv_pow_by_inversion(n, order)
                    assert got == want and got.trunc == want.trunc == order, (n, order)
                    assert repr(got) == repr(want), (n, order)
        finally:
            cold_ladders()

    def test_ladder_grows_at_least_twofold_and_never_shrinks(self):
        cold_ladders()
        try:
            assert len(combinat._log_ladder(5, 4)) == 5
            assert len(combinat._log_ladder(3, 4)) == 5
            assert len(combinat._log_ladder(6, 4)) == 10
            assert len(combinat._log_ladder(31, 4)) == 31
            assert len(combinat._ladders[4]) == 31
        finally:
            cold_ladders()

    def test_power_below_one_rejected(self):
        with pytest.raises(ValueError):
            combinat._bare_log_inv_pow(0, 4)
        with pytest.raises(ValueError, match="n must be >= 1"):
            inv_log1p_pow(0, 4)
