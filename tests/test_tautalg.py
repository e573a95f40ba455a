from fractions import Fraction as F

import pytest

from jacrel.tautalg import (BivarPoly, TautElement, build_g_poly, build_h_poly,
                            mono_bidegree, poly_power)


def C(g, j):
    return TautElement.generator(g, j)


class TestTautElement:
    def test_generator_product(self):
        g = 3
        prod = C(g, 0) * C(g, 1)
        assert prod.terms == {(1, 0): F(1)}
        assert prod.bidegree() == (2, 1)

    def test_unit_law(self):
        g = 4
        x = C(g, 2) * 5 + C(g, 0)
        assert x * TautElement.one(g) == x

    def test_binomial_expansion(self):
        g = 3
        x = C(g, 0) + C(g, 1)
        square = x * x
        expected = (C(g, 0) * C(g, 0) + C(g, 0) * C(g, 1) * 2
                    + C(g, 1) * C(g, 1))
        assert square == expected

    def test_commutativity_and_canonical_order(self):
        g = 5
        x = C(g, 4) * C(g, 1) * C(g, 2)
        y = C(g, 2) * C(g, 4) * C(g, 1)
        assert x == y
        assert list(x.terms) == [(4, 2, 1)]

    def test_mismatched_genus_rejected(self):
        with pytest.raises(ValueError):
            C(3, 0) * C(4, 0)
        with pytest.raises(ValueError, match="ambient genus parameter must be >= 1"):
            TautElement(0, {})

    def test_zero_coefficients_dropped(self):
        g = 2
        z = C(g, 1) - C(g, 1)
        assert z.is_zero
        assert z.terms == {}

    def test_render_golden(self):
        g = 4
        elt = C(g, 0) * C(g, 2) * 12 + C(g, 1) * C(g, 1) * 4
        assert elt.render() == "12*C(0)*C(2) + 4*C(1)^2"

    def test_render_signs_and_units(self):
        g = 3
        elt = C(g, 2) - C(g, 0) * C(g, 0)
        assert elt.render() == "C(2) - C(0)^2"
        assert TautElement.zero(g).render() == "0"

    def test_homogeneous_components_recombine(self):
        g = 3
        elt = C(g, 0) * 3 + C(g, 1) * C(g, 2) * F(1, 2) + TautElement.one(g)
        total = TautElement.zero(g)
        for s, w in elt.bidegrees():
            total = total + TautElement(g, {m: c for m, c in elt.terms.items()
                                            if mono_bidegree(m) == (s, w)})
        assert total == elt

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            TautElement(2, {(2,): F(1)})
        with pytest.raises(ValueError):
            TautElement.generator(2, 5)


class TestExactCoefficients:
    def test_monomials_sorting_alike_add_up(self):
        assert TautElement(3, {(0, 1): 1, (1, 0): 2}) == C(3, 1) * C(3, 0) * 3
        assert TautElement(3, {(0, 1): 1, (1, 0): -1}).is_zero

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            TautElement(3, {(0,): 0.1})
        with pytest.raises(TypeError):
            TautElement.monomial(3, (1,), 2.0)
        with pytest.raises(TypeError):
            C(3, 0) * 0.5

    def test_non_int_weights_and_bool_coefficients_rejected(self):
        for weights in ((1.5,), (0.0,), (True,), (2, False)):
            with pytest.raises(TypeError):
                TautElement(3, {weights: 1})
        with pytest.raises(TypeError):
            TautElement(3, {(1,): True})
        with pytest.raises(TypeError):
            TautElement.monomial(3, (0,), False)
        with pytest.raises(ValueError):
            TautElement(3, {(3,): 1})

    def test_integral_coefficients_are_ints(self):
        elt = C(3, 0) * F(1, 2) + C(3, 0) * F(1, 2) + C(3, 1) * F(1, 3)
        assert elt.terms == {(0,): 1, (1,): F(1, 3)}
        assert type(elt.terms[(0,)]) is int
        assert TautElement(3, {(2,): F(4, 2)}).terms == {(2,): 2}
        assert type(TautElement(3, {(2,): F(4, 2)}).terms[(2,)]) is int


class TestGPoly:
    def test_g2(self):
        G = build_g_poly(2)
        assert G.coeff(0, 2) == C(2, 0)
        assert G.coeff(0, 3) == C(2, 1) * 2
        assert G.t_degree == 3

    def test_g1_single_term(self):
        G = build_g_poly(1)
        assert G.coeff(0, 2) == C(1, 0)
        assert len(G.terms) == 1

    def test_t4_coefficient_of_g3(self):
        G = build_g_poly(3)
        assert G.coeff(0, 4) == C(3, 2) * 6


class TestHPoly:
    def test_g1(self):
        # P_2(u) = u + u^2
        H = build_h_poly(1)
        assert H.coeff(1, 2) == C(1, 0)
        assert H.coeff(2, 2) == C(1, 0)
        assert H.u_degree == 2

    def test_g2_t3_coefficient(self):
        # P_3(u) = u + 3u^2 + 2u^3
        H = build_h_poly(2)
        assert H.coeff(1, 3) == C(2, 1)
        assert H.coeff(2, 3) == C(2, 1) * 3
        assert H.coeff(3, 3) == C(2, 1) * 2


class TestPolyPower:
    def test_identity_power(self):
        G = build_g_poly(3)
        assert poly_power(G, 1) == G

    def test_square_of_g2(self):
        sq = poly_power(build_g_poly(2), 2)
        assert sq.coeff(0, 4) == C(2, 0) * C(2, 0)
        assert sq.coeff(0, 5) == C(2, 0) * C(2, 1) * 4
        assert sq.coeff(0, 6) == C(2, 1) * C(2, 1) * 4

    def test_coefficients_homogeneous(self):
        g, s = 4, 3
        power = poly_power(build_g_poly(g), s)
        for n in range(2 * s, s * (g + 1) + 1):
            elt = power.coeff(0, n)
            if not elt.is_zero:
                assert elt.bidegree() == (s, n - 2 * s)
        assert power.coeff(0, 2 * s - 1).is_zero
        assert power.t_degree == s * (g + 1)

    def test_power_of_h_coefficients_match_factorials(self):
        # top u-coefficient of H at t^(a+2) is (a+1)! C(a): same leading data as G
        g = 3
        H = build_h_poly(g)
        G = build_g_poly(g)
        for a in range(g):
            assert H.coeff(a + 2, a + 2) == G.coeff(0, a + 2)

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            poly_power(build_g_poly(2), 0)
        # and the other bad inputs of the reference route
        for build in (build_g_poly, build_h_poly):
            with pytest.raises(ValueError, match="g must be >= 1"):
                build(0)
        with pytest.raises(ValueError, match="u and t exponents must be >= 0"):
            BivarPoly(2, {(-1, 2): C(2, 0)})
        with pytest.raises(ValueError, match="mismatched ambient genus"):
            build_g_poly(2) * BivarPoly(3)  # an empty side has no element to refuse


class TestBivarPolyPlumbing:
    def test_u_slice_and_t_coefficient(self):
        H = build_h_poly(2)
        assert set(H.u_slice(1)) == {2, 3}
        assert {u for u, t, _ in H.items() if t == 3} == {1, 2, 3}

    @pytest.mark.parametrize("product", [lambda p: p * 2, lambda p: 2 * p],
                             ids=["poly*int", "int*poly"])
    def test_product_with_a_non_poly_raises_type_error(self, product):
        # __mul__ returns NotImplemented for any other operand, and int has
        # no product with a BivarPoly either
        with pytest.raises(TypeError):
            product(build_g_poly(2))
