import random
from fractions import Fraction as F
from math import factorial

import pytest

from jacrel import cli, grr
from jacrel.grr import (ChernData, GrrContext, GrrElement, UpstairsTerm, ch_vk,
                        chern_classes, derive_theorem1, extract_amj,
                        gamma_extract, gamma_top_reference, pushforward)
from jacrel.relations import gen_theorem1
from jacrel.rings import InvariantViolation
from jacrel.tautalg import TautElement
from oracles import (GenericSeries, Ring, ch_closed_form_by_elements, ch_route_by_elements,
                     chern_classes_by_fractions, gammas_by_k_scan, generic_series_exp,
                     pushforward_by_products, rand_fraction)

# the criterion-7 grid
GRID = [(g, d, r) for r in range(1, 4) for g in range(1, 6) for d in range(1, 9)]
# the criterion-7 grid with g = 6, and r = 4 for every g <= 6
WIDE_GRID = [(g, d, r) for r in range(1, 5) for g in range(1, 7) for d in range(1, 9)]


@pytest.fixture
def ctx():
    return GrrContext(g=3, d=4, r=2)


def one(ctx):
    return GrrElement.one(ctx)


class TestPushforward:
    def test_ell_squared(self, ctx):
        term = UpstairsTerm(ctx, 2, 0, 0, one(ctx))
        expected = GrrElement.fc(ctx, 0) * GrrElement.xi(ctx) * 2
        assert pushforward(term) == expected

    def test_single_ell_power_dies(self, ctx):
        for nu in range(ctx.r + 1):
            assert pushforward(UpstairsTerm(ctx, 1, nu, 0, one(ctx))).is_zero

    def test_rho_without_ell(self, ctx):
        for nu in range(ctx.r):
            got = pushforward(UpstairsTerm(ctx, 0, nu, 1, one(ctx)))
            assert got == GrrElement.xi(ctx, nu + 1)

    def test_rho_with_ell_dies(self, ctx):
        assert pushforward(UpstairsTerm(ctx, 3, 1, 1, one(ctx))).is_zero

    def test_degree_term(self, ctx):
        got = pushforward(UpstairsTerm(ctx, 0, 1, 0, one(ctx)))
        assert got == GrrElement.xi(ctx) * ctx.d

    def test_high_ell_powers_vanish(self, ctx):
        assert pushforward(UpstairsTerm(ctx, ctx.g + 2, 0, 0, one(ctx))).is_zero

    def test_xi_nilpotency_in_table(self, ctx):
        # nu = r with mu >= 2 lands on xi^(r+1) = 0
        assert pushforward(UpstairsTerm(ctx, 2, ctx.r, 0, one(ctx))).is_zero

    def test_matches_element_products(self):
        # every case of the table, on coefficients of up to three terms in k,
        # a_j and b_j with rational coefficients
        rng = random.Random(34)
        for ctx in (GrrContext(3, 4, 2), GrrContext(1, 1, 1), GrrContext(5, 8, 3)):
            for _ in range(8):
                coeff = GrrElement(ctx, {
                    tuple(rng.choice((0, 1, 2)) if i < 2 * ctx.r else 0
                          for i in range(ctx.nvars)): rand_fraction(rng)
                    for _ in range(rng.randint(0, 3))})
                for mu in range(ctx.g + 3):
                    for nu in range(ctx.r + 1):
                        for rho in (0, 1):
                            term = UpstairsTerm(ctx, mu, nu, rho, coeff)
                            got = pushforward(term)
                            assert got == pushforward_by_products(term), term
                            assert all(type(c) is int or c.denominator != 1
                                       for c in got.terms.values())

    def test_invalid_terms_rejected(self, ctx):
        with pytest.raises(ValueError):
            UpstairsTerm(ctx, 0, ctx.r + 1, 0, one(ctx))
        with pytest.raises(ValueError):
            UpstairsTerm(ctx, 0, 0, 2, one(ctx))
        with pytest.raises(ValueError):
            UpstairsTerm(ctx, 0, 0, 0, GrrElement.xi(ctx))


class TestChVk:
    def test_rank_term(self):
        for (g, d, r) in ((2, 3, 1), (3, 4, 2), (4, 6, 3)):
            data = ch_vk(g, d, r)
            assert data.ch_j(0) == GrrElement.scalar(data.ctx, d)

    def test_divisibility_emerges(self):
        for (g, d, r) in ((2, 3, 1), (3, 5, 2), (4, 6, 3)):
            data = ch_vk(g, d, r)
            for j in range(1, len(data.ch)):
                piece = data.ch_j(j)
                assert piece.is_zero or piece.min_xi_exponent >= 1

    def test_component_table(self):
        # ch_j = (d a_j + b_{j-1}) xi^j + sum_m a_{m-1} k^{j-m+1} FC_{j-m-1} xi^m
        # with a_j = b_j = 0 for j >= r and FC indices capped at g-1
        g, d, r = 4, 5, 3
        data = ch_vk(g, d, r)
        ctx = data.ctx
        for j in range(1, len(data.ch)):
            expected = GrrElement.zero(ctx)
            if j <= r:
                diag = GrrElement.b_coeff(ctx, j - 1)
                if j <= r - 1:
                    diag = diag + GrrElement.a_coeff(ctx, j) * d
                expected = expected + diag * GrrElement.xi(ctx, j)
            for m in range(1, min(j - 1, r) + 1):
                fc_index = j - m - 1
                if fc_index > g - 1:
                    continue
                expected = expected + (GrrElement.a_coeff(ctx, m - 1)
                                       * GrrElement.k_power(ctx, j - m + 1)
                                       * GrrElement.fc(ctx, fc_index)
                                       * GrrElement.xi(ctx, m))
            assert data.ch_j(j) == expected, j

    def test_r1_shape(self):
        # rank + scalar*xi + FC-part*xi, nothing else
        data = ch_vk(3, 4, 1)
        ctx = data.ctx
        assert data.ch_j(1) == GrrElement.b_coeff(ctx, 0) * GrrElement.xi(ctx)
        for j in range(2, len(data.ch)):
            expected = (GrrElement.k_power(ctx, j) * GrrElement.fc(ctx, j - 2)
                        * GrrElement.xi(ctx)) if j - 2 <= ctx.g - 1 \
                else GrrElement.zero(ctx)
            assert data.ch_j(j) == expected


    def test_cross_check_failure_raises_and_fails_the_cli(self, monkeypatch, capsys):
        closed_form = grr._ch_closed_form

        def one_term_off(ctx):
            return closed_form(ctx) + GrrElement.k_power(ctx, 1)

        ch_vk.cache_clear()
        monkeypatch.setattr(grr, "_ch_closed_form", one_term_off)
        try:
            with pytest.raises(InvariantViolation, match="closed form"):
                ch_vk(3, 4, 2)
            assert cli.main(["grr", "--g", "3", "--d", "4", "--r", "2", "--M", "4"]) == 1
            assert "pushforward route disagrees" in capsys.readouterr().err
        finally:
            ch_vk.cache_clear()


class TestBuildersMatchElementReference:
    """The route, the closed form and the Chern tower write their terms
    into one map; the references build them element by element."""

    def test_ch_vk_matches_the_element_route(self):
        for g, d, r in WIDE_GRID:
            ctx = GrrContext(g, d, r)
            route = ch_route_by_elements(ctx)
            assert ch_closed_form_by_elements(ctx) == route, (g, d, r)
            assert grr._ch_grr_route(ctx) == route, (g, d, r)
            assert grr._ch_closed_form(ctx) == route, (g, d, r)
            assert ch_vk(g, d, r).ch == route.codim_pieces(), (g, d, r)

    def test_cold_and_warm_towers_match_the_fraction_route(self):
        for g, d, r in WIDE_GRID:
            shared, order = ch_vk(g, d, r), d + 4
            expected = chern_classes_by_fractions(shared, order + 3)
            tower = ChernData(ctx=shared.ctx, ch=shared.ch)
            assert chern_classes(tower, order).c == expected[:order], (g, d, r)
            assert chern_classes(tower, order + 3).c == expected, (g, d, r)
            assert chern_classes(tower, 2).c == expected[:2], (g, d, r)
            assert all(type(c) is int for element in tower._tower.scaled
                       for c in element.terms.values())


class TestExtractAmj:
    def test_diagonal_case(self):
        data = ch_vk(4, 5, 3)
        ctx = data.ctx
        expected = GrrElement.a_coeff(ctx, 2) * 5 + GrrElement.b_coeff(ctx, 1)
        assert extract_amj(data, 2, 2) == expected

    def test_below_diagonal(self):
        data = ch_vk(4, 5, 3)
        ctx = data.ctx
        assert extract_amj(data, 1, 3) == (GrrElement.k_power(ctx, 3)
                                           * GrrElement.fc(ctx, 1))

    def test_above_diagonal_zero(self):
        data = ch_vk(4, 5, 3)
        assert extract_amj(data, 3, 2).is_zero

    def test_range_validation(self):
        data = ch_vk(3, 4, 2)
        with pytest.raises(ValueError):
            extract_amj(data, 0, 1)
        with pytest.raises(ValueError):
            extract_amj(data, 3, 1)


class TestChernClasses:
    def test_constant_term_one(self):
        data = chern_classes(ch_vk(3, 4, 2), 6)
        assert data.c_j(0) == GrrElement.one(data.ctx)

    def test_r1_signs(self):
        # with xi^2 = 0 the exponential collapses: c_j = (-1)^(j-1) (j-1)! ch_j
        data = chern_classes(ch_vk(4, 5, 1), 7)
        for j in range(1, 7):
            sign = F((-1) ** (j - 1) * factorial(j - 1))
            assert data.c_j(j) == data.ch_j(j) * sign, j

    def test_divisibility_checked(self):
        ctx = GrrContext(2, 3, 2)
        bad = ChernData(ctx=ctx, ch=(GrrElement.scalar(ctx, 3),
                                     GrrElement.one(ctx)))
        with pytest.raises(InvariantViolation):
            chern_classes(bad, 4)

    def test_classes_beyond_cutoff_unavailable(self):
        data = chern_classes(ch_vk(2, 3, 1), 4)
        assert data.c_j(10).is_zero

    def test_newton_identity_matches_exponential_series(self):
        # reference: exp(F(t)) expanded as a series over the GRR ring, with
        # F(t) = sum_j (-1)^(j-1) (j-1)! ch_j t^j
        for r in range(1, 4):
            for g in range(1, 6):
                for d in range(1, 9):
                    data = ch_vk(g, d, r)
                    ctx, order = data.ctx, d + 4
                    ring = Ring(GrrElement.zero(ctx), GrrElement.one(ctx))
                    f = GenericSeries(ring, 0, [GrrElement.zero(ctx)] + [
                        data.ch[j] * ((-1) ** (j - 1) * factorial(j - 1))
                        for j in range(1, len(data.ch))])
                    exp_f = generic_series_exp(f, order)
                    expected = tuple(exp_f.coeff(n) for n in range(order))
                    assert chern_classes(data, order).c == expected, (g, d, r)

    def test_t_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            chern_classes(ch_vk(2, 3, 1), 0)

    def test_t_order_checked_before_any_work(self):
        # the character is not divisible by xi, but the order is refused first
        ctx = GrrContext(2, 3, 2)
        bad = ChernData(ctx=ctx, ch=(GrrElement.scalar(ctx, 3), GrrElement.one(ctx)))
        with pytest.raises(ValueError, match="t_order"):
            chern_classes(bad, 0)
        assert bad._tower is None


class TestIntegerTower:
    def test_matches_fraction_recurrence_in_any_request_order(self):
        for g, d, r in GRID:
            shared, order = ch_vk(g, d, r), d + 4
            expected = chern_classes_by_fractions(shared, order + 3)

            def fresh():
                return ChernData(ctx=shared.ctx, ch=shared.ch)

            cold = fresh()
            assert chern_classes(cold, order).c == expected[:order], (g, d, r)
            after = fresh()
            assert chern_classes(after, order + 3).c == expected
            assert chern_classes(after, order).c == expected[:order]
            before = fresh()
            assert chern_classes(before, order - 2).c == expected[:order - 2]
            assert chern_classes(before, order).c == expected[:order]
            classes = chern_classes(shared, order).c
            assert classes == expected[:order]
            # canonical coefficients: int when integral, else a reduced Fraction
            assert all(type(c) is int or c.denominator != 1
                       for element in classes for c in element.terms.values())

    def test_ch_vk_is_shared_and_integral(self):
        data = ch_vk(3, 4, 2)
        assert ch_vk(3, 4, 2) is data
        assert all(type(c) is int for piece in data.ch for c in piece.terms.values())

    def test_non_integral_character_rejected(self):
        ctx = GrrContext(2, 3, 2)
        half_xi = ChernData(ctx=ctx, ch=(GrrElement.scalar(ctx, 3),
                                         GrrElement.xi(ctx) * F(1, 2)))
        with pytest.raises(InvariantViolation):
            chern_classes(half_xi, 3)

    def test_memo_is_not_part_of_the_value(self):
        data = ch_vk(3, 4, 2)
        bare = ChernData(ctx=data.ctx, ch=data.ch)
        chern_classes(data, 9)
        assert data._tower is not None and bare._tower is None
        assert data == bare and hash(data) == hash(bare)
        assert repr(data) == repr(bare) and "_tower" not in repr(data)
        derived = chern_classes(bare, 5)
        assert derived == ChernData(ctx=data.ctx, ch=data.ch, c=derived.c)
        assert repr(derived) == repr(ChernData(ctx=data.ctx, ch=data.ch, c=derived.c))


class TestExactCoefficients:
    def test_float_coefficients_rejected(self, ctx):
        exp = (0,) * ctx.nvars
        with pytest.raises(TypeError):
            GrrElement(ctx, {exp: 0.5})
        with pytest.raises(TypeError):
            GrrElement.k_power(ctx, 2, 1.0)
        with pytest.raises(TypeError):
            one(ctx) * 0.5

    def test_integral_coefficients_are_ints(self, ctx):
        half = GrrElement.xi(ctx) * F(1, 2)
        assert (half + half).terms == GrrElement.xi(ctx).terms
        assert all(type(c) is int for c in (half + half).terms.values())
        assert GrrElement.scalar(ctx, F(6, 3)) == GrrElement.scalar(ctx, 2)
        assert type(GrrElement.scalar(ctx, F(6, 3)).terms[(0,) * ctx.nvars]) is int


class TestGamma:
    def test_powers_bounded_by_m_plus_one(self):
        for (g, d, r, M) in ((3, 4, 2, 5), (4, 5, 2, 6), (3, 6, 3, 7)):
            data = gamma_extract(g, d, r, M)
            assert data.max_power <= M + 1, (g, d, r, M)

    def test_top_matches_reference_formula(self):
        for (g, d, r, M) in ((3, 4, 1, 4), (4, 5, 2, 5), (4, 6, 3, 7)):
            data = gamma_extract(g, d, r, M)
            assert data.gamma(M + 1) == gamma_top_reference(g, d, r, M)

    def test_one_pass_split_matches_the_per_power_scan(self):
        # on the criterion-7 grid, keys included: they ascend in s, as the
        # repr of GammaData shows them
        for r in (1, 2, 3):
            for g in range(1, 6):
                for d in range(1, 9):
                    for M in (d, d + 1, d + 2):
                        data = gamma_extract(g, d, r, M)
                        want = gammas_by_k_scan(data.xi_r_part)
                        assert data.gammas == want, (g, d, r, M)
                        assert list(data.gammas) == list(want), (g, d, r, M)

    def test_top_free_of_todd_unknowns(self):
        data = gamma_extract(4, 5, 2, 5)
        assert not data.gamma(6).uses_todd_unknowns()
        # the power below the top does involve them here: gamma_5 = 24 b0 FC3
        ctx = data.ctx
        assert data.gamma(5) == (GrrElement.b_coeff(ctx, 0)
                                 * GrrElement.fc(ctx, 3) * 24)
        assert data.gamma(5).uses_todd_unknowns()

    def test_requires_m_at_least_d(self):
        with pytest.raises(ValueError):
            gamma_extract(3, 4, 1, 3)

    def test_reference_requires_m_at_least_d(self):
        with pytest.raises(ValueError, match="M must be >= d"):
            gamma_top_reference(2, 3, 1, 1)
        with pytest.raises(ValueError, match="M must be >= d"):
            gamma_extract(2, 3, 1, 1)


class TestDeriveTheorem1:
    def test_worked_example(self):
        got = derive_theorem1(4, 5, 2, 5)
        want = (TautElement.generator(4, 0) * TautElement.generator(4, 2) * 12
                + TautElement.generator(4, 1) * TautElement.generator(4, 1) * 4)
        assert got == want

    def test_r1_reproduces_single_generator_vanishing(self):
        g, d = 3, 2
        for M in range(d, g + 1):
            got = derive_theorem1(g, d, 1, M)
            assert got == TautElement.generator(g, M - 1) * factorial(M)

    def test_matches_relations_module_on_grid(self):
        for (g, d, r) in ((2, 3, 1), (3, 4, 2), (4, 6, 3), (5, 7, 2)):
            for M in (d, d + 1):
                element = derive_theorem1(g, d, r, M)
                N = M - 2 * r + 1
                if N >= 0:
                    assert element == gen_theorem1(g, d, r, N)
                else:
                    assert element.is_zero

    def test_nonzero_when_weight_reachable(self):
        element = derive_theorem1(4, 5, 2, 5)  # N=2 <= r(g-1)=6
        assert not element.is_zero

    def test_m_below_d_rejected(self):
        with pytest.raises(ValueError):
            derive_theorem1(3, 4, 1, 3)
