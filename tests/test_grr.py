import random
import sys
from fractions import Fraction as F
from math import factorial

import pytest

from jacrel import cli, grr, tautalg
from jacrel.grr import (ChernData, GrrContext, GrrElement, UpstairsTerm, ch_vk,
                        chern_classes, derive_theorem1, extract_amj,
                        gamma_extract, gamma_top_reference, pushforward)
from jacrel.relations import gen_theorem1
from jacrel.rings import InvariantViolation, SparseElement
from jacrel.tautalg import TautElement, build_h_poly
from oracles import (GenericSeries, Ring, ch_closed_form_by_elements, ch_route_by_elements,
                     chern_classes_by_fractions, cold_grr, gamma_extract_by_elements,
                     generic_series_exp, grr_monomial, pushforward_by_products,
                     rand_fraction, uses_todd_unknowns)

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
        expected = grr_monomial(ctx, 2, fc=0, xi=1)
        assert pushforward(term) == expected

    def test_single_ell_power_dies(self, ctx):
        for nu in range(ctx.r + 1):
            assert pushforward(UpstairsTerm(ctx, 1, nu, 0, one(ctx))).is_zero

    def test_rho_without_ell(self, ctx):
        for nu in range(ctx.r):
            got = pushforward(UpstairsTerm(ctx, 0, nu, 1, one(ctx)))
            assert got == grr_monomial(ctx, xi=nu + 1)

    def test_rho_with_ell_dies(self, ctx):
        assert pushforward(UpstairsTerm(ctx, 3, 1, 1, one(ctx))).is_zero

    def test_degree_term(self, ctx):
        got = pushforward(UpstairsTerm(ctx, 0, 1, 0, one(ctx)))
        assert got == grr_monomial(ctx, ctx.d, xi=1)

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
            UpstairsTerm(ctx, 0, 0, 0, grr_monomial(ctx, xi=1))
        with pytest.raises(ValueError, match="mu must be >= 0"):
            UpstairsTerm(ctx, -1, 0, 0, one(ctx))
        # and the element and index checks under them
        with pytest.raises(ValueError, match="exponent tuple has the wrong arity"):
            GrrElement(ctx, {(0,) * (ctx.nvars - 1): 1})
        with pytest.raises(ValueError, match="mismatched symbolic contexts"):
            one(ctx) * one(GrrContext(ctx.g, ctx.d, ctx.r + 1))
        for index, j, name in ((ctx.a_index, ctx.r, "a"), (ctx.b_index, -1, "b"),
                               (ctx.fc_index, ctx.g, "FC")):
            with pytest.raises(ValueError, match=f"{name}_{j} out of range"):
                index(j)


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
                expected = expected + grr_monomial(ctx, b=j - 1, xi=j)
                if j <= r - 1:
                    expected = expected + grr_monomial(ctx, d, a=j, xi=j)
            for m in range(1, min(j - 1, r) + 1):
                fc_index = j - m - 1
                if fc_index > g - 1:
                    continue
                expected = expected + grr_monomial(ctx, a=m - 1, k=j - m + 1,
                                                   fc=fc_index, xi=m)
            assert data.ch_j(j) == expected, j

    def test_r1_shape(self):
        # rank + scalar*xi + FC-part*xi, nothing else
        data = ch_vk(3, 4, 1)
        ctx = data.ctx
        assert data.ch_j(1) == grr_monomial(ctx, b=0, xi=1)
        for j in range(2, len(data.ch)):
            expected = grr_monomial(ctx, k=j, fc=j - 2, xi=1) if j - 2 <= ctx.g - 1 \
                else GrrElement.zero(ctx)
            assert data.ch_j(j) == expected


    def test_cross_check_failure_raises_and_fails_the_cli(self, monkeypatch, capsys):
        closed_form = grr._ch_closed_form

        def one_term_off(ctx):
            return closed_form(ctx) + grr_monomial(ctx, k=1)

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
            assert chern_classes(tower, order) == expected[:order], (g, d, r)
            assert chern_classes(tower, order + 3) == expected, (g, d, r)
            assert chern_classes(tower, 2) == expected[:2], (g, d, r)
            assert all(type(c) is int for element in tower._tower.scaled
                       for c in element.terms.values())

    def test_gamma_extract_matches_the_element_route(self):
        for g, d, r in WIDE_GRID:
            for M in (d, d + 1, d + 2, d + 4):
                data = gamma_extract(g, d, r, M)
                _, gammas = gamma_extract_by_elements(g, d, r, M)
                assert data.gammas == gammas, (g, d, r, M)
                assert list(data.gammas) == list(gammas), (g, d, r, M)

    def test_only_newton_factors_multiply(self, monkeypatch):
        # the route and the tower build no product element: the one product
        # kernel sums straight into their maps, and the route reads the
        # pushforward table without calling ``pushforward``
        callers = []
        real = GrrElement.__mul__

        def counted(self, other):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(self, other)

        def refuse(term):
            raise AssertionError("the route built a pushforward element")

        monkeypatch.setattr(GrrElement, "__mul__", counted)
        monkeypatch.setattr(grr, "pushforward", refuse)
        for g, d, r in ((1, 1, 1), (3, 4, 2), (5, 8, 3), (6, 8, 4)):
            callers.clear()
            data = ch_vk.__wrapped__(g, d, r)  # uncached, so the tower starts cold
            assert callers == [], (g, d, r)
            chern_classes(data, d + 4)
            assert callers == ["_newton_factors"] * (len(data.ch) - 1), (g, d, r)


class TestExtractAmj:
    def test_diagonal_case(self):
        data = ch_vk(4, 5, 3)
        ctx = data.ctx
        expected = grr_monomial(ctx, 5, a=2) + grr_monomial(ctx, b=1)
        assert extract_amj(data, 2, 2) == expected

    def test_below_diagonal(self):
        data = ch_vk(4, 5, 3)
        ctx = data.ctx
        assert extract_amj(data, 1, 3) == grr_monomial(ctx, k=3, fc=1)

    def test_above_diagonal_zero(self):
        data = ch_vk(4, 5, 3)
        assert extract_amj(data, 3, 2).is_zero

    def test_range_validation(self):
        data = ch_vk(3, 4, 2)
        with pytest.raises(ValueError):
            extract_amj(data, 0, 1)
        with pytest.raises(ValueError):
            extract_amj(data, 3, 1)
        with pytest.raises(ValueError, match="j must be >= 1"):
            extract_amj(data, 1, 0)


class TestChernClasses:
    def test_constant_term_one(self):
        data = ch_vk(3, 4, 2)
        assert chern_classes(data, 6)[0] == GrrElement.one(data.ctx)

    def test_r1_signs(self):
        # with xi^2 = 0 the exponential collapses: c_j = (-1)^(j-1) (j-1)! ch_j
        data = ch_vk(4, 5, 1)
        classes = chern_classes(data, 7)
        for j in range(1, 7):
            sign = F((-1) ** (j - 1) * factorial(j - 1))
            assert classes[j] == data.ch_j(j) * sign, j

    def test_divisibility_checked(self):
        ctx = GrrContext(2, 3, 2)
        bad = ChernData(ctx=ctx, ch=(GrrElement.scalar(ctx, 3),
                                     GrrElement.one(ctx)))
        with pytest.raises(InvariantViolation):
            chern_classes(bad, 4)

    def test_classes_beyond_cutoff_unavailable(self):
        # a class past the requested order is absent, not a zero
        classes = chern_classes(ch_vk(2, 3, 1), 4)
        assert len(classes) == 4
        with pytest.raises(IndexError):
            classes[4]

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
                    assert chern_classes(data, order) == expected, (g, d, r)

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
            assert chern_classes(cold, order) == expected[:order], (g, d, r)
            after = fresh()
            assert chern_classes(after, order + 3) == expected
            assert chern_classes(after, order) == expected[:order]
            before = fresh()
            assert chern_classes(before, order - 2) == expected[:order - 2]
            assert chern_classes(before, order) == expected[:order]
            classes = chern_classes(shared, order)
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
                                         grr_monomial(ctx, F(1, 2), xi=1)))
        with pytest.raises(InvariantViolation):
            chern_classes(half_xi, 3)

    def test_memo_is_not_part_of_the_value(self):
        data = ch_vk(3, 4, 2)
        bare = ChernData(ctx=data.ctx, ch=data.ch)
        chern_classes(data, 9)
        assert data._tower is not None and bare._tower is None
        assert data == bare and hash(data) == hash(bare)
        assert repr(data) == repr(bare) and "_tower" not in repr(data)
        assert chern_classes(bare, 5) == chern_classes(data, 5)


class TestExactCoefficients:
    def test_float_coefficients_rejected(self, ctx):
        exp = (0,) * ctx.nvars
        with pytest.raises(TypeError):
            GrrElement(ctx, {exp: 0.5})
        with pytest.raises(TypeError):
            grr_monomial(ctx, 1.0, k=2)
        with pytest.raises(TypeError):
            one(ctx) * 0.5

    def test_integral_coefficients_are_ints(self, ctx):
        half = grr_monomial(ctx, xi=1) * F(1, 2)
        assert (half + half).terms == grr_monomial(ctx, xi=1).terms
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

    def test_top_free_of_todd_unknowns(self):
        data = gamma_extract(4, 5, 2, 5)
        assert not uses_todd_unknowns(data.gamma(6))
        # the power below the top does involve them here: gamma_5 = 24 b0 FC3
        ctx = data.ctx
        assert data.gamma(5) == grr_monomial(ctx, 24, b=0, fc=3)
        assert uses_todd_unknowns(data.gamma(5))

    def test_requires_m_at_least_d(self):
        with pytest.raises(ValueError):
            gamma_extract(3, 4, 1, 3)

    def test_a_lookup_that_hits_builds_no_zero(self, monkeypatch):
        # a zero is built only for an absent key
        data = gamma_extract(4, 5, 2, 5)
        h = build_h_poly(2)

        def refuse(cls, ambient):
            raise AssertionError("a lookup built a zero element")

        monkeypatch.setattr(SparseElement, "zero", classmethod(refuse))
        assert data.gamma(6) is data.gammas[6]
        assert h.coeff(1, 3) is h.terms[(1, 3)]

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


class TestCompositionSumCache:
    """``tautalg._g_power_coefficient`` keeps one composition sum per
    (g, r, N), shared by ``gamma_top_reference`` and ``GammaData.theorem1``
    across every d and M."""

    @staticmethod
    def criterion_7_pass():
        for (g, d, r) in GRID:
            for M in (d, d + 1, d + 2):
                data = gamma_extract(g, d, r, M)
                assert data.gamma(M + 1) == gamma_top_reference(g, d, r, M)
                data.theorem1()

    def test_one_sum_per_key_on_the_criterion_7_grid(self):
        cold_grr()
        self.criterion_7_pass()
        # 360 cases ask twice each; N = M-2r+1 takes 10 values per (g, r)
        info = tautalg._g_power_coefficient.cache_info()
        assert (info.misses, info.hits) == (150, 570)
        assert info.maxsize is not None and info.currsize == 150
        self.criterion_7_pass()
        assert tautalg._g_power_coefficient.cache_info().misses == 150


class TestTheorem1Guards:
    """``GammaData.theorem1`` is what ``jacrel grr`` prints "free of Todd
    unknowns: pass" and "matches composition formula: pass" on: each of its
    refusals is reached, and fails the command."""

    ARGV = ["grr", "--g", "4", "--d", "5", "--r", "2", "--M", "5"]

    @staticmethod
    def with_b0(data):
        top = data.M + 1
        return data._replace(gammas={**data.gammas,
                                     top: data.gamma(top) + grr_monomial(data.ctx, b=0)})

    @staticmethod
    def failure(capsys):
        return [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("verification failure:")]

    def test_todd_unknown_in_the_top_gamma_is_refused(self, monkeypatch, capsys):
        with pytest.raises(InvariantViolation, match="still involves k, xi or Todd unknowns"):
            self.with_b0(gamma_extract(4, 5, 2, 5)).theorem1()
        real = grr.gamma_extract
        monkeypatch.setattr(grr, "gamma_extract", lambda *args: self.with_b0(real(*args)))
        assert cli.main(self.ARGV) == 1
        assert ["Todd unknowns" in line for line in self.failure(capsys)] == [True]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_every_slot_outside_fc_is_refused(self, r, monkeypatch):
        # k, each a_j (j >= 1), each b_j and xi, each on a term of its own
        data = gamma_extract(4, 5, r, 5)
        extras = ([{"k": 1}, {"xi": 1}] + [{"a": j} for j in range(1, r)]
                  + [{"b": j} for j in range(r)])
        assert len(extras) == 2 * r + 1

        def refuse(*args):
            raise AssertionError("the composition sum was read before the refusal")

        monkeypatch.setattr(grr, "_g_power_coefficient", refuse)
        top = data.M + 1
        for extra in extras:
            bad = data.gamma(top) + grr_monomial(data.ctx, fc=0, **extra)
            with pytest.raises(InvariantViolation,
                               match="still involves k, xi or Todd unknowns"):
                data._replace(gammas={**data.gammas, top: bad}).theorem1()

    def test_composition_sum_mismatch_is_refused(self, monkeypatch, capsys):
        real = grr._g_power_coefficient
        monkeypatch.setattr(grr, "_g_power_coefficient",
                            lambda g, s, w: real(g, s, w) + TautElement.generator(g, 0))
        with pytest.raises(InvariantViolation, match="disagrees with the composition sum"):
            gamma_extract(4, 5, 2, 5).theorem1()
        assert cli.main(self.ARGV) == 1
        assert ["composition sum" in line for line in self.failure(capsys)] == [True]
