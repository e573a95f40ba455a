import json
import random
from fractions import Fraction as F
from math import factorial

import pytest

from jacrel.combinat import stirling2
from jacrel.relations import (RelationFamily, RelationItem, compare_ideals, epsilon_series,
                              family_from_json, family_to_json, gen_family, gen_theorem1,
                              monomials_of_bidegree, span_contains,
                              theorem1_family, verify_implication_chain)
from jacrel.rings import TruncationError
from jacrel.tautalg import TautElement, build_g_poly, poly_power
from oracles import (chain_by_xt_series, compare_ideals_by_products, family_by_powers,
                     rand_homogeneous_taut, span_contains_by_ranks, stirling_by_enumeration)


def C(g, j):
    return TautElement.generator(g, j)


class TestGenTheorem1:
    def test_single_generator(self):
        assert gen_theorem1(3, 3, 1, 2) == C(3, 2) * 6

    def test_two_part_compositions(self):
        expected = C(4, 0) * C(4, 2) * 12 + C(4, 1) * C(4, 1) * 4
        assert gen_theorem1(4, 5, 2, 2) == expected

    def test_top_single_composition(self):
        for d in (3, 4, 5):
            g = d
            elt = gen_theorem1(g, d, 1, d - 1)
            assert elt == C(g, d - 1) * factorial(d)

    def test_threshold_enforced(self):
        with pytest.raises(ValueError):
            gen_theorem1(4, 5, 2, 1)  # threshold is d-2r+1 = 2
        with pytest.raises(ValueError):
            gen_theorem1(4, 5, 2, -1)

    def test_high_weight_compositions_drop_out(self):
        # all parts would need to exceed g-1
        elt = gen_theorem1(2, 4, 1, 3)
        assert elt.is_zero


class TestGenFamily:
    def test_vdgk6_small_case(self):
        fam = gen_family("vdgk6", 3, 3, 1)
        assert len(fam.items) == 1
        item = fam.items[0]
        assert (item.s, item.t_exp) == (1, 4)
        assert item.element == C(3, 2) * 6

    def test_vdgk6_at_top_degree_matches_theorem1(self):
        g, d, r = 4, 5, 2
        power = poly_power(build_g_poly(g), r)
        for N in range(d - 2 * r + 1, r * (g - 1) + 1):
            assert power.coeff(0, N + 2 * r) == gen_theorem1(g, d, r, N), N

    def test_herbaut7_r1_closed_form(self):
        # the u^d coefficient of P_{a+2}/(1+u) is d! S(a+1, d)
        g, d = 5, 3
        fam = gen_family("herbaut7", g, d, 1)
        by_t = {item.t_exp: item.element for item in fam.items}
        for a in range(g):
            scalar = factorial(d) * stirling2(a + 1, d)
            expected = C(g, a) * scalar
            got = by_t.get(a + 2, TautElement.zero(g))
            assert got == expected, a

    def test_strong8_empty_when_bound_exceeds_degree(self):
        fam = gen_family("strong8", 1, 5, 1)  # u-degree of H is 2 < d-r+s = 5
        assert fam.items == ()

    def test_herbaut7_coefficients_equal_alternating_sums(self):
        # fully independent route: the u^(d-r+s) coefficient of
        # prod P_{a_i+2}(u)/(1+u) is the alternating sum B_{d-r+s}(a_1+1,...)
        from jacrel.combinat import b_sum
        from jacrel.relations import _compositions, _orderings
        for (g, d, r) in ((3, 4, 2), (4, 5, 2), (3, 6, 3)):
            fam = gen_family("herbaut7", g, d, r)
            by_key = {(it.s, it.t_exp): it.element for it in fam.items}
            for s in range(1, r + 1):
                m = d - r + s
                for n in range(2 * s, s * (g + 1) + 1):
                    element = by_key.get((s, n), TautElement.zero(g))
                    for mono in _compositions(n - 2 * s, s, g - 1):
                        expected = _orderings(mono) * b_sum(
                            m, tuple(a + 1 for a in mono))
                        assert element.coefficient(mono) == expected, \
                            (g, d, r, s, n, mono)

    def test_homogeneity_invariant(self):
        for fid in ("vdgk6", "herbaut7", "strong8"):
            fam = gen_family(fid, 4, 5, 2)
            for item in fam.items:
                assert item.element.bidegree() == (item.s, item.t_exp - 2 * item.s)

    def test_items_sorted_deterministically(self):
        fam = gen_family("strong8", 4, 4, 2)
        keys = [(i.s, i.t_exp, i.u_exp) for i in fam.items]
        assert keys == sorted(keys)

    def test_closed_forms_match_expanded_powers(self):
        # every item, coefficient and label equals the one read off the
        # multiplied-out powers of G(t) and H(u,t)
        for g in range(1, 7):
            for r in range(1, 4):
                for d in range(r - 1, 9):
                    for fid in ("vdgk6", "herbaut7", "strong8"):
                        got = [(it.s, it.t_exp, it.u_exp, it.element)
                               for it in gen_family(fid, g, d, r).items]
                        assert got == family_by_powers(fid, g, d, r), (fid, g, d, r)

    def test_families_need_no_algebra_products(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("gen_family multiplied in the algebra")
        monkeypatch.setattr(TautElement, "__mul__", refuse)
        for fid in ("vdgk6", "herbaut7", "strong8"):
            assert gen_family(fid, 5, 7, 3).items

    def test_divisibility_by_one_plus_u_is_certified(self, monkeypatch):
        from jacrel import relations
        from jacrel.rings import InvariantViolation
        real = relations.p_poly
        monkeypatch.setattr(relations, "p_poly",
                            lambda n: real(n) + real(1) if n == 3 else real(n))
        with pytest.raises(InvariantViolation):
            gen_family("herbaut7", 3, 4, 2)

    def test_bad_family_id(self):
        with pytest.raises(ValueError):
            gen_family("theorem1", 3, 3, 1)  # use theorem1_family for this one
        with pytest.raises(ValueError):
            gen_family("unknown", 3, 3, 1)


class TestCompareIdeals:
    def test_equivalence_at_4_5_2(self):
        f6 = gen_family("vdgk6", 4, 5, 2)
        f7 = gen_family("herbaut7", 4, 5, 2)
        report = compare_ideals(f6, f7, (2, 6))
        assert report.ideal_equal

    def test_self_comparison_trivial(self):
        fam = gen_family("strong8", 3, 4, 2)
        report = compare_ideals(fam, fam)
        assert report.ideal_equal and report.span_equal

    def test_symmetry(self):
        f6 = gen_family("vdgk6", 3, 4, 2)
        f8 = gen_family("strong8", 3, 4, 2)
        assert compare_ideals(f6, f8).ideal_equal == compare_ideals(f8, f6).ideal_equal

    def test_strong_family_contains_divided_family(self):
        for (g, d, r) in ((3, 4, 2), (4, 5, 2), (4, 6, 3)):
            f7 = gen_family("herbaut7", g, d, r)
            f8 = gen_family("strong8", g, d, r)
            assert span_contains(f7, f8), (g, d, r)

    def test_spans_can_differ_while_ideals_agree(self):
        # the recorded open point: bare generator spans are finer than ideals
        f6 = gen_family("vdgk6", 4, 4, 2)
        f8 = gen_family("strong8", 4, 4, 2)
        report = compare_ideals(f6, f8)
        assert report.ideal_equal
        assert not report.span_equal
        assert report.notions_differ

    def test_window_missing_a_generator_is_inconclusive(self):
        f6 = gen_family("vdgk6", 4, 5, 2)
        f7 = gen_family("herbaut7", 4, 5, 2)
        with pytest.raises(TruncationError):
            compare_ideals(f6, f7, bidegree_bound=(1, 0))

    def test_mismatched_parameters_rejected(self):
        with pytest.raises(ValueError):
            compare_ideals(gen_family("vdgk6", 3, 4, 2),
                           gen_family("vdgk6", 3, 5, 2))

    def test_matches_product_route_reference(self):
        # integer index-shift rows and the cell recursion give the same
        # ranks, cell for cell, as all generator-times-monomial products
        for g in range(1, 6):
            for r in range(1, 4):
                for d in range(2 * r, 9):
                    fams = [gen_family(f, g, d, r) for f in ("vdgk6", "herbaut7", "strong8")]
                    for a, b in ((0, 1), (1, 2), (0, 2)):
                        assert compare_ideals(fams[a], fams[b]) == \
                            compare_ideals_by_products(fams[a], fams[b]), (g, d, r, a, b)

    def test_random_families_match_product_route_reference(self):
        # random generators with rational coefficients: a wrong shift or
        # scaling that the three families' ideals happen to hide shows here
        rng = random.Random(6)
        for g in (2, 3, 4):
            for r in (2, 3):
                fams = []
                for name in ("a", "b"):
                    items = []
                    for _ in range(rng.randint(1, 4)):
                        s = rng.randint(1, r)
                        w = rng.randint(0, s * (g - 1))
                        items.append(RelationItem(s=s, t_exp=2 * s + w,
                                                  element=rand_homogeneous_taut(rng, g, s, w)))
                    fams.append(RelationFamily(name, g, 2 * r, r, tuple(items)))
                assert compare_ideals(*fams) == compare_ideals_by_products(*fams), (g, r)

    def test_unit_generator_fills_every_cell(self):
        # a degree-0 item generates the whole algebra, and the recursion has
        # to carry it up from cell (0, 0)
        unit = RelationFamily("unit", 3, 4, 2, (RelationItem(s=0, t_exp=0,
                                                             element=TautElement.one(3)),))
        f6 = gen_family("vdgk6", 3, 4, 2)
        report = compare_ideals(unit, f6)
        assert report == compare_ideals_by_products(unit, f6)
        assert all(c.ideal_ranks[0] == c.dim for c in report.cells)

    def test_rational_coefficients_compare_like_their_integer_multiples(self):
        # a JSON family whose items are rescaled over Q has the same ideal;
        # its rows are scaled to integers once per generator
        payload = json.loads(family_to_json(gen_family("strong8", 4, 6, 3)))
        for k, entry in enumerate(payload["items"]):
            for term in entry["element"]:
                term["coeff"] = str(F(term["coeff"]) * F(k + 2, 2 * k + 3))
        rational = family_from_json(json.dumps(payload))
        assert any(c.denominator != 1 for it in rational.items
                   for c in it.element.terms.values())
        f7 = gen_family("herbaut7", 4, 6, 3)
        for pair in ((rational, f7), (f7, rational), (rational, rational)):
            report = compare_ideals(*pair)
            assert report == compare_ideals_by_products(*pair)
            assert report.ideal_equal

    def test_span_contains_matches_reference(self):
        f6, f7, f8 = (gen_family(f, 4, 4, 2) for f in ("vdgk6", "herbaut7", "strong8"))
        verdicts = {}
        for sub, sup in ((f7, f8), (f6, f8), (f8, f6), (f8, f7)):
            verdicts[(sub.family_id, sup.family_id)] = span_contains(sub, sup)
            assert verdicts[(sub.family_id, sup.family_id)] == span_contains_by_ranks(sub, sup)
        assert verdicts[("herbaut7", "strong8")]
        assert not all(verdicts.values())


class TestMonomialBasis:
    def test_small_counts(self):
        assert monomials_of_bidegree(3, 1, 2) == ((2,),)
        assert set(monomials_of_bidegree(3, 2, 2)) == {(2, 0), (1, 1)}
        assert monomials_of_bidegree(3, 2, 5) == ()

    def test_sorted_canonically(self):
        basis = monomials_of_bidegree(4, 3, 4)
        assert list(basis) == sorted(basis, key=lambda m: (len(m), tuple(-w for w in m)))


class TestEpsilonSeries:
    def test_no_negative_x_exponents(self):
        for g in (1, 2, 3):
            report = epsilon_series(g, 8)
            assert report.no_negative_x, g

    def test_t_exponents_start_at_two(self):
        report = epsilon_series(3, 6)
        assert report.t_floor == 2
        assert all(te >= 2 for te in report.parts)

    def test_g1_part_matches_direct_expansion(self):
        # the t^2 part is the scalar series P_2(1/x) - 1/log(1+x)^2; at
        # exponents >= 0 the polynomial part is absent, so only the expansion
        # remains, known below the same order
        from jacrel.combinat import inv_log1p_pow
        part = epsilon_series(1, 8).parts[2]
        direct = inv_log1p_pow(2, 8)
        assert part.trunc == direct.trunc == 8
        for e in range(0, 8):
            assert part.coeff(e) == -direct.coeff(e), e

    def test_x0_terms_are_the_even_bernoulli_values(self):
        report = epsilon_series(4, 8)
        assert set(report.x0_coefficients) == {2, 4}
        assert report.x0_coefficients[2] == C(4, 0) * F(-1, 12)
        assert report.x0_coefficients[4] == C(4, 2) * F(1, 120)

    def test_strict_xt2_claim_fails_by_bernoulli_obstruction(self):
        # the x^0 terms above make the stronger O(x t^2) bound unattainable
        for g in (1, 2, 5):
            assert not epsilon_series(g, 8).strict_xt2

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            epsilon_series(2, 0)


class TestImplicationChain:
    def test_scalar_example(self):
        # n=6, m=4 arises at (g,d,r,s) = (5,5,2,1); the value is
        # 4!/5! * S(5,4) = 2, with S(5,4) = 10 re-counted by enumeration
        report = verify_implication_chain(5, 5, 2)
        wanted = [c for c in report.scalar_checks if c.n == 6 and c.m == 4]
        assert wanted and all(c.value == 2 for c in wanted)
        assert stirling_by_enumeration(5, 4) == 10

    def test_identity9_binomial_consistency(self):
        for (g, d, r) in ((2, 3, 1), (3, 4, 2), (4, 5, 2)):
            report = verify_implication_chain(g, d, r)
            assert report.identity9_ok, (g, d, r)

    def test_degree_bookkeeping(self):
        for (g, d, r) in ((3, 4, 2), (4, 6, 3)):
            report = verify_implication_chain(g, d, r)
            assert report.degree_bound_ok, (g, d, r)

    def test_scalars_nonzero_above_threshold(self):
        report = verify_implication_chain(5, 6, 2)
        assert report.scalar_ok
        for check in report.scalar_checks:
            assert check.n > check.m
            assert check.expected == F(factorial(check.m), factorial(check.n - 1)) \
                * stirling2(check.n - 1, check.m)

    def test_x_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            verify_implication_chain(3, 5, 2, x_order=0)

    def test_t_order_below_top_degree_is_inconclusive(self):
        with pytest.raises(TruncationError):
            verify_implication_chain(3, 5, 2, t_order=1)
        with pytest.raises(TruncationError):
            verify_implication_chain(3, 5, 2, t_order=8)
        assert verify_implication_chain(3, 5, 2, t_order=9).ok

    def test_identity9_comparison_is_not_vacuous(self):
        # a perturbed e_a must be detected: the window each monomial's two
        # sides are compared on is nonempty, so the certification has teeth
        from jacrel.combinat import principal_part
        from jacrel.relations import _split_sums
        from jacrel.rings import QQ, LaurentSeries
        g, x_order = 3, 8
        h = [principal_part(a + 2) for a in range(g)]
        e = [epsilon_series(g, x_order).parts[a + 2] for a in range(g)]
        perturbed = list(e)
        perturbed[0] = e[0] + LaurentSeries(QQ, 0, (F(1),), x_order)
        for mono in ((0,), (2, 0), (1, 0, 0)):
            assert _split_sums(mono, h, e, x_order, 1)[0], mono
            assert not _split_sums(mono, h, perturbed, x_order, 1)[0], mono
        # a monomial without C(0) never sees the perturbed series
        assert _split_sums((2, 1), h, perturbed, x_order, 1)[0]

    def test_matches_algebra_valued_reference_at_low_orders(self):
        # field for field, including the truncation-driven min_x_exponent and
        # certified flags at x-orders too small to certify every bound
        for g in range(1, 5):
            for r in range(1, 4):
                for d in range(r - 1, 8):
                    for x_order in (1, 3):
                        assert verify_implication_chain(g, d, r, x_order) == \
                            chain_by_xt_series(g, d, r, x_order), (g, d, r, x_order)

    def test_matches_algebra_valued_reference_at_default_orders(self):
        for g in range(1, 4):
            for r in range(1, 4):
                for d in range(r - 1, 8):
                    assert verify_implication_chain(g, d, r) == \
                        chain_by_xt_series(g, d, r), (g, d, r)

    def test_degree_bound_checks_are_not_vacuous(self):
        # every certified cell actually inspected a nonempty series
        for (g, d, r) in ((3, 4, 2), (4, 6, 3)):
            report = verify_implication_chain(g, d, r)
            for check in report.degree_bounds:
                assert check.certified
                assert check.min_x_exponent is not None, (g, d, r, check.s)
                assert check.min_x_exponent >= check.bound


class TestFamilyJson:
    def test_schema_golden(self):
        fam = theorem1_family(4, 5, 2, 2)
        text = family_to_json(fam)
        assert text == ('{"family":"theorem1","g":4,"d":5,"r":2,"items":'
                        '[{"s":2,"t_exp":6,"element":[{"monomial":[2,0],"coeff":"12"},'
                        '{"monomial":[1,1],"coeff":"4"}]}]}')

    def test_round_trip_byte_identical(self):
        for fid in ("vdgk6", "herbaut7", "strong8"):
            fam = gen_family(fid, 4, 5, 2)
            text = family_to_json(fam)
            assert family_to_json(family_from_json(text)) == text

    def test_round_trip_preserves_elements(self):
        fam = gen_family("strong8", 3, 4, 2)
        back = family_from_json(family_to_json(fam))
        assert back.family_id == fam.family_id
        assert len(back.items) == len(fam.items)
        for a, b in zip(back.sorted_items(), fam.sorted_items()):
            assert (a.s, a.t_exp, a.u_exp) == (b.s, b.t_exp, b.u_exp)
            assert a.element == b.element

    def test_fraction_coefficients_serialize(self):
        fam = theorem1_family(4, 5, 2, 2)
        scaled_items = tuple(
            type(it)(s=it.s, t_exp=it.t_exp, element=it.element * F(1, 3),
                     u_exp=it.u_exp)
            for it in fam.items)
        scaled = type(fam)("theorem1", 4, 5, 2, scaled_items)
        text = family_to_json(scaled)
        assert '"coeff":"4"' in text and '"coeff":"4/3"' in text
        assert family_to_json(family_from_json(text)) == text
