import hashlib
import json
import random
from fractions import Fraction as F
from math import comb, factorial

import pytest

from jacrel.combinat import stirling2
from jacrel.linalg import RowSpace
from jacrel.relations import (GradedSpan, RelationFamily, RelationItem, _top_echelon,
                              compare_ideals, epsilon_series, family_from_json,
                              family_from_jsonable, family_to_json, gen_family, gen_theorem1,
                              monomials_of_bidegree, span_contains, theorem1_family,
                              verify_implication_chain)
from jacrel.rings import InvariantViolation, TruncationError
from jacrel.tautalg import TautElement, build_g_poly, poly_power
from oracles import (cells_by_shifted_rows, chain_by_xt_series, compare_ideals_by_products,
                     e_product, family_by_powers, head_table, rand_homogeneous_taut,
                     span_contains_by_ranks, split_sums_by_position_sets,
                     stirling_by_enumeration, top_ranks_by_full_reduction)


def C(g, j):
    return TautElement.generator(g, j)


def oversize_family(g, d, r):
    """vdgk6 plus one generator of size r+1, outside the comparison window."""
    extra = RelationItem(s=r + 1, t_exp=2 * (r + 1),
                         element=TautElement.monomial(g, (0,) * (r + 1)))
    return RelationFamily("oversize", g, d, r, gen_family("vdgk6", g, d, r).items + (extra,))


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

    def test_d_below_r_minus_one_bounds_only_the_families(self):
        # the composition sum needs d >= 0; d - r + s >= 0 is the families'
        assert gen_theorem1(3, 1, 3, 0) == C(3, 0) * C(3, 0) * C(3, 0)
        assert theorem1_family(2, 0, 2, 1).items
        for bad in ((3, -1, 3, 0), (0, 1, 1, 0), (3, 1, 0, 0)):
            with pytest.raises(ValueError):
                gen_theorem1(*bad)
        for family_id in ("vdgk6", "herbaut7", "strong8"):
            with pytest.raises(ValueError, match="d - r \\+ s"):
                gen_family(family_id, 3, 1, 3)

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

    def test_closed_form_witnesses(self):
        # vdgk6's item at (s, t) is strong8's at u^t; since Q_m(-1) = 0,
        # herbaut7's is sum_{j>k} (-1)^(j-k-1) strong8's at u^j, k = d-r+s
        items = 0
        for g in range(2, 7):
            zero = TautElement.zero(g)
            for r in range(1, 4):
                for d in range(2 * r, 10):
                    strong8 = {(it.s, it.t_exp, it.u_exp): it.element
                               for it in gen_family("strong8", g, d, r).items}
                    vdgk6, herbaut7 = ({(it.s, it.t_exp): it.element
                                        for it in gen_family(fid, g, d, r).items}
                                       for fid in ("vdgk6", "herbaut7"))
                    items += len(vdgk6) + len(herbaut7)
                    for s in range(1, r + 1):
                        k = d - r + s
                        for t in range(2 * s, s * (g + 1) + 1):
                            assert vdgk6.get((s, t), zero) == strong8.get((s, t, t), zero)
                            witness = sum(((-1) ** (j - k - 1) * strong8.get((s, t, j), zero)
                                           for j in range(k + 1, t + 1)), zero)
                            assert herbaut7.get((s, t), zero) == witness, (g, d, r, s, t)
        assert items == 800

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
        # the certified coefficients are cached: start from empty caches, and
        # leave nothing built from the perturbed P_3 to later tests
        caches = (relations._p_coefficients, relations._h_product)
        for cache in caches:
            cache.cache_clear()
        try:
            with pytest.raises(InvariantViolation):
                gen_family("herbaut7", 3, 4, 2).items  # formed on first read
        finally:
            for cache in caches:
                cache.cache_clear()

    def test_integrality_of_p_is_certified(self, monkeypatch):
        # P_4/2 has coefficients 0, 1/2, 7/2, 6, 3: truncated to integers
        # they are 3u^2(1+u)^2, which passes every other check, so the
        # fraction itself must be refused
        from jacrel import relations
        from jacrel.rings import InvariantViolation
        real = relations.p_poly
        monkeypatch.setattr(relations, "p_poly",
                            lambda n: real(n) * F(1, 2) if n == 4 else real(n))
        caches = (relations._p_coefficients, relations._h_product)
        for cache in caches:
            cache.cache_clear()
        try:
            with pytest.raises(InvariantViolation, match="P_4 has a non-integral coefficient"):
                gen_family("strong8", 3, 4, 2).items
        finally:
            for cache in caches:
                cache.cache_clear()

    def test_symmetry_of_p_is_certified(self, monkeypatch):
        # P_4 + u^2 (1+u) still vanishes at u = 0 and u = -1, but is no
        # longer symmetric under u -> -1-u: the bound that stops the strong8
        # echelon tables would not hold, so the coefficients are refused
        from jacrel import relations
        from jacrel.rings import DensePoly, InvariantViolation
        real = relations.p_poly
        monkeypatch.setattr(relations, "p_poly",
                            lambda n: real(n) + DensePoly([0, 0, 1, 1]) if n == 4 else real(n))
        caches = (relations._p_coefficients, relations._h_product, relations._top_echelon)
        for cache in caches:
            cache.cache_clear()
        try:
            with pytest.raises(InvariantViolation, match=r"P_4\(-1-u\)"):
                gen_family("strong8", 3, 4, 2).items
        finally:
            for cache in caches:
                cache.cache_clear()

    def test_families_share_one_product_per_monomial(self):
        # the three families at two values of d read one table: each
        # monomial of size <= r, and (), is built once
        from jacrel.relations import _h_product
        g, d, r = 4, 5, 3
        _h_product.cache_clear()
        for dd in (d, d + 1):
            for fid in ("vdgk6", "herbaut7", "strong8"):
                gen_family(fid, g, dd, r).items
        expected = 1 + sum(comb(g + s - 1, s) for s in range(1, r + 1))
        assert _h_product.cache_info().misses == expected

    def test_vdgk6_builds_no_product(self):
        # vdgk6 reads G(t)^s's coefficient, the composition sum
        from jacrel.relations import _h_product
        _h_product.cache_clear()
        assert gen_family("vdgk6", 5, 7, 3).items
        assert _h_product.cache_info().misses == 0

    def test_bad_family_id(self):
        with pytest.raises(ValueError):
            gen_family("theorem1", 3, 3, 1)  # use theorem1_family for this one
        with pytest.raises(ValueError):
            gen_family("unknown", 3, 3, 1)


class TestCompareIdeals:
    def test_equivalence_at_4_5_2(self):
        f6 = gen_family("vdgk6", 4, 5, 2)
        f7 = gen_family("herbaut7", 4, 5, 2)
        report = compare_ideals(f6, f7)
        assert (report.i_max, report.j_max) == (2, 6)
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
        big, f7 = oversize_family(4, 5, 2), gen_family("herbaut7", 4, 5, 2)
        for pair in ((big, f7), (f7, big)):
            with pytest.raises(TruncationError):
                compare_ideals(*pair)

    @pytest.mark.parametrize("element", [C(3, 1), C(3, 0) + C(3, 1)],
                             ids=["other_bidegree", "mixed"])
    def test_item_off_its_labeled_bidegree_is_refused(self, element):
        f7 = gen_family("herbaut7", 3, 4, 2)
        message = "item at s=1, t\\^2 is not homogeneous of the labeled bidegree"
        bad = RelationFamily("bad", 3, 4, 2, (RelationItem(s=1, t_exp=2, element=element),))
        for compare in (compare_ideals, span_contains):
            with pytest.raises(InvariantViolation, match=message):
                compare(bad, f7)

    def test_item_from_another_genus_is_refused(self):
        # C(4)*C(0) is no monomial of genus 3: its row would come out zero,
        # and the family would compare equal to the empty one
        item = RelationItem(s=2, t_exp=8, element=TautElement(5, {(4, 0): 7}))
        bad = RelationFamily("bad", 3, 4, 2, (item,))
        empty = RelationFamily("empty", 3, 4, 2, ())
        for compare in (compare_ideals, span_contains):
            with pytest.raises(ValueError, match="is in genus 5, its family in genus 3"):
                compare(bad, empty)

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

    def test_reprs_match_pinned_hash_on_the_ideals_grid(self):
        # SHA-256 of the newline-joined IdealComparison reprs on the ideals
        # benchmark grid, as every cell gave them when it reduced all the
        # shifted rows of the cells below it
        fams = ("vdgk6", "herbaut7", "strong8")
        reprs = []
        for g in (5, 6, 7):
            for r in (2, 3, 4):
                for d in range(2 * r, 11):
                    f = [gen_family(name, g, d, r) for name in fams]
                    reprs += [repr(compare_ideals(f[a], f[b]))
                              for a, b in ((0, 1), (1, 2), (0, 2))]
        assert len(reprs) == 135
        assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == \
            "5bfc0213dfcd7790ea8e856bee08946a04c299e6fc8d29ac17b898aa0123df10"

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


class TestSharedSpan:
    """Each family builds its graded span once and every comparison reuses
    it, whatever the order of the pair."""

    FAMILIES = ("vdgk6", "herbaut7", "strong8")

    def test_pair_orders_reuse_one_span(self):
        shared = [gen_family(name, 4, 6, 3) for name in self.FAMILIES]
        for a, b in ((0, 1), (1, 2), (0, 2)):
            for x, y in ((a, b), (b, a)):
                fresh = [gen_family(name, 4, 6, 3) for name in self.FAMILIES]
                assert compare_ideals(shared[x], shared[y]) == \
                    compare_ideals_by_products(fresh[x], fresh[y]), (x, y)
        spans = [f._span for f in shared]
        compare_ideals(shared[2], shared[0])
        assert all(f._span is span for f, span in zip(shared, spans))

    def test_built_cells_do_not_hide_a_missing_generator(self):
        # span_contains builds the cell of the generator outside the window;
        # the comparison still refuses the family, in either order
        big, f7 = oversize_family(4, 5, 2), gen_family("herbaut7", 4, 5, 2)
        assert span_contains(big, big)
        assert (3, 0) in big._span.cells
        for pair in ((big, f7), (f7, big)):
            with pytest.raises(TruncationError):
                compare_ideals(*pair)
        assert compare_ideals(gen_family("vdgk6", 4, 5, 2), f7).ideal_equal

    def test_json_family_with_rational_coefficients(self):
        payload = json.loads(family_to_json(gen_family("herbaut7", 4, 6, 3)))
        for k, entry in enumerate(payload["items"]):
            for term in entry["element"]:
                term["coeff"] = str(F(term["coeff"]) * F(3, 2 * k + 5))
        text = json.dumps(payload)
        rational, f8 = family_from_json(text), gen_family("strong8", 4, 6, 3)
        # span_contains builds part of both spans first
        assert span_contains(rational, f8) == span_contains_by_ranks(rational, f8)
        for pair in ((rational, f8), (f8, rational)):
            report = compare_ideals(*pair)
            assert report.ideal_equal
            fresh = [family_from_json(text) if f is rational else gen_family("strong8", 4, 6, 3)
                     for f in pair]
            assert report == compare_ideals_by_products(*fresh)

    def test_cells_are_published_complete(self, monkeypatch):
        # every row a span inserts finds each published cell, its rows and
        # its ranks, as it will stay: no cell is published while it is built;
        # cold echelon tables, so strong8's generator rows are inserted here,
        # and an unrouted strong8 copy, which inserts its item rows
        fams = [gen_family(name, 4, 6, 3) for name in self.FAMILIES]
        fams.append(family_from_json(family_to_json(fams[2])))
        _top_echelon.cache_clear()

        def published():
            return {(k, key): (space.rank, generator_rank, rank)
                    for k, f in enumerate(fams) if f._span
                    for key, (space, generator_rank, rank) in f._span.cells.items()}

        seen = []
        add = RowSpace.add

        def watched(space, row):
            seen.append(published())
            return add(space, row)

        monkeypatch.setattr(RowSpace, "add", watched)
        compare_ideals(fams[0], fams[2])
        compare_ideals(fams[1], fams[2])
        compare_ideals(fams[0], fams[1])  # its joint ranks insert rows too
        compare_ideals(fams[3], fams[1])  # and so do an unrouted family's
        monkeypatch.undo()
        final = published()
        assert len(seen) > 100
        assert all(final[key] == value for snapshot in seen for key, value in snapshot.items())

    def test_memo_is_not_part_of_the_value(self):
        used, fresh = gen_family("strong8", 4, 5, 2), gen_family("strong8", 4, 5, 2)
        before = repr(used)
        compare_ideals(used, gen_family("vdgk6", 4, 5, 2))
        assert used._span is not None and fresh._span is None
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == before
        assert family_to_json(used) == family_to_json(fresh)
        unrouted = family_from_json(family_to_json(used))
        assert used._route == ("strong8", 3) and unrouted._route is None
        assert unrouted == used and hash(unrouted) == hash(used)
        assert repr(unrouted) == repr(used)


class TestCoveredCells:
    """A cell whose columns full cells below it all reach is full with no
    elimination; the others reduce only the rows the covering leaves."""

    FAMILIES = ("vdgk6", "herbaut7", "strong8")

    # g = 4: (2,2) and (2,4) each have two monomials, and no product of the
    # two generators with a C(k) fills a cell of size 3
    NEVER_FULL = json.dumps({"family": "never_full", "g": 4, "d": 6, "r": 3, "items": [
        {"s": 2, "t_exp": 6, "element": [{"monomial": [2, 0], "coeff": "3/2"},
                                         {"monomial": [1, 1], "coeff": "-3/2"}]},
        {"s": 2, "t_exp": 8, "element": [{"monomial": [3, 1], "coeff": "1"},
                                         {"monomial": [2, 2], "coeff": "-5/7"}]}]})

    def test_ranks_match_the_builder_without_covering(self):
        # the criterion-5 grid, then the ideals benchmark grid
        cases = [(g, d, r) for g in (3, 4, 5, 6) for r in (2, 3) for d in range(2 * r, 9)]
        cases += [(g, d, r) for g in (5, 6, 7) for r in (2, 3, 4) for d in range(2 * r, 11)]
        covered = deficient = 0
        for g, d, r in cases:
            for name in self.FAMILIES:
                fam = gen_family(name, g, d, r)
                span = GradedSpan(fam)
                expected = cells_by_shifted_rows(fam, r, r * (g - 1))
                got = {}
                for (i, j) in expected:
                    space, generator_rank, rank = span.cell(i, j)
                    got[(i, j)] = (rank, generator_rank)
                    if rank < space.ncols:
                        assert space.rank == rank, (g, d, r, name, i, j)
                    covered += space.rank < rank
                    deficient += space.rank > generator_rank
                assert got == expected, (g, d, r, name)
        assert covered and deficient

    def test_never_full_family_matches_product_route(self):
        never_full = family_from_json(self.NEVER_FULL)
        for name in self.FAMILIES:
            for pair in ((never_full, gen_family(name, 4, 6, 3)),
                         (gen_family(name, 4, 6, 3), never_full)):
                report = compare_ideals(*pair)
                assert report == compare_ideals_by_products(*pair), name
                side = pair.index(never_full)
                assert all(c.ideal_ranks[side] < c.dim for c in report.cells)
                assert any(c.ideal_ranks[side] for c in report.cells)
        # no nonempty cell is full, so no column is ever covered
        cells = never_full._span.cells.values()
        assert all(n < space.ncols for space, _, n in cells if space.ncols)


class TestEchelonRoute:
    """A family that ``gen_family`` made reads its generator rows off the cell
    tables: strong8 off the shared echelon tables (``_top_echelon``), vdgk6
    and herbaut7 their one row per cell; the same family read back from
    JSON or edited reduces its item rows.  The routes must agree cell by
    cell, and so must the comparisons, whose joints with a routed strong8
    family are strong8's own ranks."""

    FAMILIES = ("vdgk6", "herbaut7", "strong8")
    # the criterion-5 grid, the ideals benchmark grid, and d = r-1
    GRID = ([(g, d, r) for g in (3, 4, 5, 6) for r in (2, 3) for d in range(2 * r, 9)]
            + [(g, d, r) for g in (5, 6, 7) for r in (2, 3, 4) for d in range(2 * r, 11)]
            + [(g, r - 1, r) for g in range(1, 8) for r in range(1, 5)])

    def test_marked_and_json_routes_agree(self):
        for g, d, r in self.GRID:
            for name in self.FAMILIES:
                marked = gen_family(name, g, d, r)
                plain = family_from_json(family_to_json(marked))
                a, b = GradedSpan(marked), GradedSpan(plain)
                assert marked._route == (name, d - r) and not a.generators
                assert plain._route is None
                for i in range(1, r + 1):
                    for j in range(r * (g - 1) + 1):
                        assert a.cell(i, j)[1:] == b.cell(i, j)[1:], (g, d, r, name, i, j)

    def test_routed_comparisons_match_the_item_route(self):
        # the JSON copies are unrouted, so every joint rank is reduced
        for g, d, r in self.GRID:
            routed = [gen_family(name, g, d, r) for name in self.FAMILIES]
            plain = [family_from_json(family_to_json(f)) for f in routed]
            for a in range(3):
                for b in range(3):
                    if a != b:
                        assert compare_ideals(routed[a], routed[b]) == \
                            compare_ideals(plain[a], plain[b]), (g, d, r, a, b)

    def test_edited_family_takes_the_row_route(self):
        f7, f8 = gen_family("herbaut7", 4, 6, 3), gen_family("strong8", 4, 6, 3)
        # no generator in cell (1, 3)
        edited = RelationFamily(f8.family_id, f8.g, f8.d, f8.r, f8.items[1:])
        assert edited._route is None
        report = compare_ideals(edited, f7)
        assert report == compare_ideals_by_products(edited, f7)
        assert report != compare_ideals(f8, f7)

    @pytest.mark.parametrize("d", [3, 2], ids=["cut_0", "cut_minus_1"])
    def test_comparisons_never_read_routed_items(self, d):
        # a routed family lies in the window by construction, so no
        # comparison iterates its items, and none forms them
        class Unreadable(tuple):
            def __iter__(self):
                raise AssertionError("the routed family's items were read")

        g, r = 4, 3
        for name in self.FAMILIES:
            routed, untouched = gen_family(name, g, d, r), gen_family(name, g, d, r)
            assert routed._route == (name, d - r)
            object.__setattr__(routed, "items", Unreadable(routed.items))
            for other_name in self.FAMILIES:
                other = gen_family(other_name, g, d, r)
                assert compare_ideals(routed, other) == compare_ideals(untouched, other)
                assert compare_ideals(other, routed) == compare_ideals(other, untouched)
                assert span_contains(other, routed) == span_contains(other, untouched)
            with pytest.raises(AttributeError):
                object.__getattribute__(untouched, "items")

    def test_span_contains_forms_no_routed_items(self):
        # the sub-family's cells come from its span, and strong8 above a
        # routed family answers from the inclusion
        f7, f8 = gen_family("herbaut7", 6, 8, 3), gen_family("strong8", 6, 8, 3)
        assert span_contains(f7, f8)
        assert f7._span.cells == {}
        assert not span_contains(f8, f7)
        small = [gen_family(name, 4, 4, 2) for name in self.FAMILIES]
        for sub in small:
            for sup in small:
                assert span_contains(sub, sup) == span_contains_by_ranks(
                    gen_family(sub.family_id, 4, 4, 2), gen_family(sup.family_id, 4, 4, 2))
        for family in [f7, f8] + small:
            with pytest.raises(AttributeError):
                object.__getattribute__(family, "items")

    def test_echelon_ranks_match_full_reduction(self):
        # the tables stop at rank min(dim, floor(w/2) + 1); the reference
        # reduces every row
        for g in range(1, 9):
            for s in range(1, 6):
                for w in range(s * (g - 1) + 1):
                    pivots, ranks = _top_echelon(g, s, w)
                    assert ranks == top_ranks_by_full_reduction(g, s, w), (g, s, w)
                    assert len(pivots) == ranks[0]


class TestMonomialBasis:
    def test_small_counts(self):
        assert monomials_of_bidegree(3, 1, 2) == ((2,),)
        assert set(monomials_of_bidegree(3, 2, 2)) == {(2, 0), (1, 1)}
        assert monomials_of_bidegree(3, 2, 5) == ()

    def test_sorted_canonically(self):
        # the basis is _compositions' own order, never re-sorted, on every
        # cell of g <= 11, s <= 7: size first, then weights descending
        def canonical(m):
            return (len(m), tuple(-x for x in m))

        for g in range(1, 12):
            for s in range(8):
                for w in range(s * (g - 1) + 1):
                    basis = monomials_of_bidegree(g, s, w)
                    assert list(basis) == sorted(basis, key=canonical), (g, s, w)
                    assert len(set(basis)) == len(basis), (g, s, w)


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

    def test_x_order_option_is_gone(self):
        # the window is 2(g+2), recorded on the report
        assert verify_implication_chain(3, 5, 2).x_order == 10
        with pytest.raises(TypeError):
            verify_implication_chain(3, 5, 2, 8)

    def test_identity9_comparison_is_not_vacuous(self, monkeypatch):
        # check (a) rests on h_a = g_a + e_a per generator and on the power
        # law of the cached L^-n: a perturbed e_0, L^-4 or L^-8 must flip it;
        # L^-8 = L^-r(g+1), the largest power a G_S uses, lies beyond the
        # generators (n <= g+1), so only the power law sees it
        import jacrel.relations as rel
        from jacrel.rings import LaurentSeries
        caches = (rel._power_law_ok, rel._generator_split_ok)
        g, d, r, x_order = 3, 5, 2, 10  # the chain's window 2(g+2)

        def perturbed(real, at):
            bump = LaurentSeries(0, (F(1),), x_order)
            return lambda n, order: real(n, order) + bump if n == at else real(n, order)

        def identity9():
            for cache in caches:
                cache.cache_clear()
            report = verify_implication_chain(g, d, r)
            assert report.x_order == x_order
            return report.identity9_ok

        try:
            assert identity9()
            for name, at in (("_e_part", 2), ("_bare_log_inv_pow", 4),
                             ("_bare_log_inv_pow", 8)):
                with monkeypatch.context() as patch:
                    patch.setattr(rel, name, perturbed(getattr(rel, name), at))
                    assert not identity9(), (name, at)
        finally:
            for cache in caches:
                cache.cache_clear()
        assert identity9()

    def test_power_law_certifies_the_ladder(self, monkeypatch):
        # the ladder builds L^-(n+1) = -(1+x) (L^-n)' / n, check (a) multiplies
        # L^-n by L: a step without the (1+x) factor, or one dividing by n+1,
        # must flip identity9_ok, while h_a = g_a + e_a still holds, since
        # e_a is read off the same powers
        import jacrel.combinat as combinat
        import jacrel.relations as rel
        from jacrel.rings import LaurentSeries
        real = combinat._ladder_step

        def without_one_plus_x(power, n):
            v = power.valuation
            return LaurentSeries(v - 1, [F(-(v + i) * c, n * power.den)
                                         for i, c in enumerate(power.nums)], power.trunc - 1)

        def over_n_plus_one(power, n):
            return real(power, n) * F(n, n + 1)

        def report():
            combinat._ladders.clear()
            for cache in (combinat._bare_log_inv_pow, rel._e_part, rel._power_law_ok,
                          rel._generator_split_ok):
                cache.cache_clear()
            return verify_implication_chain(3, 5, 2)

        try:
            assert report().ok
            for step in (without_one_plus_x, over_n_plus_one):
                with monkeypatch.context() as patch:
                    patch.setattr(combinat, "_ladder_step", step)
                    corrupted = report()
                    assert not corrupted.identity9_ok and not corrupted.ok, step.__name__
                    assert all(rel._generator_split_ok(a + 2, 10) for a in range(3))
        finally:
            assert report().ok

    def test_frontier_reports_match_pinned_hashes(self):
        # 84 and 91 log powers at x-order 2(g+2); the reprs hash as they did
        # when each power was inverted on its own
        for case, digest in (
                ((11, 14, 7), "5a321241a9037a7a6a0dd382aa9482baa6df0cff4ead8dd996b092d80cc108e3"),
                ((12, 14, 7), "065b6fd5f4b5fe3c7b7dba2b9b5455646f2e74e9f65070763dba66452acc9382")):
            report = verify_implication_chain(*case)
            assert report.ok, case
            assert hashlib.sha256(repr(report).encode()).hexdigest() == digest, case

    def test_degree_bound_comparison_is_not_vacuous(self, monkeypatch):
        # check (b) rests on val(e_a) >= 0: an x^-1 term in e_0 must flip it
        import jacrel.relations as rel
        from jacrel.rings import LaurentSeries
        g, d, r, x_order = 3, 5, 2, 10
        real = rel._e_part
        bump = LaurentSeries(-1, (F(1),), x_order)
        try:
            assert verify_implication_chain(g, d, r).ok
            with monkeypatch.context() as patch:
                patch.setattr(rel, "_e_part", lambda n, order: real(n, order) + bump
                              if n == 2 else real(n, order))
                rel._generator_split_ok.cache_clear()
                report = verify_implication_chain(g, d, r)
                assert not report.degree_bound_ok
                assert not report.ok
        finally:
            rel._generator_split_ok.cache_clear()
        report = verify_implication_chain(g, d, r)
        assert report.degree_bound_ok and report.ok

    def test_reports_match_pinned_hashes(self):
        # SHA-256 of the newline-joined ChainReport reprs on the criterion-6b
        # grid, as the chain gave them when it summed whole series per cut
        cases = [(g, d, r) for g in (3, 4, 5, 6) for r in (2, 3) for d in range(2 * r, 9)]
        text = "\n".join(repr(verify_implication_chain(*case)) for case in cases)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "aa0d28e76be44ee5fd2127507d1d277cdc312d48395d0081ae82e37d7e01a315"

    def test_matches_algebra_valued_reference_at_low_orders(self):
        # the report does not depend on the window: the reference at
        # x-orders 1, 2, 3 and 5 gives it field for field, x_order aside
        for g in range(1, 5):
            for r in range(1, 4):
                for d in range(r - 1, 8):
                    report = verify_implication_chain(g, d, r)
                    for x_order in (1, 2, 3, 5):
                        assert chain_by_xt_series(g, d, r, x_order)._replace(
                            x_order=report.x_order) == report, (g, d, r, x_order)

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


def kept_head(table, cut):
    """(trunc, valuation) of the last entry with k <= cut, else of k = 0."""
    return [entry for entry in table if entry[0] <= cut or entry[0] == 0][-1][1:]


class TestSplitTable:
    def test_matches_position_set_sums(self):
        # the reference head table, one term per sub-multiset scaled by its
        # multiplicity and read off its factors, against the plain sums over
        # all 2^s position sets, at every cut a d can make
        from jacrel.combinat import principal_part
        from jacrel.relations import _e_part
        g = 6
        for x_order in (1, 3, 8):
            h = [principal_part(a + 2) for a in range(g)]
            e = [_e_part(a + 2, x_order) for a in range(g)]
            for s in range(1, 5):
                for w in range(s * (g - 1) + 1):
                    for mono in monomials_of_bidegree(g, s, w):
                        facts_ok, table = head_table(mono, x_order)
                        cuts = range(-1, s * (g - 1) + s + 1)
                        agrees, sums = split_sums_by_position_sets(mono, h, e, x_order, cuts)
                        assert facts_ok and agrees, (mono, x_order)
                        assert [kept_head(table, cut) for cut in cuts] == \
                            [(kept.trunc, kept.valuation) for kept in sums], (mono, x_order)

    def test_cancelling_leading_terms(self):
        # at x-order 3 the terms of (2,1,1,1) kept by cut 3 (S empty, one
        # weight 1, the weight 2) cancel at their least valuation, so the
        # head reads later coefficients
        from jacrel.combinat import principal_part
        from jacrel.relations import _bare_log_inv_pow, _e_part
        mono, x_order, cut = (2, 1, 1, 1), 3, 3
        terms = (e_product(mono, x_order),
                 _bare_log_inv_pow(3, x_order) * e_product((2, 1, 1), x_order),
                 _bare_log_inv_pow(4, x_order) * e_product((1, 1, 1), x_order))
        least = min(term.valuation for term in terms if not term.is_zero)
        h = [principal_part(a + 2) for a in range(3)]
        e = [_e_part(a + 2, x_order) for a in range(3)]
        kept = split_sums_by_position_sets(mono, h, e, x_order, [cut])[1][0]
        trunc, valuation = kept_head(head_table(mono, x_order)[1], cut)
        assert valuation > least
        assert (trunc, valuation) == (kept.trunc, kept.valuation)

    def test_floor_is_the_least_kept_head(self):
        # the lemma's floor, min_x_exponent, is the least valuation of the
        # kept sums that the reference table computes, and reaches the bound
        cases = [(g, d, r) for g in (3, 4, 5, 6) for r in (2, 3) for d in range(2 * r, 9)]
        for g, d, r in cases + [(9, d, 5) for d in (10, 11, 12)]:
            report = verify_implication_chain(g, d, r)
            for check in report.degree_bounds:
                least = min(kept_head(head_table(mono, report.x_order)[1], d - r)[1]
                            for w in range(check.s * (g - 1) + 1)
                            for mono in monomials_of_bidegree(g, check.s, w))
                assert least == check.min_x_exponent >= check.bound, (g, d, r, check.s)

    def test_reports_do_not_depend_on_cache_state(self):
        from jacrel.relations import (_CACHE_SIZE, _bare_log_inv_pow, _e_part,
                                      _generator_split_ok, _power_law_ok)
        caches = (_bare_log_inv_pow, _e_part, _power_law_ok, _generator_split_ok)

        def report(g, d, r):
            chain = verify_implication_chain(g, d, r)
            for cache in caches:
                assert cache.cache_info().currsize <= _CACHE_SIZE
            return chain

        for g in (3, 5):
            for r in (2, 3):
                ds = range(2 * r, 9)
                cleared = []
                for d in ds:
                    for cache in caches:
                        cache.cache_clear()
                    cleared.append(report(g, d, r))
                # every d reads the same series, now all cached
                ascending = [report(g, d, r) for d in ds]
                descending = [report(g, d, r) for d in reversed(ds)]
                assert ascending == cleared, (g, r)
                assert descending[::-1] == cleared, (g, r)

    def test_warm_d_does_no_series_arithmetic(self, monkeypatch):
        # the tables are cumulative, so once d = 6 has built them the kept
        # sums of d = 7 and 8 are lookups: no product, no addition
        from jacrel.rings import LaurentSeries
        verify_implication_chain(6, 6, 3)
        calls = {"__mul__": 0, "_merge": 0}

        def counting(name):
            real = getattr(LaurentSeries, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(LaurentSeries, name, counting(name))
        for d in (7, 8):
            assert verify_implication_chain(6, d, 3).ok, d
        assert calls == {"__mul__": 0, "_merge": 0}


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

    def test_json_terms_of_one_monomial_add_up(self):
        def element(terms):
            payload = {"family": "vdgk6", "g": 3, "d": 4, "r": 2, "items": [
                {"s": 2, "t_exp": 5, "element": terms}]}
            return family_from_jsonable(payload).items[0].element

        cross = TautElement.generator(3, 1) * TautElement.generator(3, 0)
        assert element([{"monomial": [0, 1], "coeff": "1"},
                        {"monomial": [1, 0], "coeff": "2"}]) == cross * 3
        assert element([{"monomial": [0, 1], "coeff": "1"},
                        {"monomial": [1, 0], "coeff": "-1"}]).is_zero
        assert element([{"monomial": [1, 0], "coeff": "1/2"},
                        {"monomial": [1, 0], "coeff": 2}]) == cross * F(5, 2)
        with pytest.raises(TypeError):
            element([{"monomial": [1, 0], "coeff": 0.1}])

    def test_json_non_int_parameters_rejected(self):
        def payload(key, value):
            data = {"family": "strong8", "g": 3, "d": 4, "r": 2, "items": [
                {"s": 1, "t_exp": 2, "u_exp": 3, "element": [{"monomial": [0], "coeff": "1"}]}]}
            (data if key in ("g", "d", "r") else data["items"][0])[key] = value
            return data

        for key in ("g", "d", "r", "s", "t_exp", "u_exp"):
            for bad in (3.0, True, "3"):
                with pytest.raises(TypeError, match=f"^{key} must be an int"):
                    family_from_jsonable(payload(key, bad))
        assert family_from_jsonable(payload("u_exp", 3)).items[0].u_exp == 3

    @pytest.mark.parametrize("key, value, error, message", [
        ("g", 0, ValueError, "g must be >= 1"),
        ("d", -1, ValueError, "d must be >= 0"),
        ("r", 0, ValueError, "r must be >= 1"),
        ("r", -2, ValueError, "r must be >= 1"),
        ("family", 7, TypeError, "family must be a str"),
    ], ids=["g_0", "d_minus_1", "r_0", "r_minus_2", "int_family"])
    def test_json_out_of_range_parameters_rejected(self, key, value, error, message):
        # read as they are, each compares ideal_equal=True over zero cells
        data = {"family": "strong8", "g": 3, "d": 4, "r": 2, "items": []}
        data[key] = value
        with pytest.raises(error, match=message):
            family_from_jsonable(data)

    def test_json_non_int_weights_and_bool_coefficients_rejected(self):
        def element(terms):
            payload = {"family": "vdgk6", "g": 3, "d": 4, "r": 2, "items": [
                {"s": 1, "t_exp": 2, "element": terms}]}
            return family_from_jsonable(payload).items[0].element

        for terms in ([{"monomial": [0.0], "coeff": "1"}],
                      [{"monomial": [True], "coeff": "1"}],
                      # the bool weight must not merge into the int monomial
                      [{"monomial": [1], "coeff": "1"}, {"monomial": [True], "coeff": "1"}],
                      [{"monomial": [0], "coeff": True}],
                      [{"monomial": [0], "coeff": "1"}, {"monomial": [0], "coeff": False}]):
            with pytest.raises(TypeError):
                element(terms)
        assert element([{"monomial": [0], "coeff": 1}]) == C(3, 0)
