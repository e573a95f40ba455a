import hashlib
import json
import random
from fractions import Fraction as F
from math import comb, factorial

import pytest

from jacrel.combinat import p_poly, stirling2
from jacrel.linalg import RowSpace, rank
from jacrel.relations import (_SPANS, GradedSpan, RelationFamily, RelationItem, _f_table,
                              _generator_rows, _joint_rank, _pi_coefficients, _suffix_ranks,
                              _suffix_start, compare_ideals,
                              epsilon_series, family_from_json, family_from_jsonable,
                              family_to_json, gen_family, gen_theorem1, monomials_of_bidegree,
                              span_contains, theorem1_family, verify_implication_chain)
from jacrel.rings import InvariantViolation, TruncationError
from jacrel.tautalg import TautElement, _g_power_coefficient, build_g_poly, poly_power
from oracles import (cell_rows_by_products, cells_by_shifted_rows, chain_by_xt_series,
                     cold_chain, compare_ideals_by_products,
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
        from jacrel.tautalg import _compositions, _orderings
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
        caches = (relations._pi_coefficients, relations._f_table)
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
        caches = (relations._pi_coefficients, relations._f_table)
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
        # longer symmetric under u -> -1-u: P_4 = v pi_4(v), v = u(1+u), on
        # which the tables F rest, would not hold, so pi_4's closed form,
        # which certifies that factorization, refuses it
        from jacrel import relations
        from jacrel.rings import DensePoly, InvariantViolation
        real = relations.p_poly
        monkeypatch.setattr(relations, "p_poly",
                            lambda n: real(n) + DensePoly([0, 0, 1, 1]) if n == 4 else real(n))
        caches = (relations._pi_coefficients, relations._f_table)
        for cache in caches:
            cache.cache_clear()
        try:
            with pytest.raises(InvariantViolation, match="pi_4's closed form"):
                gen_family("strong8", 3, 4, 2).items
        finally:
            for cache in caches:
                cache.cache_clear()

    def test_families_share_one_table_per_stable_key(self):
        # the three families at two values of d read one table F per
        # stable key (min(g, w+1), s, w): each is built once, the cells
        # with a generator at d+1 are among those at d, and reading the
        # items again builds none
        g, d, r = 4, 5, 3
        _f_table.cache_clear()
        misses = []
        for dd in (d, d + 1):
            for fid in ("vdgk6", "herbaut7", "strong8"):
                gen_family(fid, g, dd, r).items
            misses.append(_f_table.cache_info().misses)
        assert misses[0] and misses[1] == misses[0]
        assert misses[0] == _f_table.cache_info().currsize
        for fid in ("vdgk6", "herbaut7", "strong8"):
            gen_family(fid, g, d, r).items
        assert _f_table.cache_info().misses == misses[0]

    def test_vdgk6_items_match_the_composition_sum(self):
        # vdgk6's items, read off F as 2^eps F[D], are G(t)^s's coefficient,
        # the composition sum that theorem1 reads, cell by cell
        g, d, r = 5, 7, 3
        items = gen_family("vdgk6", g, d, r).items
        assert items
        for it in items:
            assert it.u_exp is None
            assert it.element == _g_power_coefficient(g, *it.bidegree), it.bidegree
        assert [it.bidegree for it in items] == [
            (s, w) for s in range(1, r + 1) for w in range(s * (g - 1) + 1)
            if 2 * s + w > d - r + s]

    def test_nonspecial_generators_lie_outside_the_beauville_window(self):
        # a monomial of bidegree (i, j) lies in CH^(g-i)_(j) of the Jacobian,
        # which is zero for i + j > g (Beauville); at d-r = g every item of
        # the three families has s + w > g, so on a curve these relations
        # hold vacuously
        items = 0
        for g in range(1, 8):
            for r in range(1, min(g, 4) + 1):
                for name in ("vdgk6", "herbaut7", "strong8"):
                    for it in gen_family(name, g, g + r, r).items:
                        s, w = it.bidegree
                        assert s + w > g, (name, g, r, s, w)
                        items += 1
        assert items == 1874

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
        with pytest.raises(ValueError, match=r"same \(g, d, r\)"):
            span_contains(gen_family("vdgk6", 3, 4, 2), gen_family("strong8", 4, 4, 2))

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

    def test_frontier_comparisons_match_pinned_hash(self):
        # SHA-256 of the newline-joined reprs of the three comparisons that
        # ``jacrel equivalence 11 14 7`` runs, as README's frontier probe
        # prints it
        f6, f7, f8 = (gen_family(name, 11, 14, 7) for name in ("vdgk6", "herbaut7", "strong8"))
        reports = [compare_ideals(f6, f7), compare_ideals(f7, f8), compare_ideals(f6, f8)]
        assert hashlib.sha256("\n".join(map(repr, reports)).encode()).hexdigest() == \
            "3324d694720e3e42ceece84b593f6db789a601c4b8bfb4ca712ad5a5167b1279"

    def test_random_families_match_product_route_reference(self, monkeypatch):
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
        # and a hand-built pair whose joint cell (2, 4), of dim 3, fills on
        # the first row of b: {C(4)C(0), C(3)C(1)} and {C(2)^2, C(3)C(1)}
        a, b = (RelationFamily(name, 5, 4, 2, tuple(
                    RelationItem(s=2, t_exp=8, element=TautElement.monomial(5, m)) for m in monos))
                for name, monos in (("a", ((4, 0), (3, 1))), ("b", ((2, 2), (3, 1)))))
        report = compare_ideals(a, b)
        assert report == compare_ideals_by_products(a, b)
        assert [c[:5] for c in report.cells] == [(2, 4, 3, (2, 2), 3)]
        rows = []
        add = RowSpace.add
        monkeypatch.setattr(RowSpace, "add", lambda space, row: rows.append(row) or add(space, row))
        assert _joint_rank(a._span.cell(2, 4)[0], b._span.cell(2, 4)[0]) == 3
        assert len(rows) == 1  # b's second row is never reduced

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

    def test_cells_below_the_genus_do_not_depend_on_it(self):
        # the stable range: for g >= w+1 the monomials of bidegree (s, w) are
        # all the partitions of w into s parts, so a cell (i, j) with
        # j <= g-1 depends only on (family, i, j, d-r), and the three pairs'
        # cells there are the same at g, g+1 and g+3
        names, pairs = ("vdgk6", "herbaut7", "strong8"), ((0, 1), (1, 2), (0, 2))

        def cells(genus, d, r, j_top):
            fams = [gen_family(name, genus, d, r) for name in names]
            return [{(c.i, c.j): c for c in compare_ideals(fams[a], fams[b]).cells
                     if c.j <= j_top} for a, b in pairs]

        compared = 0
        for g in range(3, 6):
            for r in range(1, 4):
                for d in range(r - 1, 9):
                    base = cells(g, d, r, g - 1)
                    for genus in (g + 1, g + 3):
                        assert cells(genus, d, r, g - 1) == base, (g, d, r, genus)
                        compared += sum(map(len, base))
        assert compared == 1830

    def test_span_verdicts_on_the_free_algebra_keys(self):
        # every key (g, c) with 1 <= c = d-r <= g <= 10 and c <= 9, at
        # r = min(c, 7): the three ideals agree at each, and the bare spans
        # exactly at c = 1 and at (2, 4, 2) and (3, 4, 2)
        names, pairs = ("vdgk6", "herbaut7", "strong8"), ((0, 1), (1, 2), (0, 2))
        keys = [(g, c + min(c, 7), min(c, 7)) for g in range(1, 11)
                for c in range(1, min(g, 9) + 1)]
        assert len(keys) == 54
        for g, d, r in keys:
            fams = [gen_family(name, g, d, r) for name in names]
            reports = [compare_ideals(fams[a], fams[b]) for a, b in pairs]
            assert all(report.ideal_equal for report in reports), (g, d, r)
            span_equal = d - r == 1 or (g, d, r) in ((2, 4, 2), (3, 4, 2))
            assert [report.span_equal for report in reports] == [span_equal] * 3, (g, d, r)

    def test_span_contains_matches_reference(self):
        # every ordered pair of the criterion-5 grid and of d = r-1: the
        # routed families against the reference and their JSON copies
        names = ("vdgk6", "herbaut7", "strong8")
        keys = [(g, d, r) for g in (3, 4, 5, 6) for r in (2, 3) for d in (r - 1, *range(2 * r, 9))]
        verdicts = {}
        for g, d, r in keys:
            routed = [gen_family(name, g, d, r) for name in names]
            plain = [family_from_json(family_to_json(f)) for f in routed]
            for a in range(3):
                for b in range(3):
                    if a != b:
                        verdict = span_contains(routed[a], routed[b])
                        assert verdict == span_contains(plain[a], plain[b]) == \
                            span_contains_by_ranks(plain[a], plain[b]), (g, d, r, a, b)
                        verdicts[(g, d, r, names[a], names[b])] = verdict
        assert len(verdicts) == 240
        assert all(v for (*_, sub, sup), v in verdicts.items() if sup == "strong8")
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
        # the cell of the generator outside the window is built first; the
        # comparison still refuses the family, in either order
        big, f7 = oversize_family(4, 5, 2), gen_family("herbaut7", 4, 5, 2)
        assert span_contains(big, big)
        GradedSpan.from_family(big).cell(3, 0)
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
        # span_contains reads both spans' generator rows first
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
        # cold routed spans and tables F, so strong8's generator rows are
        # inserted here, and an unrouted strong8 copy, which inserts its
        # item rows
        _SPANS.clear()
        fams = [gen_family(name, 4, 6, 3) for name in self.FAMILIES]
        fams.append(family_from_json(family_to_json(fams[2])))
        _f_table.cache_clear()
        _suffix_ranks.cache_clear()

        def published():
            return {(k, key): (cell.space.rank, *cell[1:])
                    for k, f in enumerate(fams) if f._span
                    for key, cell in f._span.cells.items()}

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
                span = GradedSpan(g, (name, d - r))
                expected = cells_by_shifted_rows(fam, r, r * (g - 1))
                got = {}
                for (i, j) in expected:
                    space, rank = span.cell(i, j)[:2]
                    generator_rank = span.generator_rank(i, j)
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
        assert all(c.rank < c.space.ncols for c in cells if c.space.ncols)


class TestEchelonRoute:
    """A family that ``gen_family`` made reads its generator rows off the cell
    tables: strong8 the suffix of the half-degree table F (``_f_table``),
    vdgk6 and herbaut7 their one row per cell; the same family read back from
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
                a, b = GradedSpan(g, marked._route), GradedSpan(g, items=plain.items)
                assert marked._route == (name, d - r) and not a.generators
                assert plain._route is None
                for i in range(1, r + 1):
                    for j in range(r * (g - 1) + 1):
                        assert (a.cell(i, j).rank, a.generator_rank(i, j)) == \
                            (b.cell(i, j).rank, b.generator_rank(i, j)), (g, d, r, name, i, j)

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

    def test_kept_generator_spaces_are_read_never_changed(self):
        # an unrouted span reduces its items once, into one echelon space per
        # bidegree, which every comparison and containment reads; after all
        # of them on the criterion-5 grid the spaces still equal a fresh
        # span's, and every deficient cell holds exactly its rank's pivots,
        # which is what a joint rank reads
        for g in (3, 4, 5, 6):
            for r in (2, 3):
                for d in range(2 * r, 9):
                    plain = [family_from_json(family_to_json(gen_family(name, g, d, r)))
                             for name in self.FAMILIES]
                    for a in range(3):
                        for b in range(3):
                            if a != b:
                                compare_ideals(plain[a], plain[b])
                                span_contains(plain[a], plain[b])
                    for f in plain:
                        kept, fresh = f._span, GradedSpan(g, items=f.items)
                        assert kept.generators.keys() == fresh.generators.keys()
                        for key, space in kept.generators.items():
                            assert list(space.pivots.items()) == \
                                list(fresh.generators[key].pivots.items()), (g, d, r, key)
                        assert kept.cells
                        for key, (space, rank, *_) in kept.cells.items():
                            if rank < space.ncols:
                                assert space.rank == rank, (g, d, r, f.family_id, key)

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
        # routed family answers from the inclusion; cold routed spans
        _SPANS.clear()
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

    def test_span_contains_builds_no_ideal_rows(self):
        # both sides read only their generator rows, so neither span, nor
        # the strong8 span whose cells they share, builds a cell
        _SPANS.clear()
        f7, f6 = gen_family("herbaut7", 6, 8, 3), gen_family("vdgk6", 6, 8, 3)
        assert span_contains(f7, f6) == span_contains_by_ranks(
            gen_family("herbaut7", 6, 8, 3), gen_family("vdgk6", 6, 8, 3))
        for family in (f7, f6):
            assert family._span.cells == {} and family._span.top.cells == {}

    def test_suffix_ranks_match_full_reduction(self):
        # strong8's generators at k, the rows e > k of the full-degree
        # table, have the rank of F's suffix from i0; the reference
        # multiplies out every Q_m and reduces every row; past the grid, ten
        # deficient cells, rank F < min(D+1, #monomials), where U never
        # fills and every column is eliminated
        cells = [(g, s, w) for g in range(1, 9) for s in range(1, 6) for w in range(s * (g - 1) + 1)]
        cells += [(4, 6, 12), (4, 7, 14), (10, 3, 19), (11, 3, 21), (10, 4, 28), (11, 4, 31),
                  (11, 5, 41), (11, 6, 51), (11, 7, 60), (11, 7, 61)]
        for g, s, w in cells:
            ranks = _suffix_ranks(g, s, w)
            full = top_ranks_by_full_reduction(g, s, w)
            assert [ranks[_suffix_start(s, w, k)] for k in range(-1, 2 * s + w + 1)] \
                == list(full), (g, s, w)
            assert ranks[0] == rank(_f_table(g, s, w), len(monomials_of_bidegree(g, s, w)))

    def test_suffix_ranks_eliminate_columns_of_length_d_plus_one(self, monkeypatch):
        # at (8, 5, 20) F has 46 columns of length D+1 = 11; the elimination
        # reads columns, and U fills before the last one
        _suffix_ranks.cache_clear()
        inserted = []
        add = RowSpace.add

        def watched(space, row):
            inserted.append(len(row))
            return add(space, row)

        monkeypatch.setattr(RowSpace, "add", watched)
        ranks = _suffix_ranks(8, 5, 20)
        monkeypatch.undo()
        assert len(monomials_of_bidegree(8, 5, 20)) == 46 and ranks[0] == 11
        assert set(inserted) == {11} and 11 <= len(inserted) < 46

    def test_deficient_cells_of_genus_11(self, monkeypatch):
        # rank F < min(D+1, #monomials) in exactly six of the 287 cells of
        # g = 11, s <= 7; U never fills there, so every column is inserted
        _suffix_ranks.cache_clear()
        inserted = []
        add = RowSpace.add

        def watched(space, row):
            inserted.append(row)
            return add(space, row)

        monkeypatch.setattr(RowSpace, "add", watched)
        deficient = []
        for s in range(1, 8):
            for w in range(10 * s + 1):
                inserted.clear()
                dim = len(monomials_of_bidegree(11, s, w))
                if _suffix_ranks(11, s, w)[0] < min(w // 2 + 1, dim):
                    deficient.append((s, w))
                    assert len(inserted) == dim, (s, w)
        assert deficient == [(3, 21), (4, 31), (5, 41), (6, 51), (7, 60), (7, 61)]


class TestSharedRouteSpans:
    """A routed family's span is the one span of its route key
    (family_id, g, d-r), shared by every r: its cell (i, j) depends only on
    that key, and a comparison at r reads the cells i <= r."""

    FAMILIES = ("vdgk6", "herbaut7", "strong8")

    def test_shuffled_comparisons_match_unrouted_copies(self):
        # every ordered pair over the ideals benchmark grid and d = r-1, in a
        # seeded shuffled order from cold spans, so that a span is first
        # built at some r and read at others, smaller and larger
        grid = ([(g, d, r) for g in (5, 6, 7) for r in (2, 3, 4) for d in range(2 * r, 11)]
                + [(g, r - 1, r) for g in range(1, 8) for r in range(1, 5)])
        tasks = [(case, a, b) for case in grid for a in range(3) for b in range(3) if a != b]
        random.Random(35).shuffle(tasks)
        _SPANS.clear()
        for case, a, b in tasks:
            routed = [gen_family(self.FAMILIES[k], *case) for k in (a, b)]
            plain = [family_from_json(family_to_json(f)) for f in routed]
            assert compare_ideals(*routed) == compare_ideals(*plain), (case, a, b)

    def test_cells_at_r_are_cells_at_larger_r(self):
        # r is a window: on the criterion-5 grid each cell (i, j) of a
        # comparison at (g, d, r) is the cell (i, j) at (g, d+1, r+1) and at
        # (g, d+2, r+2), for all three pairs; the larger r compare unrouted
        # copies, which reduce their own item rows and share no span
        pairs = ((0, 1), (1, 2), (0, 2))
        for g in (3, 4, 5, 6):
            for r in (2, 3):
                for d in range(2 * r, 9):
                    fams = [gen_family(name, g, d, r) for name in self.FAMILIES]
                    cells = {(a, b): compare_ideals(fams[a], fams[b]).cells for a, b in pairs}
                    for k in (1, 2):
                        plain = [family_from_json(family_to_json(gen_family(name, g, d + k, r + k)))
                                 for name in self.FAMILIES]
                        for a, b in pairs:
                            wide = {(c.i, c.j): c for c in compare_ideals(plain[a], plain[b]).cells}
                            for c in cells[a, b]:
                                assert wide[c.i, c.j] == c, (g, d, r, k, a, b, c.i, c.j)

    def test_spans_are_reused_across_r(self):
        # (5, 6, 2), (5, 7, 3) and (5, 8, 4) share d-r = 4: after (5, 7, 3)
        # the smaller r builds no cell and the larger builds only i = 4
        _SPANS.clear()

        def compare_all(g, d, r):
            fams = [gen_family(name, g, d, r) for name in self.FAMILIES]
            for a in range(3):
                for b in range(3):
                    if a != b:
                        compare_ideals(fams[a], fams[b])
            return fams

        spans = [f._span for f in compare_all(5, 7, 3)]
        built = [set(span.cells) for span in spans]
        assert all(max(i for i, _ in cells) == 3 for cells in built)
        smaller = compare_all(5, 6, 2)
        assert all(f._span is span for f, span in zip(smaller, spans))
        assert [set(span.cells) for span in spans] == built
        larger = compare_all(5, 8, 4)
        assert all(f._span is span for f, span in zip(larger, spans))
        added = [set(span.cells) - cells for span, cells in zip(spans, built)]
        assert all(added) and all(i == 4 for cells in added for i, _ in cells)
        assert _SPANS == {(name, 5, 4): span for name, span in zip(self.FAMILIES, spans)}

    def test_beauville_window_cells_are_the_genus_14_cells(self):
        # the window cells (i, j), i >= 1 and i + j <= g, have j <= g-1, so
        # they lie in the stable range: for g 2..11 and every cut c = d-r in
        # 0..g, each of the three route spans has there the generator rank
        # and ideal rank of its span at g = 14 and the same cut
        for name in self.FAMILIES:
            cells = 0
            for g in range(2, 12):
                for c in range(g + 1):
                    span, wide = GradedSpan(g, (name, c)), GradedSpan(14, (name, c))
                    for i in range(1, g + 1):
                        for j in range(g - i + 1):
                            assert span.cell(i, j).rank == wide.cell(i, j).rank, (name, g, c, i, j)
                            assert span.generator_rank(i, j) == wide.generator_rank(i, j)
                            cells += 1
            assert cells == 2715, name

    def test_routed_family_has_no_generator_past_r(self):
        # the shared span of vdgk6's route key (4, 3) has generators at every
        # size, but the family at r = 2 has none of size 3
        extra = tuple(it for it in gen_family("vdgk6", 4, 6, 3).items if it.s == 3)
        sub, sup = RelationFamily("extra", 4, 5, 2, extra), gen_family("vdgk6", 4, 5, 2)
        assert GradedSpan.from_family(sup) is GradedSpan.from_family(gen_family("vdgk6", 4, 6, 3))
        assert not span_contains(sub, sup) and not span_contains_by_ranks(sub, sup)

    def test_quotient_dims_on_the_criterion_5_grid(self):
        # dim - ideal rank per side, against the reference cell builder; the
        # ideals agree, so the two quotients have one dimension
        for g in (3, 4, 5, 6):
            for r in (2, 3):
                for d in range(2 * r, 9):
                    fams = [gen_family(name, g, d, r) for name in self.FAMILIES]
                    ranks = [cells_by_shifted_rows(f, r, r * (g - 1)) for f in fams]
                    for a, b in ((0, 1), (1, 2), (0, 2)):
                        for c in compare_ideals(fams[a], fams[b]).cells:
                            expected = tuple(c.dim - ranks[k][(c.i, c.j)][0] for k in (a, b))
                            assert c.quotient_dims == expected, (g, d, r, a, b, c.i, c.j)
                            assert c.quotient_dims[0] == c.quotient_dims[1] >= 0

    def test_quotients_count_standard_monomials(self):
        # the standard-monomial conjecture (README), on every cell that
        # compare_ideals reports for the three pairs, g 2..9, r 1..4 and cut
        # c = d-r in 0..g: both quotients have the dimension of the size-i,
        # weight-j monomials whose parts are all <= min(c-i, g-1), none at i > c
        cells = 0
        for g in range(2, 10):
            for r in range(1, 5):
                for c in range(g + 1):
                    fams = [gen_family(name, g, r + c, r) for name in self.FAMILIES]
                    for a, b in ((0, 1), (1, 2), (0, 2)):
                        for x in compare_ideals(fams[a], fams[b]).cells:
                            cap = min(c - x.i, g - 1)
                            count = sum(max(m) <= cap for m in monomials_of_bidegree(g, x.i, x.j))
                            assert x.quotient_dims == (count, count), (g, r, c, a, b, x.i, x.j)
                            cells += 1
        assert cells == 14400

    def test_standard_monomials_fill_each_deficient_cell(self):
        # the complement half of the conjecture: in each routed span's cell
        # (i, j), 1 <= i <= r, for g 2..8, r 1..4 and cut c = d-r in 0..g,
        # the unit rows at the standard monomials (parts <= min(c-i, g-1))
        # each enlarge the cell's echelon and together fill it; a full cell
        # has none
        cells = deficient = 0
        for g in range(2, 9):
            for r in range(1, 5):
                for c in range(g + 1):
                    for name in self.FAMILIES:
                        span = GradedSpan.from_family(gen_family(name, g, r + c, r))
                        for i in range(1, r + 1):
                            for j in range(i * (g - 1) + 1):
                                basis = monomials_of_bidegree(g, i, j)
                                cap = min(c - i, g - 1)
                                standard = [col for col, m in enumerate(basis) if max(m) <= cap]
                                space, rank = span.cell(i, j)[:2]
                                cells += 1
                                where = (g, r, c, name, i, j)
                                if rank == len(basis):
                                    assert not standard, where
                                    continue
                                deficient += 1
                                assert space.rank == rank, where
                                filled = RowSpace(space.ncols, space.pivots.items())
                                for col in standard:
                                    unit = [0] * len(basis)
                                    unit[col] = 1
                                    assert filled.add(unit), where
                                assert filled.rank == len(basis), where
        assert (cells, deficient) == (13020, 3729)

    def test_ideals_nest_in_d_minus_r(self):
        # strong8's rows at cut d-r = c+1 are among its rows at cut c, so as
        # d-r grows by one no cell's ideal rank rises, for each family; the
        # ranks are read off comparisons with another family (a cell that
        # neither side reaches is left out, rank 0); herbaut7 is empty at
        # d = r-1, so its step from c = -1 is skipped
        falls = 0
        for g in range(1, 8):
            for r in range(1, 4):
                cells = [(i, j) for i in range(1, r + 1) for j in range(i * (g - 1) + 1)]
                previous = None
                for c in range(-1, g + 2):
                    f6, f7, f8 = (gen_family(name, g, r + c, r) for name in self.FAMILIES)
                    ranks = {name: {} for name in self.FAMILIES}
                    for a, b in ((f6, f7), (f7, f8)):
                        for x in compare_ideals(a, b).cells:
                            for f, rank in zip((a, b), x.ideal_ranks):
                                ranks[f.family_id][x.i, x.j] = rank
                    for name in self.FAMILIES if previous else ():
                        if name == "herbaut7" and c == 0:
                            continue
                        for cell in cells:
                            before, after = (rk[name].get(cell, 0) for rk in (previous, ranks))
                            assert after <= before, (g, r, c, cell, name)
                            falls += after < before
                    previous = ranks
        assert falls > 0

    def test_generators_at_the_next_cut_lie_in_strong8s_ideal(self):
        # the membership half of the nesting: each vdgk6, herbaut7 and
        # strong8 generator row at cut c+1 lies in strong8's ideal cell at
        # cut c, full or containing the row; reading the rows at cut c-1
        # instead puts 192 of 6919 outside
        rows = 0
        for g in range(1, 8):
            for c in range(g + 1):
                span = GradedSpan.from_family(gen_family("strong8", g, c + 1, 1))
                for s in range(1, 4):
                    for w in range(s * (g - 1) + 1):
                        space, rank = span.cell(s, w)[:2]
                        for name in self.FAMILIES:
                            for _, row in _generator_rows(name, g, s, w, c + 1 + s):
                                assert rank == space.ncols or space.contains(row), \
                                    (g, c, s, w, name)
                                rows += 1
        assert rows == 5117


class TestJointCells:
    """The three routed spans of one (g, d-r) read one elimination per cell,
    strong8's cell; a family falls back to its own cell only above a cell
    where its ideal differs from strong8's."""

    FAMILIES = ("vdgk6", "herbaut7", "strong8")

    @staticmethod
    def watch_fallbacks(monkeypatch):
        # a routed cell that is not strong8's cell object is a fallback
        fell = []
        build = GradedSpan._build

        def watched(span, i, j):
            cell = build(span, i, j)
            if span.top not in (None, span) and cell is not span.top.cell(i, j):
                fell.append((span.route, span.g, i, j))
            return cell

        monkeypatch.setattr(GradedSpan, "_build", watched)
        return fell

    def test_ideals_grid_reads_every_cell_off_the_joint(self, monkeypatch):
        # cold spans and tables: the three ideals agree with strong8's in
        # every cell, so no cell falls back
        _SPANS.clear()
        for cache in (_f_table, _suffix_ranks):
            cache.cache_clear()
        fell = self.watch_fallbacks(monkeypatch)
        for g in (5, 6, 7):
            for r in (2, 3, 4):
                for d in range(2 * r, 11):
                    fams = [gen_family(name, g, d, r) for name in self.FAMILIES]
                    for a in range(3):
                        for b in range(3):
                            if a != b:
                                assert compare_ideals(fams[a], fams[b]).ideal_equal
        assert fell == []

    def test_d_r_minus_one_falls_back_and_matches_unrouted_copies(self, monkeypatch):
        # at d = r-1 herbaut7 is empty at every s: its row is the u^(s-1)
        # coefficient of orderings(m) Q_m/(1+u), and Q_m has u-valuation s.
        # So its ideal differs from strong8's wherever that is not zero, and
        # those cells reduce herbaut7's own rows; every ordered pair must
        # still equal the comparison of its JSON copies
        _SPANS.clear()
        fell = self.watch_fallbacks(monkeypatch)
        for g in range(1, 8):
            for r in range(1, 5):
                routed = [gen_family(name, g, r - 1, r) for name in self.FAMILIES]
                plain = [family_from_json(family_to_json(f)) for f in routed]
                assert routed[1].items == (), (g, r)
                # k = -1 at s = 0 and the empty product is 1, but generators
                # have size s >= 1: no cell (0, 0) has one
                for f in routed + plain:
                    span = GradedSpan.from_family(f)
                    assert (span.cell(0, 0).rank, span.generator_rank(0, 0)) == (0, 0), \
                        (g, r, f.family_id)
                    assert span._generator_space(0, 0, 1).rank == 0
                for a in range(3):
                    for b in range(3):
                        if a != b:
                            assert compare_ideals(routed[a], routed[b]) == \
                                compare_ideals(plain[a], plain[b]), (g, r, a, b)
        assert fell
        assert all(route == ("herbaut7", -1) for route, *_ in fell)

    def test_vdgk6_herbaut7_alone_builds_no_suffix_echelon(self):
        # its span joint is the rank of the two rows, read off the joint cell
        _SPANS.clear()
        _suffix_ranks.cache_clear()
        f6, f7 = gen_family("vdgk6", 6, 8, 3), gen_family("herbaut7", 6, 8, 3)
        report = compare_ideals(f6, f7)
        assert _suffix_ranks.cache_info().currsize == 0
        assert report == compare_ideals(*(family_from_json(family_to_json(f)) for f in (f6, f7)))

    def test_routed_comparisons_reduce_no_generator_rows(self, monkeypatch):
        # cold spans and tables, every routed pair of the ideals grid: strong8's
        # generator rank is its suffix's rank and the others' ranks come off
        # the joint cells, so no generator space is built, and the suffix
        # ranks are tuples of ints, no rows
        _SPANS.clear()
        for cache in (_f_table, _suffix_ranks):
            cache.cache_clear()
        calls = []
        generator_space = GradedSpan._generator_space

        def watched(span, i, j, dim):
            calls.append((span.route, i, j))
            return generator_space(span, i, j, dim)

        monkeypatch.setattr(GradedSpan, "_generator_space", watched)
        for g in (5, 6, 7):
            for r in (2, 3, 4):
                for d in range(2 * r, 11):
                    fams = [gen_family(name, g, d, r) for name in self.FAMILIES]
                    for a in range(3):
                        for b in range(3):
                            if a != b:
                                compare_ideals(fams[a], fams[b])
        assert calls == []
        assert _suffix_ranks.cache_info().currsize
        for g in (5, 6, 7):
            for s in range(1, 5):
                for w in range(s * (g - 1) + 1):
                    ranks = _suffix_ranks(g, s, w)
                    assert type(ranks) is tuple and all(type(n) is int for n in ranks)
                    assert len(ranks) == w // 2 + 2 and ranks[-1] == 0

    def test_joint_cells_are_the_routed_cells(self):
        # a routed vdgk6 or herbaut7 cell is strong8's cell object exactly
        # where its piece is strong8's: everywhere at (5, 7, 3), and at
        # (5, 2, 3), d = r-1, all but some of herbaut7's
        _SPANS.clear()
        shared = 0
        for g, d, r in ((5, 7, 3), (5, 2, 3)):
            fams = [gen_family(name, g, d, r) for name in self.FAMILIES]
            for a in range(3):
                compare_ideals(fams[a], fams[(a + 1) % 3])
            top = _SPANS[("strong8", g, d - r)]
            assert fams[2]._span is top
            for f in fams[:2]:
                for key, cell in f._span.cells.items():
                    agrees = top.cells[key].routed[f.family_id][1] == top.cells[key].rank
                    assert (cell is top.cells[key]) == agrees, (g, d, r, f.family_id, key)
                    shared += agrees
            own = {f.family_id for f in fams for key, cell in f._span.cells.items()
                   if cell is not top.cells[key]}
            assert own == (set() if d >= r else {"herbaut7"}), (g, d, r)
        assert shared


class TestHalfDegreeTable:
    """The half-degree table F of a cell: pi_n's closed form, every
    family's rows off F against the full-degree cell table of the products
    Q_m, strong8's span as a suffix of F, and one table per stable key."""

    def test_pi_closed_form_matches_every_p_route(self):
        for n in range(2, 41):
            pi = _pi_coefficients(n)
            assert len(pi) == n // 2 and all(c > 0 for c in pi), n
            # v (1+2u)^(n mod 2) pi_n(v) in u, with v^(j+1) = u^(j+1) (1+u)^(j+1)
            expanded = [0] * (n + 1)
            for j, c in enumerate(pi):
                for e in range(j + 2):
                    expanded[j + 1 + e] += c * comb(j + 1, e)
            if n % 2:
                expanded = [x + 2 * (expanded[e - 1] if e else 0) for e, x in enumerate(expanded)]
            assert tuple(expanded) == p_poly(n).coeffs, n
            for route in ("stirling", "genfunc", "laurent"):
                assert list(p_poly(n, route).coeffs) == expanded, (n, route)

    def test_pi_closed_form_is_checked(self, monkeypatch):
        # P_4 + 7 v^2 is integral, vanishes at u = 0 and u = -1 and is even
        # under u -> -1-u, so P_n's own checks pass it; pi_4's closed form
        # does not reproduce it, and the span route refuses the table
        from jacrel import relations
        from jacrel.rings import DensePoly
        real = relations.p_poly
        monkeypatch.setattr(relations, "p_poly",
                            lambda n: real(n) + DensePoly([0, 0, 7, 14, 7]) if n == 4 else real(n))
        caches = (_pi_coefficients, _f_table, _suffix_ranks)

        def cold():
            _SPANS.clear()
            for cache in caches:
                cache.cache_clear()

        cold()
        try:
            with pytest.raises(InvariantViolation, match="pi_4's closed form"):
                compare_ideals(gen_family("vdgk6", 3, 4, 2), gen_family("strong8", 3, 4, 2))
        finally:
            cold()

    def test_rows_match_the_cell_tables(self):
        # every family's rows, read off F, are rows of the full-degree cell
        # table A[e] = (orderings(m) [u^e] Q_m)_m that the reference
        # multiplies out term by term: strong8's are A[e], e > k, vdgk6's
        # A[2s+w] = 2^eps F[D], herbaut7's the alternating tail
        # sum_{e>k} (-1)^(e-k-1) A[e] = orderings(m) [u^k] Q_m/(1+u); and
        # strong8's rows span F's suffix from i0, for every k with a
        # generator, and for k = -1 (every row) and k = 2s+w (none)
        rows = suffixes = 0
        for g in range(1, 8):
            for s in range(1, 5):
                for w in range(s * (g - 1) + 1):
                    table, dim = _f_table(g, s, w), len(monomials_of_bidegree(g, s, w))
                    assert len(table) == w // 2 + 1 and all(len(row) == dim for row in table)
                    cell, top = cell_rows_by_products(g, s, w), 2 * s + w
                    assert cell[top] == [2 ** (w % 2) * x for x in table[-1]], (g, s, w)
                    for k in range(-1, top + 1):
                        tail = [sum((-1) ** (e - k - 1) * cell[e][c]
                                    for e in range(k + 1, top + 1)) for c in range(dim)]
                        expected = {"vdgk6": [(None, cell[top])], "herbaut7": [(None, tail)],
                                    "strong8": [(e, cell[e]) for e in range(k + 1, top + 1)]}
                        for name, want in expected.items():
                            got = list(_generator_rows(name, g, s, w, k))
                            assert got == (want if k < top else []), (name, g, s, w, k)
                            rows += len(got)
                        strong8 = RowSpace(dim)
                        for _, row in expected["strong8"]:
                            strong8.add(row)
                        suffix = table[_suffix_start(s, w, k):]
                        assert strong8.rank == rank(suffix, dim), (g, s, w, k)
                        assert _suffix_ranks(g, s, w)[_suffix_start(s, w, k)] == strong8.rank
                        assert all(strong8.contains(row) for row in suffix), (g, s, w, k)
                        suffixes += 1
        assert (rows, suffixes) == (33159, 3346)

    def test_items_after_comparisons_build_no_table(self):
        # a comparison of the three routed families builds the tables F of
        # every cell with a generator; the items read those tables
        # afterwards and build none, since items and spans read one table
        # per cell
        _SPANS.clear()
        _f_table.cache_clear()
        _suffix_ranks.cache_clear()
        fams = [gen_family(name, 6, 8, 3) for name in ("vdgk6", "herbaut7", "strong8")]
        for a in range(3):
            assert compare_ideals(fams[a], fams[(a + 1) % 3]).ideal_equal
        before = _f_table.cache_info()
        assert before.misses
        for f in fams:
            assert f.items
        after = _f_table.cache_info()
        assert after.misses == before.misses and after.hits > before.hits

    def test_table_is_keyed_by_the_stable_range(self):
        # for g >= w+1 the monomials of (s, w) do not depend on g, so every
        # such g reads the table and the suffix ranks of g = w+1
        for s, w in ((1, 0), (2, 3), (3, 5), (4, 6)):
            table, ranks = _f_table(w + 1, s, w), _suffix_ranks(w + 1, s, w)
            for g in range(w + 2, w + 6):
                assert monomials_of_bidegree(g, s, w) == monomials_of_bidegree(w + 1, s, w)
                assert _f_table(g, s, w) is table and _suffix_ranks(g, s, w) is ranks
            if w:
                assert len(_f_table(w, s, w)[0]) < len(table[0])


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
        with pytest.raises(ValueError, match="g must be >= 1"):
            epsilon_series(0, 4)


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
        # check (a) is the power law of the cached L^-n (h_a = g_a + e_a is
        # _e_part's definition): a perturbed L^-4 or L^-8 must flip it alone;
        # L^-8 = L^-r(g+1), the largest power a G_S uses, lies beyond the
        # generators (n <= g+1)
        import jacrel.relations as rel
        from jacrel.rings import LaurentSeries
        g, d, r, x_order = 3, 5, 2, 10  # the chain's window 2(g+2)

        def perturbed(real, at):
            bump = LaurentSeries(0, (F(1),), x_order)
            return lambda n, order: real(n, order) + bump if n == at else real(n, order)

        def report():
            cold_chain()
            result = verify_implication_chain(g, d, r)
            assert result.x_order == x_order
            return result

        try:
            assert report().identity9_ok
            for name, at in (("_bare_log_inv_pow", 4), ("_bare_log_inv_pow", 8)):
                with monkeypatch.context() as patch:
                    patch.setattr(rel, name, perturbed(getattr(rel, name), at))
                    corrupted = report()
                    assert not corrupted.identity9_ok, (name, at)
                    assert corrupted.degree_bound_ok and corrupted.scalar_ok, (name, at)
        finally:
            cold_chain()  # nothing built from a corrupted power outlives the test
        assert report().identity9_ok

    def test_power_law_certifies_the_ladder(self, monkeypatch):
        # the table steps from (x/L)^n to (x/L)^(n+1) by
        # n v_k' = (n-k) v_k + (n-k+1) v_(k-1), which is
        # L^-(n+1) = -(1+x) (L^-n)' / n; check (a) multiplies L^-n by L: a
        # step without the (1+x) factor, the v_(k-1) term, or one dividing
        # by n+1, must flip identity9_ok
        import jacrel.combinat as combinat
        real = combinat._row_step

        def without_one_plus_x(row, den, n, start):
            return [(n - k) * row[k] for k in range(start, len(row))], den * n

        def over_n_plus_one(row, den, n, start):
            return real(row, den, n, start)[0], den * (n + 1)

        def report():
            cold_chain()
            return verify_implication_chain(3, 5, 2)

        try:
            assert report().ok
            for step in (without_one_plus_x, over_n_plus_one):
                with monkeypatch.context() as patch:
                    patch.setattr(combinat, "_row_step", step)
                    corrupted = report()
                    assert not corrupted.identity9_ok and not corrupted.ok, step.__name__
        finally:
            assert report().ok

    def test_cold_chain_grows_the_table_once(self, monkeypatch):
        # check (a) reads the tallest power first, so a cold table grows once
        # to the window's full height and width; ascending requests grew it
        # 104 times at (12, 16, 8), each growth rescaling every kept row
        import jacrel.combinat as combinat
        grown, growths = combinat._grown, []
        monkeypatch.setattr(combinat, "_grown",
                            lambda *args: growths.append(args[1:]) or grown(*args))
        cold_chain()
        assert verify_implication_chain(12, 16, 8).ok
        assert len(growths) <= 1, growths

    def test_cold_call_makes_one_product_per_power(self, monkeypatch):
        # with cold caches, check (a) multiplies each L^-n, n <= r(g+1),
        # tallest first, by L at the call's window 2(g+2) rounded up to a
        # multiple of 8, once
        import jacrel.relations as rel
        real = rel.log1p_series
        for (g, d, r), window in (((3, 5, 2), 16), ((6, 6, 3), 16), ((12, 16, 8), 32)):
            cold_chain()
            orders = []
            with monkeypatch.context() as patch:
                patch.setattr(rel, "log1p_series",
                              lambda order: orders.append(order) or real(order))
                assert verify_implication_chain(g, d, r).identity9_ok, (g, d, r)
            assert orders == [window + n for n in range(r * (g + 1), 0, -1)], (g, d, r)
            assert rel._power_law_ok.cache_info().currsize == r * (g + 1), (g, d, r)

    def test_products_do_not_depend_on_the_order_of_calls(self, monkeypatch):
        # every window of the criterion-6b grid (10-16) rounds up to 16, so
        # each power n <= 21 is certified once, at 16, in any order of the
        # calls: a benchmark pass makes the same products whatever its seed
        import random
        import jacrel.relations as rel
        grid = [(g, d, r) for g in (3, 4, 5, 6) for r in (2, 3) for d in range(2 * r, 9)]
        real = rel.log1p_series
        for seed in range(1, 11):
            random.Random(seed).shuffle(grid)
            cold_chain()
            orders = []
            with monkeypatch.context() as patch:
                patch.setattr(rel, "log1p_series",
                              lambda order: orders.append(order) or real(order))
                assert all(verify_implication_chain(*case).identity9_ok for case in grid)
            assert sorted(orders) == [16 + n for n in range(1, 22)], seed

    def test_widest_window_certifies_every_narrower_one(self, monkeypatch):
        # a window of L^-n cuts one row of the table, so (6, 6, 3), which
        # certifies n <= 21 at window 16, covers every other criterion-6b
        # case with g <= 5, whose windows 10-14 round up to 16 (n <= 18):
        # none calls log1p_series, check (a)'s only series
        import jacrel.relations as rel
        cold_chain()
        assert verify_implication_chain(6, 6, 3).identity9_ok
        assert rel._power_law_ok.cache_info().currsize == 21
        real, orders = rel.log1p_series, []
        monkeypatch.setattr(rel, "log1p_series", lambda order: orders.append(order) or real(order))
        for case in [(g, d, r) for g in (3, 4, 5) for r in (2, 3) for d in range(2 * r, 9)]:
            assert verify_implication_chain(*case).identity9_ok, case
        assert orders == []
        assert rel._power_law_ok.cache_info().currsize == 21

    def test_chain_memos_are_bounded_lru_caches(self):
        # check (a)'s law and check (c)'s scalar are plain lru_caches of the
        # chain's bound; a cold criterion-6b pass certifies the 21 powers
        # n <= 21 at window 16, one entry each
        import jacrel.relations as rel
        for memo in (rel._power_law_ok, rel._extraction_scalar):
            assert memo.cache_info().maxsize == rel._CACHE_SIZE, memo
        cold_chain()
        for case in [(g, d, r) for g in (3, 4, 5, 6) for r in (2, 3) for d in range(2 * r, 9)]:
            assert verify_implication_chain(*case).ok, case
        assert rel._power_law_ok.cache_info().currsize == 21

    def test_narrow_window_does_not_read_a_wide_failure(self, monkeypatch):
        # L^-7 perturbed at x^12, which window 16 (g = 6) holds and window 10
        # (g = 3) lacks, flips identity9_ok at g = 6 alone, whichever call
        # runs first: g = 3's check at 16, its window rounded up, fails and
        # its own window 10 is checked; each window keeps its own verdict.
        # n = 7 tops (6, 6, 1), so its own law is the only one that fails there
        import jacrel.relations as rel
        from jacrel.rings import LaurentSeries
        real = rel._bare_log_inv_pow

        def perturbed(n, order):
            power = real(n, order)
            return power + LaurentSeries(12, (F(1),), order) if n == 7 and order > 12 else power

        try:
            for cases in (((6, 6, 1), (3, 5, 2)), ((3, 5, 2), (6, 6, 1))):
                cold_chain()  # e_5 reads L^-7 at g = 6
                with monkeypatch.context() as patch:
                    patch.setattr(rel, "_bare_log_inv_pow", perturbed)
                    reports = {case[0]: verify_implication_chain(*case) for case in cases}
                    assert rel._power_law_ok(7, 10) and not rel._power_law_ok(7, 16), cases
                assert not reports[6].identity9_ok and not reports[6].ok, cases
                assert reports[6].degree_bound_ok and reports[6].scalar_ok, cases
                assert reports[3].ok, cases
        finally:
            cold_chain()

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
        # check (b) rests on val(e_a) >= 0: an x^-1 term in e_0 must flip it alone
        import jacrel.relations as rel
        from jacrel.rings import LaurentSeries
        g, d, r, x_order = 3, 5, 2, 10
        real = rel._e_part
        bump = LaurentSeries(-1, (F(1),), x_order)
        assert verify_implication_chain(g, d, r).ok
        with monkeypatch.context() as patch:
            patch.setattr(rel, "_e_part", lambda n, order: real(n, order) + bump
                          if n == 2 else real(n, order))
            report = verify_implication_chain(g, d, r)
            assert not report.degree_bound_ok
            assert not report.ok
            assert report.identity9_ok and report.scalar_ok
        report = verify_implication_chain(g, d, r)
        assert report.degree_bound_ok and report.ok

    def test_scalar_comparison_is_not_vacuous(self, monkeypatch):
        # check (c) compares each extraction scalar with (m!/(n-1)!) S(n-1, m):
        # S(6, 5) one too large (n = 7, m = 5 at s = 2) must flip it alone
        import jacrel.relations as rel
        g, d, r = 3, 5, 2
        real = rel.stirling2
        with monkeypatch.context() as patch:
            patch.setattr(rel, "stirling2",
                          lambda n, k: real(n, k) + 1 if (n, k) == (6, 5) else real(n, k))
            report = verify_implication_chain(g, d, r)
            assert not report.scalar_ok and not report.ok
            assert report.identity9_ok and report.degree_bound_ok
        assert verify_implication_chain(g, d, r).ok

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
                                      _extraction_scalar, _power_law_ok)
        caches = (_bare_log_inv_pow, _e_part, _power_law_ok, _extraction_scalar)

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
                    cold_chain()
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

    def test_warm_grid_forms_no_series(self, monkeypatch):
        # each extraction scalar is kept per (n, m), so a second pass over
        # the criterion-6b grid builds no series and forms no product; one
        # that rebuilt x/(1+x) per call made 304 products and 32 series
        from jacrel.rings import LaurentSeries
        cases = [(g, d, r) for g in (3, 4, 5, 6) for r in (2, 3) for d in range(2 * r, 9)]
        for case in cases:
            verify_implication_chain(*case)
        calls = dict.fromkeys(("_fill", "__mul__", "_merge"), 0)

        def counting(name):
            real = getattr(LaurentSeries, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(LaurentSeries, name, counting(name))
        for case in cases:
            assert verify_implication_chain(*case).ok, case
        assert calls == dict.fromkeys(calls, 0)

    def test_extraction_scalars_do_not_depend_on_the_window(self):
        # the scalar memo is keyed by (n, m) alone: [x^-m] x/(1+x) L^-n
        # reads only L^-n's principal part, so the full product read at the
        # windows 1, 2(g+2) and 2(g+2)+8 gives every reported value
        from jacrel.relations import _bare_log_inv_pow
        from jacrel.rings import LaurentSeries
        cases = [(g, d, r) for g in (3, 4, 5, 6) for r in (2, 3) for d in range(2 * r, 9)]
        checks = 0
        for g, d, r in cases:
            for check in verify_implication_chain(g, d, r).scalar_checks:
                n, m = check.n, check.m
                geom = LaurentSeries(1, [(-1) ** i for i in range(n + 1)], n + 2)
                for window in (1, 2 * (g + 2), 2 * (g + 2) + 8):
                    assert (geom * _bare_log_inv_pow(n, window)).coeff(-m) == check.value, \
                        (g, d, r, n, m, window)
                checks += 1
        assert checks == 304


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

    def test_json_coefficient_with_zero_denominator_rejected(self):
        # "1/0" is a malformed coefficient like "abc": ValueError, not ZeroDivisionError
        for coeff in ("1/0", "abc"):
            payload = {"family": "vdgk6", "g": 3, "d": 4, "r": 2, "items": [
                {"s": 1, "t_exp": 2, "element": [{"monomial": [0], "coeff": coeff}]}]}
            with pytest.raises(ValueError):
                family_from_jsonable(payload)
