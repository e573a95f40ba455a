"""Randomized algebraic invariants.

Each value type gets at least a thousand randomized ring-axiom cases; the
seeds are fixed so failures replay deterministically.  Series comparisons use
truncation-aware agreement (operand order can legitimately change how much of
the result is provably known, never its value on the shared window).
"""

import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import gcd

import pytest

from jacrel.grr import GrrContext, GrrElement
from jacrel.relations import family_from_json, family_to_json, gen_family
from jacrel.rings import (DensePoly, LaurentSeries, TruncationError, laurent_pow_inv,
                          min_trunc, series_exp)
from jacrel.tautalg import TautElement, mono_bidegree
from oracles import (QQ_RING, GenericSeries, generic_series_exp, pow_inv_by_products,
                     power, product_coeff, product_window, rand_fraction, rand_grr,
                     rand_homogeneous_taut, rand_laurent, rand_poly, rand_taut)

CASES = 1000


def test_rational_ring_axioms():
    rng = random.Random(1001)
    for _ in range(CASES):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0


def test_dense_poly_ring_axioms():
    rng = random.Random(1002)
    for _ in range(CASES):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + (-a)).is_zero
        assert a * DensePoly.one() == a


def test_laurent_series_ring_axioms():
    rng = random.Random(1003)
    for _ in range(CASES):
        a, b, c = (rand_laurent(rng) for _ in range(3))
        assert ((a + b) + c).agrees_with(a + (b + c))
        assert (a + b).agrees_with(b + a)
        assert ((a * b) * c).agrees_with(a * (b * c))
        assert (a * b).agrees_with(b * a)
        assert (a * (b + c)).agrees_with(a * b + a * c)
        assert (a + (-a)).is_zero


def test_taut_element_ring_axioms():
    rng = random.Random(1004)
    for _ in range(CASES):
        g = rng.randint(1, 5)
        a, b, c = (rand_taut(rng, g) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + (-a)).is_zero
        assert a * TautElement.one(g) == a
        assert TautElement(g + 1, a.terms) != a
    _assert_immutable_and_not_mixed(a, "g", GrrElement.one(GrrContext(g, 1, 1)))


def test_grr_element_ring_axioms():
    rng = random.Random(1007)
    for _ in range(CASES):
        ctx = GrrContext(rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 2))
        a, b, c = (rand_grr(rng, ctx) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + (-a)).is_zero
        assert a * GrrElement.one(ctx) == a
        assert all(e[ctx.xi_index] <= ctx.r for e in (a * b).terms)
        assert all(type(c) is int or c.denominator > 1 for c in (a * b).terms.values())
        as_fractions = GrrElement(ctx, {e: F(c) for e, c in a.terms.items()})
        assert as_fractions == a and hash(as_fractions) == hash(a)
        assert GrrElement(GrrContext(ctx.g, ctx.d + 1, ctx.r), a.terms) != a
    _assert_immutable_and_not_mixed(a, "ctx", TautElement.one(1))


def _assert_immutable_and_not_mixed(elt, ambient, foreign):
    name = type(elt).__name__
    for attr in (ambient, "terms", "extra"):
        with pytest.raises(AttributeError, match=name):
            setattr(elt, attr, None)
    for x, y in ((elt, foreign), (foreign, elt)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y
        with pytest.raises(TypeError):
            x * y


def test_grading_additivity():
    rng = random.Random(1005)
    for _ in range(400):
        g = rng.randint(2, 5)
        s1, s2 = rng.randint(1, 2), rng.randint(1, 2)
        w1 = rng.randint(0, s1 * (g - 1))
        w2 = rng.randint(0, s2 * (g - 1))
        x = rand_homogeneous_taut(rng, g, s1, w1)
        y = rand_homogeneous_taut(rng, g, s2, w2)
        prod = x * y
        if prod.is_zero:
            continue
        assert prod.bidegree() == (s1 + s2, w1 + w2)


def test_monomial_product_canonical():
    rng = random.Random(1006)
    for _ in range(400):
        g = rng.randint(1, 5)
        x, y = rand_taut(rng, g), rand_taut(rng, g)
        prod = x * y
        assert prod == y * x
        for mono in prod.terms:
            assert tuple(sorted(mono, reverse=True)) == mono
            assert mono_bidegree(mono) == (len(mono), sum(mono))


def test_truncation_soundness():
    # computing a product at order T and truncating to T' < T equals
    # computing directly with inputs truncated to T'
    rng = random.Random(1007)
    for _ in range(400):
        a = rand_laurent(rng, min_val=0)
        b = rand_laurent(rng, min_val=0)
        full = a * b
        if full.trunc is None or full.trunc < 1:
            continue
        target = rng.randint(max(full.valuation, 0), full.trunc)
        direct = a.truncate(min(a.trunc, target)) * b.truncate(min(b.trunc, target))
        assert full.truncate(target).agrees_with(direct)


def test_pow_inv_inverse_property_random():
    rng = random.Random(1008)
    for _ in range(200):
        val = rng.randint(0, 2)
        coeffs = [F(rng.choice([1, 2, 3, -1, -2]))] + \
                 [rand_fraction(rng) for _ in range(rng.randint(0, 3))]
        trunc = val + len(coeffs) + rng.randint(1, 3)
        s = LaurentSeries(val, coeffs, trunc)
        n = rng.randint(1, 3)
        order = trunc - val - n * val
        if order < 1:
            continue
        inv = laurent_pow_inv(s, n, order)
        prod = inv * power(s, n)
        assert prod.coeff(0) == 1
        for e in range(prod.valuation, prod.trunc if prod.trunc is not None else 1):
            if e != 0:
                assert prod.coeff(e) == 0


def _rand_pair(rng, min_val=-3, exact_share=0.2):
    """The same random series over Q as a LaurentSeries and as the generic
    reference, with zeros at the ends of the window now and then and a
    truncation order that may cut it."""
    val = rng.randint(min_val, 3)
    coeffs = [rand_fraction(rng) for _ in range(rng.randint(0, 5))]
    if coeffs and rng.random() < 0.3:
        coeffs = [F(0)] + coeffs + [F(0)]
    trunc = None if rng.random() < exact_share else val + len(coeffs) + rng.randint(-2, 3)
    return (LaurentSeries(val, coeffs, trunc),
            GenericSeries(QQ_RING, val, coeffs, trunc))


def _assert_same(series, reference):
    assert series.valuation == reference.valuation
    assert series.trunc == reference.trunc
    assert series.coeffs == reference.coeffs
    assert all(type(c) is F for c in series.coeffs)
    _assert_canonical(series)


def _assert_canonical(series):
    """Stored as the constructor stores the same coefficients: a positive
    denominator coprime to the numerators, no zero at either end."""
    rebuilt = LaurentSeries(series.valuation, list(series.coeffs), series.trunc)
    assert series == rebuilt and hash(series) == hash(rebuilt)
    assert series.den > 0 and gcd(series.den, *series.nums) == 1
    assert not series.nums or (series.nums[0] and series.nums[-1])


def test_laurent_series_matches_generic_reference():
    rng = random.Random(1010)
    for _ in range(CASES):
        (a, ga), (b, gb) = _rand_pair(rng), _rand_pair(rng)
        _assert_same(a + b, ga + gb)
        _assert_same(a - b, ga - gb)
        _assert_same(-a, -ga)
        _assert_same(a * b, ga * gb)
        scalar = rng.choice([rand_fraction(rng), rng.randint(-5, 5)])
        _assert_same(a * scalar, ga * scalar)
        _assert_same(scalar * a, scalar * ga)
        if a.trunc is not None:
            order = rng.randint(a.trunc - 4, a.trunc)
            _assert_same(a.truncate(order), ga.truncate(order))
            assert a.agrees_with(a.truncate(order))
        assert a.agrees_with(b) == ga.agrees_with(gb)
        # a bump inside the window disagrees, one at or beyond trunc does not
        e = rng.randint(a.valuation - 1, a.valuation + 6)
        bump = LaurentSeries.monomial(e, F(1, 3))
        gbump = GenericSeries.monomial(QQ_RING, e, F(1, 3))
        assert (a + bump).agrees_with(a) == (ga + gbump).agrees_with(ga)
        top = a.valuation + len(a.coeffs) + 2 if a.trunc is None else a.trunc + 2
        for e in range(a.valuation - 2, top):
            if a.trunc is not None and e >= a.trunc:
                with pytest.raises(TruncationError):
                    a.coeff(e)
                with pytest.raises(TruncationError):
                    ga.coeff(e)
            else:
                assert a.coeff(e) == ga.coeff(e) and type(a.coeff(e)) is F


def test_product_coeff_reads_the_product():
    # the reference heads' dot product gives the same value as forming the
    # product and reading it, at every exponent the product knows
    rng = random.Random(1012)
    for _ in range(CASES):
        (a, _), (b, _) = _rand_pair(rng), _rand_pair(rng)
        prod = a * b
        lo = a.valuation + b.valuation
        top = lo + len(a.nums) + len(b.nums) + 2 if prod.trunc is None else prod.trunc
        for e in range(lo - 2, top):
            value = product_coeff(a, b, e)
            assert value == prod.coeff(e) and type(value) is F


def test_product_head_reads_the_factors():
    # the head of a product off its factors, as the reference head tables read
    # it: the window is their own truncation rule, and nonzero factors give
    # the summed valuation and the product of the leading coefficients
    rng = random.Random(1013)
    one = LaurentSeries.monomial(0)
    for _ in range(CASES):
        (a, _), (b, _) = _rand_pair(rng), _rand_pair(rng)
        if rng.random() < 0.1:
            a = one
        if rng.random() < 0.1:
            b = LaurentSeries.zero(rng.randint(-3, 6))
        if (a.is_zero and a.trunc is None) or (b.is_zero and b.trunc is None):
            assert a * b == LaurentSeries.zero()
            continue
        p = a * b
        assert p.trunc == product_window(a, b)
        if a.is_zero or b.is_zero:
            assert p.is_zero
            continue
        v = a.valuation + b.valuation
        assert p.valuation == v
        lead = a.coeff(a.valuation) * b.coeff(b.valuation)
        assert lead and p.coeff(v) == lead == product_coeff(a, b, v)


def test_laurent_series_canonical_form():
    rng = random.Random(1011)
    for _ in range(CASES):
        (a, _), (b, _) = _rand_pair(rng), _rand_pair(rng)
        assert a * b == b * a and hash(a * b) == hash(b * a)
        cut = min_trunc(a.trunc, b.trunc)
        back = (a + b) - b
        expected = a if cut is None else a.truncate(cut)
        assert back == expected and hash(back) == hash(expected)
        # the same series from doubled numerators halved, and from a window
        # padded with zeros
        doubled = LaurentSeries(a.valuation, [c * 2 for c in a.coeffs], a.trunc)
        padded = LaurentSeries(a.valuation - 1, [0, *a.coeffs, 0], a.trunc)
        for other in (doubled * F(1, 2), padded):
            assert other == a and hash(other) == hash(a)


def test_pow_inv_and_exp_match_generic_reference():
    rng = random.Random(1012)
    for _ in range(CASES // 2):
        (s, gs) = _rand_pair(rng, min_val=-2)
        if s.is_zero:
            continue
        n, order = rng.randint(1, 3), rng.randint(-2, 6)
        try:
            expected = pow_inv_by_products(gs, n, order)
        except TruncationError:
            with pytest.raises(TruncationError):
                laurent_pow_inv(s, n, order)
        else:
            _assert_same(laurent_pow_inv(s, n, order), expected)
        (t, gt) = _rand_pair(rng, min_val=1)
        if t.trunc is not None and t.trunc <= 0:
            continue
        order = rng.randint(1, 8)
        _assert_same(series_exp(t, order), generic_series_exp(gt, order))


def test_json_round_trip_byte_equality_random_params():
    rng = random.Random(1009)
    for _ in range(20):
        g = rng.randint(2, 5)
        r = rng.randint(1, 3)
        d = rng.randint(max(1, r), 8)
        fid = rng.choice(("vdgk6", "herbaut7", "strong8"))
        fam = gen_family(fid, g, d, r)
        text = family_to_json(fam)
        assert family_to_json(family_from_json(text)) == text


def test_position_sets_count_as_binomials():
    # the position sets S of m = (a_1..a_s) that choose the sub-multiset T
    # of its weights number prod_a C(m_a, T_a): the count the distributive
    # law for prod (g_{a_i} + e_{a_i}) groups its terms by
    rng = random.Random(1014)
    for _ in range(200):
        mono = tuple(sorted((rng.randint(0, 4) for _ in range(rng.randint(0, 7))),
                            reverse=True))
        weights = Counter(mono)
        for size in range(len(mono) + 1):
            for chosen, count in Counter(combinations(mono, size)).items():
                assert count == math.prod(math.comb(weights[a], chosen.count(a))
                                          for a in set(chosen)), (mono, chosen)
