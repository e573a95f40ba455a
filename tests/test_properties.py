"""Randomized algebraic invariants.

Each value type gets at least a thousand randomized ring-axiom cases; the
seeds are fixed so failures replay deterministically.  Series comparisons use
truncation-aware agreement (operand order can legitimately change how much of
the result is provably known, never its value on the shared window).
"""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from jacrel.relations import family_from_json, family_to_json, gen_family
from jacrel.rings import (QQ, DensePoly, LaurentSeries, TruncationError, laurent_pow_inv,
                          min_trunc, series_exp)
from jacrel.tautalg import TautElement, mono_bidegree
from oracles import (QQ_RING, GenericSeries, generic_series_exp, pow_inv_by_products,
                     power, rand_fraction, rand_homogeneous_taut, rand_laurent, rand_poly,
                     rand_taut)

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
        assert a * DensePoly.one(QQ) == a


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
        s = LaurentSeries(QQ, val, coeffs, trunc)
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
    return (LaurentSeries(QQ, val, coeffs, trunc),
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
    rebuilt = LaurentSeries(QQ, series.valuation, list(series.coeffs), series.trunc)
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
        bump = LaurentSeries.monomial(QQ, e, F(1, 3))
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
        doubled = LaurentSeries(QQ, a.valuation, [c * 2 for c in a.coeffs], a.trunc)
        padded = LaurentSeries(QQ, a.valuation - 1, [0, *a.coeffs, 0], a.trunc)
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
