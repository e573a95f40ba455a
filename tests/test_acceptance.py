"""Acceptance gate: every criterion at its stated tolerance.

All arithmetic is exact, so every comparison below is exact equality; the
stated runtime budgets are asserted as well.  Each criterion prints one
pass/fail line (visible with ``pytest -s`` or on failure).

Criterion 6 is split in two: the implication-chain scalar checks pass, while
the literal O(x t^2) bound on eps(x,t) is recorded as unattainable.  The
constant term of (n-1)!/log(1+x)^n is the Bernoulli value B_n/n, nonzero for
every even n, so eps carries nonzero x^0 t^n terms (-B_n/n times a generator)
for n = 2, 4, ...; only the weaker bound (no negative x-powers, t >= 2) is
mathematically true, and it is certified here.  The stronger claim is
asserted anyway, faithfully, and fails.
"""

import random
import time
from fractions import Fraction as F
from math import factorial

from jacrel.combinat import (b_gen, b_sum, inv_log1p_pow, p_poly,
                             verify_identity4)
from jacrel.grr import derive_theorem1, gamma_extract, gamma_top_reference
from jacrel.relations import (compare_ideals, epsilon_series, family_from_json,
                              family_to_json, gen_family, gen_theorem1,
                              verify_implication_chain)
from jacrel.rings import DensePoly
from jacrel.tautalg import TautElement
from oracles import rand_fraction, rand_homogeneous_taut, rand_laurent, rand_poly


def _report(num: str, description: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {description} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_p_table():
    start = time.perf_counter()
    table = {1: [0, 1], 2: [0, 1, 1], 3: [0, 1, 3, 2],
             4: [0, 1, 7, 12, 6], 5: [0, 1, 15, 50, 60, 24]}
    ok = all(p_poly(n) == DensePoly([F(c) for c in coeffs])
             for n, coeffs in table.items())
    _report("1", "P_n table for n=1..5 matches the known closed forms",
            ok, time.perf_counter() - start, 1.0)


def test_criterion_02_laurent_expansion():
    start = time.perf_counter()
    series = inv_log1p_pow(5, 6)
    expected = [F(24), F(60), F(50), F(15), F(1), F(0), F(-1, 252), F(1, 504),
                F(-19, 30240), F(-1, 20160), F(53, 147840)]
    ok = [series.coeff(e) for e in range(-5, 6)] == expected
    _report("2", "eleven reference coefficients of 4!/log(1+x)^5 around x^0",
            ok, time.perf_counter() - start, 1.0)


def test_criterion_03_routes_identity_vanishing():
    start = time.perf_counter()
    routes_ok = all(p_poly(n, "stirling") == p_poly(n, "genfunc")
                    == p_poly(n, "laurent") for n in range(1, 13))
    identity_ok = all(verify_identity4(n, 10).ok for n in range(1, 11))
    minus_one_ok = all(p_poly(n).evaluate(F(-1)) == 0 for n in range(2, 13))
    _report("3", "three-route agreement n<=12, principal-part identity n<=10, "
            "vanishing at u=-1",
            routes_ok and identity_ok and minus_one_ok,
            time.perf_counter() - start, 10.0)


def test_criterion_04_b_grid():
    start = time.perf_counter()
    ok = True
    for d in range(0, 9):
        for r in range(1, 4):
            for a in _exponent_tuples(r, 4):
                if b_sum(d, a) != b_gen(d, a):
                    ok = False
    _report("4", "b_sum = b_gen exhaustively for d<=8, r<=3, a_i<=4",
            ok, time.perf_counter() - start, 30.0)


def _exponent_tuples(r, bound):
    if r == 0:
        yield ()
        return
    for head in range(bound + 1):
        for rest in _exponent_tuples(r - 1, bound):
            yield (head,) + rest


def test_criterion_05_equivalence_grid():
    start = time.perf_counter()
    ok = True
    for g in (3, 4, 5, 6):
        for r in (2, 3):
            for d in range(2 * r, 9):
                f6 = gen_family("vdgk6", g, d, r)
                f7 = gen_family("herbaut7", g, d, r)
                f8 = gen_family("strong8", g, d, r)
                if not (compare_ideals(f6, f7).ideal_equal
                        and compare_ideals(f7, f8).ideal_equal
                        and compare_ideals(f6, f8).ideal_equal):
                    ok = False
    _report("5", "families generate identical graded ideals on the full grid",
            ok, time.perf_counter() - start, 300.0)


def test_criterion_06_chain_scalars():
    start = time.perf_counter()
    ok = True
    for g in (3, 4, 5, 6):
        for r in (2, 3):
            for d in range(2 * r, 9):
                report = verify_implication_chain(g, d, r)
                if not (report.identity9_ok and report.degree_bound_ok
                        and report.scalar_ok):
                    ok = False
    _report("6b", "implication-chain identity, degree bookkeeping and "
            "Stirling scalar nonvanishing on the criterion-5 grid",
            ok, time.perf_counter() - start, 60.0)


def test_criterion_06_epsilon_certified_bounds():
    # the part of the eps bound that is mathematically true: principal parts
    # cancel (no negative x-exponents) and the t-support starts at t^2
    start = time.perf_counter()
    ok = True
    for g in range(1, 7):
        report = epsilon_series(g, 8)
        if not (report.no_negative_x and report.t_floor >= 2):
            ok = False
    _report("6a'", "eps(x,t) certified free of negative x-powers with t >= 2 "
            "for g <= 6 at x-order 8",
            ok, time.perf_counter() - start, 60.0)


def test_criterion_06_epsilon_strict_xt2_bound():
    # Literal criterion: eps(x,t) = O(x t^2) for g <= 6 at x-order 8.
    # UNATTAINABLE: eps has the exact x^0 coefficient -(B_n/n) C(n-2) at t^n
    # for every even n = a+2 <= g+1 (B_2/2 = 1/12, B_4/4 = -1/120, ...),
    # because the constant term of (n-1)!/log(1+x)^n is B_n/n, not 0.  The
    # assertion is kept as stated; the failure below is the honest outcome.
    start = time.perf_counter()
    reports = {g: epsilon_series(g, 8) for g in range(1, 7)}
    witness = {g: {te: str(c) for te, c in rep.x0_coefficients.items()}
               for g, rep in reports.items()}
    ok = all(rep.strict_xt2 for rep in reports.values())
    elapsed = time.perf_counter() - start
    status = "PASS" if ok else "FAIL"
    print(f"criterion 6a: {status} - eps(x,t) = O(x t^2) for g <= 6 at x-order 8 "
          f"({elapsed:.2f}s, budget 60s)")
    assert ok, ("eps(x,t) = O(x t^2) cannot be certified: nonzero x^0 "
                f"coefficients (Bernoulli values B_n/n) are present: {witness}")


def test_criterion_07_grr_replay():
    start = time.perf_counter()
    ok = True
    for r in (1, 2, 3):
        for g in range(1, 6):
            for d in range(1, 9):
                for M in (d, d + 1, d + 2):
                    data = gamma_extract(g, d, r, M)  # ch_vk checks the closed form
                    if data.max_power > M + 1:
                        ok = False
                    if data.gamma(M + 1) != gamma_top_reference(g, d, r, M):
                        ok = False
                    element = data.theorem1()
                    N = M - 2 * r + 1
                    expected = (gen_theorem1(g, d, r, N) if N >= 0
                                else TautElement.zero(g))
                    if element != expected:
                        ok = False
    _report("7", "ch closed form, gamma vanishing/top formula, and the "
            "derived relation across r<=3, g<=5, d<=8, M in {d,d+1,d+2}",
            ok, time.perf_counter() - start, 300.0)


def test_criterion_08_single_cover_degeneration():
    start = time.perf_counter()
    ok = True
    for g in range(1, 7):
        for d in range(1, g + 1):
            expected = set(range(d - 1, g))
            for fid in ("vdgk6", "herbaut7", "strong8"):
                constrained = set()
                for item in gen_family(fid, g, d, 1).items:
                    terms = item.element.sorted_terms()
                    if len(terms) != 1 or len(terms[0][0]) != 1:
                        ok = False
                        continue
                    constrained.add(terms[0][0][0])
                if constrained != expected:
                    ok = False
            for M in range(d, g + 2):
                element = derive_theorem1(g, d, 1, M)
                if M - 1 <= g - 1:
                    if element != TautElement.generator(g, M - 1) * factorial(M):
                        ok = False
                elif not element.is_zero:
                    ok = False
    _report("8", "r=1 relations are exactly the single-generator vanishings "
            "C(j)=0 for d-1 <= j <= g-1",
            ok, time.perf_counter() - start, 10.0)


def test_colombo_van_geemen_relations_at_r1():
    # the abstract: "The relations generalize the relations found by Colombo
    # and van Geemen".  With a g^1_d, C(a) vanishes for a >= d-1; at r = 1
    # vdgk6 is exactly that set, each generator with the factor (a+1)!
    for g in range(1, 12):
        for d in range(0, 14):
            items = [item.element for item in gen_family("vdgk6", g, d, 1).items]
            expected = {factorial(a + 1) * TautElement.generator(g, a)
                        for a in range(max(d - 1, 0), g)}
            assert len(items) == len(expected) and set(items) == expected, (g, d)


def test_criterion_09_property_suites():
    start = time.perf_counter()
    ok = True
    rng = random.Random(90901)
    for _ in range(1000):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        ok &= (a + b) + c == a + (b + c) and a * (b + c) == a * b + a * c
        ok &= a * b == b * a and a + (-a) == 0
    for _ in range(1000):
        a, b, c = (rand_poly(rng) for _ in range(3))
        ok &= (a + b) + c == a + (b + c) and a * b == b * a
        ok &= a * (b + c) == a * b + a * c and (a + (-a)).is_zero
    for _ in range(1000):
        a, b, c = (rand_laurent(rng) for _ in range(3))
        ok &= ((a + b) + c).agrees_with(a + (b + c))
        ok &= (a * b).agrees_with(b * a)
        ok &= (a * (b + c)).agrees_with(a * b + a * c)
        ok &= (a + (-a)).is_zero
    # grading additivity
    for _ in range(300):
        g = rng.randint(2, 5)
        s1, s2 = rng.randint(1, 2), rng.randint(1, 2)
        w1, w2 = rng.randint(0, s1 * (g - 1)), rng.randint(0, s2 * (g - 1))
        prod = rand_homogeneous_taut(rng, g, s1, w1) * rand_homogeneous_taut(rng, g, s2, w2)
        if not prod.is_zero:
            ok &= prod.bidegree() == (s1 + s2, w1 + w2)
    # truncation soundness
    for _ in range(300):
        a, b = rand_laurent(rng, min_val=0), rand_laurent(rng, min_val=0)
        full = a * b
        if full.trunc is None or full.trunc < 1:
            continue
        target = rng.randint(max(full.valuation, 0), full.trunc)
        direct = a.truncate(min(a.trunc, target)) * b.truncate(min(b.trunc, target))
        ok &= full.truncate(target).agrees_with(direct)
    # JSON round-trip byte equality
    for fid in ("vdgk6", "herbaut7", "strong8"):
        text = family_to_json(gen_family(fid, 5, 6, 2))
        ok &= family_to_json(family_from_json(text)) == text
    _report("9", "ring axioms (1000 cases per type), grading, truncation "
            "soundness, JSON round-trip",
            ok, time.perf_counter() - start, 60.0)
