"""Thread-safety smoke tests for the documented concurrency model.

Values are immutable and operations pure, so parallel evaluation must give
byte-identical results to serial evaluation.  The shared structures are the
module caches: the Stirling memo table, whose writers are idempotent, and the
``functools.lru_cache``s (``tautalg``'s monomial bases
``monomials_of_bidegree`` and multiset counts ``_orderings``,
``_bare_log_inv_pow``, the closed forms pi_n ``_pi_coefficients``, checked
against P_n's coefficients, the half-degree tables ``_f_table`` built on
them, whose rows the items and the routed spans read, and their suffix
ranks ``_suffix_ranks``, the ideal cells' column maps of C(k)
``_shift_columns``, the chain's ``_e_part``, check (a)'s power law
``_power_law_ok``, and the GRR replay's ``ch_vk``), which lock their own
bookkeeping; two threads may both compute a missing entry, and they
compute the same value.  Four pieces of state are kept on values.  A
family keeps its ``GradedSpan``, published under a lock: threads that
race to make a span for one family read from JSON all keep the first one
published.  A family's ``GradedSpan`` publishes a cell, with
its rows and its ranks, only once the cell is complete, so threads that
compare the same family at once can at most build a cell twice, the same
way: whether a cell is full from the cells below it or reduces rows
depends only on those cells; the joint cells that strong8's routed span
shares with vdgk6's and herbaut7's are published the same way, and the
first published is the one every span reads.  A routed family's span is the one span of
its route key (family_id, g, d-r), shared across r through the module dict
``relations._SPANS`` and published there with ``setdefault``: threads that
race to make it all keep the first one published.  A family that
``gen_family`` made forms its items on first read and publishes the complete tuple under a lock, unless
another thread published first: every thread reads one tuple.  The ``ChernData`` that
``ch_vk`` shares per (g, d, r) carries the Chern-class memo of
``chern_classes``, which is replaced, under a lock, only by a complete longer
tower: threads that ask for different lengths at once never read a partial
tower, and at worst compute the same classes more than once.  The table of
``combinat`` (the powers (x/L)^n, L = log(1+x), that every x-window reads)
is grown only under a lock, into a new table that replaces the published
one once complete: threads never read a partly grown or partly rescaled
table, and no entry is computed twice.  The package's
lazy exports are resolved under the import system's per-module lock, so
threads that first touch a name together all get the submodule's object.
"""

import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import jacrel.combinat as combinat
from jacrel.combinat import stirling2
from jacrel.grr import ch_vk, gamma_extract
from jacrel.relations import (_SPANS, GradedSpan, _e_part, _f_table, _pi_coefficients,
                              _power_law_ok, _shift_columns, _suffix_ranks, compare_ideals,
                              family_from_json, family_to_json, gen_family,
                              verify_implication_chain)
from jacrel.tautalg import _orderings
from oracles import family_by_powers
from test_imports import run_fresh

FAMILIES = ("vdgk6", "herbaut7", "strong8")


def test_parallel_family_generation_is_deterministic():
    params = [("vdgk6", 4, 5, 2), ("herbaut7", 4, 5, 2), ("strong8", 4, 5, 2),
              ("vdgk6", 3, 4, 2), ("strong8", 5, 6, 2), ("herbaut7", 3, 6, 3)]
    serial = [family_to_json(gen_family(*p)) for p in params]
    # cold tables F, so the threads race to build the same entries
    _f_table.cache_clear()
    _pi_coefficients.cache_clear()
    _orderings.cache_clear()
    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(pool.map(lambda p: family_to_json(gen_family(*p)), params))
    assert parallel == serial


def test_same_family_from_many_threads():
    _f_table.cache_clear()
    _pi_coefficients.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        outputs = list(pool.map(
            lambda _: family_to_json(gen_family("strong8", 4, 6, 2)), range(16)))
    assert len(set(outputs)) == 1


def test_stirling_memo_is_idempotent_under_races():
    combinat._stirling_table.clear()
    tasks = [(n, m) for n in range(1, 14) for m in range(1, n + 1)] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        values = list(pool.map(lambda nm: stirling2(*nm), tasks))
    serial = [stirling2(n, m) for n, m in tasks]
    assert values == serial


def test_parallel_chain_reports_match_serial():
    params = [(3, 4, 2), (4, 6, 3), (5, 5, 2), (3, 7, 3), (4, 4, 2), (5, 7, 2),
              (3, 6, 2), (4, 8, 2)]
    serial = [verify_implication_chain(*p) for p in params]
    # cold series and frequent thread switches, so threads race to build and
    # read the same entries
    for cache in (combinat._bare_log_inv_pow, _e_part, _power_law_ok):
        cache.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda p: verify_implication_chain(*p), params,
                                     timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


def test_parallel_ladder_growth_matches_serial():
    # eight threads grow the cold table of (x/L)^n to different tops at one
    # x-order at once; a table read before it is complete, or one that
    # shrank, shows as a wrong power or a short table
    order, tops = 12, (3, 40, 7, 21, 1, 33, 12, 26)

    def cold():
        combinat._table = ()
        combinat._bare_log_inv_pow.cache_clear()

    serial = {}
    for top in tops:
        cold()
        serial[top] = tuple(combinat._bare_log_inv_pow(n, order) for n in range(1, top + 1))
    cold()
    combinat._bare_log_inv_pow(max(tops), order)
    serial_table = combinat._table
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            cold()
            barrier = threading.Barrier(8)

            def run(top):
                barrier.wait(timeout=60)
                return tuple(combinat._bare_log_inv_pow(n, order) for n in range(top, 0, -1))

            with ThreadPoolExecutor(max_workers=8) as pool:
                outputs = list(pool.map(run, tops, timeout=120))
            for top, powers in zip(tops, outputs):
                assert powers[::-1] == serial[top], top
            assert combinat._table == serial_table
    finally:
        sys.setswitchinterval(interval)
        cold()


def race_comparisons(g, d, r, rounds):
    """Rounds of eight threads comparing three shared family objects with
    cold spans, cold column maps, cold pi_n and cold tables F and echelons;
    returns each round's families."""
    tasks = [(a, b) for a in range(3) for b in range(3) if a != b]
    expected = {(a, b): compare_ideals(gen_family(FAMILIES[a], g, d, r),
                                       gen_family(FAMILIES[b], g, d, r))
                for a, b in tasks}
    families = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(rounds):
            # eight threads start together on three family objects with cold
            # spans, each through the tasks in its own order; a cell read
            # before it is complete shows as a wrong rank or as a dict that
            # changed size during iteration
            shared = [gen_family(f, g, d, r) for f in FAMILIES]
            _SPANS.clear()
            _shift_columns.cache_clear()
            _pi_coefficients.cache_clear()
            _f_table.cache_clear()
            _suffix_ranks.cache_clear()
            barrier = threading.Barrier(8)

            def run(k):
                barrier.wait(timeout=60)
                return {(a, b): compare_ideals(shared[a], shared[b])
                        for a, b in tasks[k:] + tasks[:k]}

            with ThreadPoolExecutor(max_workers=8) as pool:
                outputs = list(pool.map(run, range(8), timeout=120))
            assert all(out == expected for out in outputs)
            families.append(shared)
    finally:
        sys.setswitchinterval(interval)
    return families


def test_parallel_comparisons_share_one_span_per_family():
    race_comparisons(4, 5, 2, rounds=8)


def test_parallel_comparisons_cover_and_reduce_cells():
    # at (4, 6, 3) some cells are full from the full cells below them alone
    # (their space keeps fewer rows than their rank) and others reduce rows
    # beyond their generators; threads race through both kinds
    for shared in race_comparisons(4, 6, 3, rounds=16):
        cells = [cell for f in shared for cell in f._span.cells.values()]
        assert any(space.rank < rank for space, _, rank in cells)
        assert any(space.rank > generator_rank for space, generator_rank, _ in cells)


def test_spans_shared_across_r_are_published_once_under_races():
    # (4, 4, 1), (4, 5, 2) and (4, 6, 3) all have d-r = 3, so every family
    # below reads one of three route spans; eight threads make their own
    # family objects and race through the three r from cold spans, each in
    # its own order, so cells built at one r are read at another
    cases = ((4, 4, 1), (4, 5, 2), (4, 6, 3))
    tasks = [(case, a, b) for case in cases for a in range(3) for b in range(3) if a != b]
    serial = {(case, a, b): compare_ideals(gen_family(FAMILIES[a], *case),
                                           gen_family(FAMILIES[b], *case))
              for case, a, b in tasks}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(6):
            _SPANS.clear()
            _shift_columns.cache_clear()
            _f_table.cache_clear()
            _suffix_ranks.cache_clear()
            barrier = threading.Barrier(8)

            def run(k):
                barrier.wait(timeout=60)
                out = {}
                for case, a, b in random.Random(k).sample(tasks, len(tasks)):
                    pair = (gen_family(FAMILIES[a], *case), gen_family(FAMILIES[b], *case))
                    out[(case, a, b)] = compare_ideals(*pair), pair
                return out

            with ThreadPoolExecutor(max_workers=8) as pool:
                outputs = list(pool.map(run, range(8), timeout=120))
            spans: dict = {}
            for out in outputs:
                assert {task: report for task, (report, _) in out.items()} == serial
                for _, pair in out.values():
                    for f in pair:
                        spans.setdefault((f.family_id, f.g, f.d - f.r), set()).add(id(f._span))
            assert spans == {key: {id(span)} for key, span in _SPANS.items()}
            assert set(spans) == {(name, 4, 3) for name in FAMILIES}
    finally:
        sys.setswitchinterval(interval)


def test_unrouted_span_is_published_once_under_races():
    # a family read from JSON has no route key, so every thread builds its
    # own span; eight threads race to keep theirs on one family, and each
    # must return the first one published
    text = family_to_json(gen_family("strong8", 4, 6, 3))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(8):
            family = family_from_json(text)
            barrier = threading.Barrier(8)

            def run(_):
                barrier.wait(timeout=60)
                return GradedSpan.from_family(family)

            with ThreadPoolExecutor(max_workers=8) as pool:
                spans = list(pool.map(run, range(8), timeout=120))
            assert all(span is family._span for span in spans)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("g, d, r", [(4, 6, 3), (5, 2, 3)], ids=["d_ge_r", "d_r_minus_one"])
def test_joint_cells_are_published_once_under_races(g, d, r):
    # eight threads race through the six ordered pairs of one cold key, each
    # in its own order; at d = r-1 herbaut7, empty there, also falls back to
    # its own cells.
    # Every joint cell must be published complete, with the serial ranks,
    # and once: every routed cell that reads it holds the published space
    tasks = [(a, b) for a in range(3) for b in range(3) if a != b]

    def cold():
        _SPANS.clear()
        _shift_columns.cache_clear()
        _f_table.cache_clear()
        _suffix_ranks.cache_clear()

    def joint_ranks():
        return {key: (c.space.rank, c.rank, c.routed, c.pair)
                for key, c in _SPANS[("strong8", g, d - r)].joints.items()}

    cold()
    fams = [gen_family(f, g, d, r) for f in FAMILIES]
    serial = {(a, b): repr(compare_ideals(fams[a], fams[b])) for a, b in tasks}
    expected = joint_ranks()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(6):
            cold()
            shared = [gen_family(f, g, d, r) for f in FAMILIES]
            barrier = threading.Barrier(8)

            def run(k):
                barrier.wait(timeout=60)
                return {(a, b): repr(compare_ideals(shared[a], shared[b]))
                        for a, b in random.Random(k).sample(tasks, len(tasks))}

            with ThreadPoolExecutor(max_workers=8) as pool:
                outputs = list(pool.map(run, range(8), timeout=120))
            assert all(out == serial for out in outputs)
            assert joint_ranks() == expected
            joints = _SPANS[("strong8", g, d - r)].joints
            for f in shared:
                for key, (space, _, rank) in f._span.cells.items():
                    _, own = joints[key].routed.get(f.family_id, (0, rank))  # strong8: its own
                    if own == rank == joints[key].rank:
                        assert space is joints[key].space, (f.family_id, key)
    finally:
        sys.setswitchinterval(interval)
        cold()


def test_routed_items_are_formed_once_under_races():
    # eight threads read the items of three cold routed families and build
    # their spans at once, each in its own order; every thread must read
    # one tuple per family, the items of the expanded powers, in order
    g, d, r = 4, 6, 3
    expected = [family_by_powers(name, g, d, r) for name in FAMILIES]
    tasks = [(a, b) for a in range(3) for b in range(3) if a != b]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(6):
            shared = [gen_family(f, g, d, r) for f in FAMILIES]
            _SPANS.clear()
            _pi_coefficients.cache_clear()
            _f_table.cache_clear()
            _suffix_ranks.cache_clear()
            barrier = threading.Barrier(8)

            def run(k):
                barrier.wait(timeout=60)
                seen = {}
                for a, b in tasks[k:] + tasks[:k]:
                    if k % 2:  # half the threads build the spans first
                        compare_ideals(shared[a], shared[b])
                    seen.setdefault(a, shared[a].items)
                    if not k % 2:
                        compare_ideals(shared[a], shared[b])
                return seen

            with ThreadPoolExecutor(max_workers=8) as pool:
                outputs = list(pool.map(run, range(8), timeout=120))
            for a, family in enumerate(shared):
                assert all(out[a] is family.items for out in outputs), FAMILIES[a]
                assert [(it.s, it.t_exp, it.u_exp, it.element)
                        for it in family.items] == expected[a], FAMILIES[a]
    finally:
        sys.setswitchinterval(interval)


def test_parallel_gamma_extraction_shares_one_tower_per_bundle():
    # several M per (g, d, r), so threads extend the same shared tower to
    # different lengths
    tasks = [(g, d, r, M) for g, d, r in ((3, 4, 2), (4, 6, 3), (5, 7, 2), (2, 3, 1))
             for M in (d + 2, d, d + 1)]
    serial = [gamma_extract(*t) for t in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            ch_vk.cache_clear()
            barrier = threading.Barrier(8)

            def run(k):
                barrier.wait(timeout=60)
                order = tasks[k:] + tasks[:k]
                return dict(zip(order, (gamma_extract(*t) for t in order)))

            with ThreadPoolExecutor(max_workers=8) as pool:
                outputs = list(pool.map(run, range(8), timeout=120))
            for out in outputs:
                assert [out[t] for t in tasks] == serial
                assert [repr(out[t]) for t in tasks] == [repr(x) for x in serial]
    finally:
        sys.setswitchinterval(interval)


def test_first_access_of_lazy_exports_from_many_threads():
    # a fresh interpreter, so that jacrel.relations and jacrel.grr are first
    # imported while eight threads ask for their names at once
    out = run_fresh("""
import json, sys, threading
from concurrent.futures import ThreadPoolExecutor
import jacrel
sys.setswitchinterval(1e-5)
barrier = threading.Barrier(8)

def run(_):
    barrier.wait(timeout=60)
    return jacrel.gen_family, jacrel.gamma_extract

with ThreadPoolExecutor(max_workers=8) as pool:
    got = list(pool.map(run, range(8), timeout=120))
expected = (sys.modules["jacrel.relations"].gen_family,
            sys.modules["jacrel.grr"].gamma_extract)
print(json.dumps([len(got), all(pair == expected for pair in got)]))
""")
    assert json.loads(out) == [8, True]
