"""Thread-safety smoke tests for the documented concurrency model.

Values are immutable and operations pure, so parallel evaluation must give
byte-identical results to serial evaluation.  The shared structures are the
module caches: the Stirling memo table, whose writers are idempotent, and the
``functools.lru_cache``s (``monomials_of_bidegree``, ``_bare_log_inv_pow``,
and the chain's ``_e_part`` and ``_split_table``), which lock their own
bookkeeping; two threads may both compute a missing entry, and they compute
the same immutable value.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import jacrel.combinat as combinat
from jacrel.combinat import stirling2
from jacrel.relations import (_split_table, family_to_json, gen_family,
                              verify_implication_chain)


def test_parallel_family_generation_is_deterministic():
    params = [("vdgk6", 4, 5, 2), ("herbaut7", 4, 5, 2), ("strong8", 4, 5, 2),
              ("vdgk6", 3, 4, 2), ("strong8", 5, 6, 2), ("herbaut7", 3, 6, 3)]
    serial = [family_to_json(gen_family(*p)) for p in params]
    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(pool.map(lambda p: family_to_json(gen_family(*p)), params))
    assert parallel == serial


def test_same_family_from_many_threads():
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
    # cold tables and frequent thread switches, so threads race to build and
    # read the same entries
    _split_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda p: verify_implication_chain(*p), params,
                                     timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
