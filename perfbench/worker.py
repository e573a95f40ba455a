"""One fresh interpreter of the jacrel benchmark.

    worker.py grid <workload> <spans-path or ->     (cases as JSON on stdin)
    worker.py cli <summary-path> <spans-path> <jacrel argv...>

``grid`` runs one pass over the case list of ``ideals``, ``chain`` or ``grr``,
timing each case's library calls and then checking the result against the
bench-side oracles outside the timed region.  A speed chunk runs after every
quarter second of cases (see speed.py).  It prints one JSON object:
``{"cases": [[wall seconds, speed-adjusted CPU seconds, error-or-null], ...],
"trace": summary-or-null}``.  With a spans path the pass is traced.

``cli`` installs the tracer and calls ``jacrel.cli.main(argv)``; stdout and
the exit code are the command's own, and the trace summary is written to
the summary path.  Untraced CLI cases run ``python -m jacrel.cli`` directly.
"""

from __future__ import annotations

import json
import sys
import traceback
from time import perf_counter, thread_time

import jacrel.cli
import oracles
import speed
from jacrel import grr, relations
from tracer import Tracer

CHUNK_EVERY_S = 0.05  # case seconds between two speed chunks
FAMILIES = ("vdgk6", "herbaut7", "strong8")
PAIRS = ((0, 1), (1, 2), (0, 2))


def run_ideals(g, d, r):
    fams = [relations.gen_family(f, g, d, r) for f in FAMILIES]
    return fams, [relations.compare_ideals(fams[i], fams[j]) for i, j in PAIRS]


def check_ideals(g, d, r, out):
    fams, cmps = out
    for (i, j), cmp in zip(PAIRS, cmps):
        if not cmp.ideal_equal:
            return f"{FAMILIES[i]}/{FAMILIES[j]} not ideal_equal"
    got = {(it.s, it.t_exp): it.element.terms for it in fams[0].items}
    if got != oracles.vdgk6_items(g, d, r):
        return "vdgk6 items differ from orderings(m)*prod (a_i+1)!"
    return None


def run_chain(g, d, r):
    eps = relations.epsilon_series(g, 2 * (g + 2))
    return eps, relations.verify_implication_chain(g, d, r)


def check_chain(g, d, r, out):
    eps, report = out
    if not (eps.no_negative_x and eps.t_floor >= 2):
        return "eps has negative x-powers or a t-exponent below 2"
    if not report.ok:
        return "chain report not ok"
    if any(c.min_x_exponent is None for c in report.degree_bounds):
        return "vacuous degree-bound check (min_x_exponent=None)"
    got = {(c.s, c.n): c.value for c in report.scalar_checks}
    table = oracles.stirling_table(r * (g + 1))
    if got != oracles.chain_scalars(g, d, r, table):
        return "scalar checks differ from m!/(n-1)! S(n-1,m)"
    return None


def run_grr(g, d, r, M):
    return (grr.gamma_extract(g, d, r, M), grr.gamma_top_reference(g, d, r, M),
            grr.derive_theorem1(g, d, r, M))


def check_grr(g, d, r, M, out):
    data, reference, derived = out
    if data.gamma(M + 1) != reference:
        return "gamma(M+1) != gamma_top_reference"
    if data.max_power > M + 1:
        return f"max_power {data.max_power} > M+1"
    if derived.terms != oracles.composition_sum(g, r, M - 2 * r + 1):
        return "derived relation differs from the composition sum"
    return None


WORKLOADS = {"ideals": (run_ideals, check_ideals), "chain": (run_chain, check_chain),
             "grr": (run_grr, check_grr)}


def grid(workload: str, spans_path: str) -> int:
    run, check = WORKLOADS[workload]
    cases = json.load(sys.stdin)
    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        tracer.install()
    results: list[list] = []
    block: list[list] = []  # cases since the last speed chunk
    before = speed.chunk()
    for idx, case in enumerate(cases):
        if tracer:
            tracer.case = idx
        start, cpu = perf_counter(), thread_time()
        try:
            out = run(*case)
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        wall, cpu = perf_counter() - start, thread_time() - cpu
        if error is None:
            error = check(*case, out)
        block.append([wall, cpu, error])
        if sum(e[0] for e in block) >= CHUNK_EVERY_S or idx == len(cases) - 1:
            after = speed.chunk()
            scale = speed.factor(before, after)
            for entry in block:
                entry[1] *= scale
            results += block
            block, before = [], after
    summary = None
    if tracer:
        tracer.cache_counters()
        summary = tracer.summary()
        tracer.write_spans(spans_path)
    json.dump({"cases": results, "trace": summary}, sys.stdout)
    return 0


def cli(summary_path: str, spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    tracer.case = 0
    try:
        code = jacrel.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    sys.stdout.flush()
    tracer.cache_counters()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "grid":
        sys.exit(grid(sys.argv[2], sys.argv[3]))
    if mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3], sys.argv[4:]))
    sys.exit(f"unknown mode {mode!r}")
