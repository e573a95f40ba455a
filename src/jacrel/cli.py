"""Command-line front end.

Four subcommands drive the library:

* ``identities``  - the combinatorial cross-checks (three-route polynomial
  agreement, the Laurent principal-part identity, vanishing at u = -1, and
  the two-route alternating-sum grid);
* ``relations``   - emit one relation family as JSON or aligned text;
* ``equivalence`` - per-bidegree rank tables for the three families plus the
  ideal/span verdicts and the series implication-chain report;
* ``grr``         - the symbolic Chern-character replay with its cross-checks.

Each subcommand returns its report as an exit code, a JSON payload and the
text lines; ``main`` alone renders the requested ``--format``, writes it to
``--out`` or stdout, and maps every error to its exit code.

Exit codes: 0 pass, 1 verification failure, 2 usage error (a report that
cannot be written included), 3 inconclusive (a truncation was too small to
certify a bound).  Output is byte-identical across runs for identical inputs.

Each subcommand imports the modules it runs when it runs, so a fresh process
loads only those: ``identities`` never loads ``relations`` or ``grr``, and
``grr`` never loads ``relations`` or ``linalg``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import Any, Iterable, Iterator

from .rings import InvariantViolation, TruncationError

FAMILY_IDS = ("theorem1", "vdgk6", "herbaut7", "strong8")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

Report = tuple[int, Any, Iterable[str]]  # exit code, JSON payload, text lines


def cmd_identities(args: argparse.Namespace) -> Report:
    from . import combinat
    max_n, order = args.max_n, args.order
    if max_n < 1 or order < 1:
        raise ValueError("--max-n and --order must be >= 1")
    checks: list[dict[str, Any]] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"check": name, "ok": ok, "detail": detail})

    for n in range(1, max_n + 1):
        reference = combinat.p_poly(n, "stirling")
        agree = all(combinat.p_poly(n, route) == reference
                    for route in ("genfunc", "laurent"))
        record(f"p_poly_routes_agree(n={n})", agree,
               "" if agree else "routes disagree")
    for n in range(1, max_n + 1):
        rep = combinat.verify_identity4(n, order)
        record(f"laurent_principal_part(n={n})", rep.ok,
               f"constant={rep.constant}")
    for n in range(2, max_n + 1):
        value = combinat.p_poly(n).evaluate(Fraction(-1))
        record(f"p_poly_at_minus_one(n={n})", value == 0, f"value={value}")
    counterexample = next((f"d={d}, a={a}" for d in range(0, 6) for r in range(1, 3)
                           for a in itertools.product(range(4), repeat=r)
                           if combinat.b_sum(d, a) != combinat.b_gen(d, a)), "")
    record("b_sum_equals_b_gen(grid d<=5, r<=2, a_i<=3)", not counterexample,
           counterexample)

    all_ok = all(c["ok"] for c in checks)
    payload = {"command": "identities", "max_n": max_n, "order": order,
               "ok": all_ok, "checks": checks}
    lines = [f"identities report (max_n={max_n}, order={order})"]
    for c in checks:
        status = "pass" if c["ok"] else "FAIL"
        detail = f"  [{c['detail']}]" if c["detail"] else ""
        lines.append(f"  {status}  {c['check']}{detail}")
    if max_n >= 5:
        payload["expansion_n5"] = combinat.inv_log1p_pow(5, min(order, 6)).render()
        lines.append(f"  expansion 4!/log(1+x)^5 = {payload['expansion_n5']}")
    lines.append("overall: " + ("pass" if all_ok else "FAIL"))
    return EXIT_OK if all_ok else EXIT_FAIL, payload, lines


def cmd_relations(args: argparse.Namespace) -> Report:
    from . import relations
    if args.family != "theorem1" and args.N is not None:
        raise ValueError("--N applies only to --family theorem1")
    if args.family == "theorem1":
        if args.N is None:
            raise ValueError("--family theorem1 requires --N")
        family = relations.theorem1_family(args.g, args.d, args.r, args.N)
    else:
        family = relations.gen_family(args.family, args.g, args.d, args.r)

    def lines() -> Iterator[str]:  # rendered only for a text request
        yield f"family {family.family_id} (g={family.g}, d={family.d}, r={family.r})"
        for item in family.sorted_items():
            u_part = f" u^{item.u_exp}" if item.u_exp is not None else ""
            yield f"  s={item.s} t^{item.t_exp}{u_part}: {item.element.render()}"
        if not family.items:
            yield "  (empty family)"
    return EXIT_OK, family, lines()


def cmd_equivalence(args: argparse.Namespace) -> Report:
    from . import relations
    fam6 = relations.gen_family("vdgk6", args.g, args.d, args.r)
    fam7 = relations.gen_family("herbaut7", args.g, args.d, args.r)
    fam8 = relations.gen_family("strong8", args.g, args.d, args.r)
    cmp67 = relations.compare_ideals(fam6, fam7)
    cmp78 = relations.compare_ideals(fam7, fam8)
    cmp68 = relations.compare_ideals(fam6, fam8)
    chain = relations.verify_implication_chain(args.g, args.d, args.r)
    ideal_ok = cmp67.ideal_equal and cmp78.ideal_equal and cmp68.ideal_equal
    verdict = "NOT equivalent" if not ideal_ok else (
        "equivalent" if chain.ok else "ideals equal, chain NOT certified")
    payload = {
        "command": "equivalence",
        "g": args.g, "d": args.d, "r": args.r,
        "ideal_equal": ideal_ok,
        "span_equal": cmp67.span_equal and cmp78.span_equal and cmp68.span_equal,
        "pairs": [],
        "chain": {
            "identity9_ok": chain.identity9_ok,
            "degree_bound_ok": chain.degree_bound_ok,
            "scalar_ok": chain.scalar_ok,
            "ok": chain.ok,
        },
        "overall": verdict,
    }
    for cmp in (cmp67, cmp78, cmp68):
        cells = [{
            "bidegree": [c.i, c.j], "dim": c.dim,
            "ideal_ranks": list(c.ideal_ranks), "ideal_joint": c.ideal_joint,
            "span_ranks": list(c.span_ranks), "span_joint": c.span_joint,
            "ideal_equal": c.ideal_equal, "span_equal": c.span_equal,
        } for c in cmp.cells]
        payload["pairs"].append({
            "families": list(cmp.family_ids),
            "ideal_equal": cmp.ideal_equal,
            "span_equal": cmp.span_equal,
            "notions_differ_at": [[c.i, c.j] for c in cmp.notions_differ],
            "cells": cells,
        })
    lines = [f"equivalence report (g={args.g}, d={args.d}, r={args.r})"]
    for pair in payload["pairs"]:
        ids = "/".join(pair["families"])
        lines.append(f"  {ids}: ideal_equal={pair['ideal_equal']} "
                     f"span_equal={pair['span_equal']}")
        for cell in pair["cells"]:
            i, j = cell["bidegree"]
            lines.append(
                f"    bidegree ({i},{j}) dim={cell['dim']}: "
                f"ideal ranks {cell['ideal_ranks']} joint {cell['ideal_joint']}; "
                f"span ranks {cell['span_ranks']} joint {cell['span_joint']}")
    lines.append(f"  chain: identity9={chain.identity9_ok} "
                 f"degree_bound={chain.degree_bound_ok} scalars={chain.scalar_ok}")
    lines.append("overall: " + verdict)
    return EXIT_OK if ideal_ok and chain.ok else EXIT_FAIL, payload, lines


def cmd_grr(args: argparse.Namespace) -> Report:
    from . import grr, tautalg
    g, d, r, M = args.g, args.d, args.r, args.M
    data = grr.gamma_extract(g, d, r, M)
    derived = data.theorem1()
    powers_ok = data.max_power <= M + 1
    N = M - 2 * r + 1
    payload = {
        "command": "grr",
        "g": g, "d": d, "r": r, "M": M,
        "closed_form_ok": True,  # ch_vk raises otherwise
        "gamma_vanishes_above_M_plus_1": powers_ok,
        # theorem1 maps gamma_(M+1) to the free algebra (raising on any k, xi or
        # Todd unknown) one to one onto the composition sum, or raises
        "gamma_top_matches_reference": True,
        "gamma_top_free_of_todd_unknowns": True,
        "gamma_table": {str(s): piece.render() for s, piece in data.items()},
        "derived_relation": tautalg.element_to_jsonable(derived),
        "derived_equals_composition_sum": True,  # GammaData.theorem1 raises otherwise
        "N": N,
    }
    lines = [f"grr report (g={g}, d={d}, r={r}, M={M})",
             "  pushforward route equals closed form: pass",
             f"  gamma_s = 0 for s > M+1: {'pass' if powers_ok else 'FAIL'}",
             "  gamma_(M+1) matches composition formula: pass",
             "  gamma_(M+1) free of Todd unknowns: pass"]
    lines += [f"    gamma_{s} = {rendered}" for s, rendered in payload["gamma_table"].items()]
    lines.append(f"  derived relation (N={N}): {derived.render()}")
    lines.append("overall: " + ("pass" if powers_ok else "FAIL"))
    return EXIT_OK if powers_ok else EXIT_FAIL, payload, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacrel",
        description="Exact symbolic engine for tautological cycle relations "
                    "on Jacobian varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, func: Any, required: tuple[str, ...],
                *options: tuple[str, dict[str, Any]]) -> None:
        """The required integer options, then the others, then --format and --out."""
        p = sub.add_parser(name, help=summary)
        for flag in required:
            p.add_argument(flag, type=int, required=True)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.set_defaults(func=func)

    gdr = ("--g", "--d", "--r")
    command("identities", "combinatorial identity checks", cmd_identities, (),
            ("--max-n", {"type": int, "default": 12}), ("--order", {"type": int, "default": 10}))
    command("relations", "emit one relation family", cmd_relations, gdr,
            ("--family", {"choices": FAMILY_IDS, "required": True}), ("--N", {"type": int}))
    command("equivalence", "graded-ideal comparison of the families", cmd_equivalence, gdr)
    command("grr", "symbolic Chern-character replay", cmd_grr, (*gdr, "--M"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        if args.format == "text":
            text = "\n".join(lines)
        elif args.command == "relations":  # the payload is the family, in its own compact form
            from .relations import family_to_json
            text = family_to_json(payload)
        else:
            text = json.dumps(payload, indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            try:
                sys.stdout.write(text + "\n")
                sys.stdout.flush()
            except OSError:
                # a full disk or closed pipe: let the flush at exit write to os.devnull
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise
        return code
    except TruncationError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except InvariantViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
