"""Out-of-tree tracing for the jacrel benchmark.

``Tracer.install()`` wraps the public functions and hot methods of the seven
jacrel modules from the outside.  Each wrapped call records one span
``(name, start, end, parent, case)`` in flat in-memory arrays; nothing is
written until ``write_spans`` runs after the work is done.  Module-level
functions are rebound in every ``jacrel`` module that holds a reference to
them, so ``from .x import f`` imports (``relations.poly_power``,
``grr.gen_theorem1``, ...) are traced as well.

Work counters are collected in ``after`` hooks, which run after a span has
closed, so their cost lands in the tracing overhead and never in a layer's
self time.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# Counters that are maxima (or end-of-process sizes); every other counter sums.
MAX_COUNTERS = frozenset({
    "linalg.max_entry_bits", "relations.max_coeff_bits",
    "cache.stirling_table.size", "cache.monomials_of_bidegree.size",
    "cache.bare_log_inv_pow.size",
})


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_case = array("i")
        self._stack: list[int] = []
        self.case = -1
        self.counters: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def count_max(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; hooks see the call's arguments."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stack = self._stack
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_case = self.span_parent, self.span_case

        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_case.append(self.case)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, pre)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, module, attr: str, name: str, **hooks) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "jacrel" or mod_name.startswith("jacrel.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _method(self, cls, attr: str, name: str, **hooks) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, **hooks)))
        else:
            setattr(cls, attr, self.wrap(name, raw, **hooks))

    def install(self) -> None:
        """Wrap the layer boundaries of every jacrel module (import them first)."""
        import jacrel.cli as cli
        from jacrel import combinat, grr, linalg, relations, rings, tautalg

        def term_products(cls):
            def after(args, result, pre):
                self_, other = args
                n = len(self_.terms) * (len(other.terms) if isinstance(other, cls) else 1)
                self.count(f"{cls.__module__.split('.')[-1]}.{cls.__name__}.mul.term_products", n)
            return after

        def coeff_products(args, result, pre):
            a, b = args
            n = len(a.coeffs) * (len(b.coeffs) if isinstance(b, rings.LaurentSeries) else 1)
            self.count("rings.LaurentSeries.mul.coeff_products", n)

        self._method(rings.DensePoly, "__mul__", "rings.DensePoly.mul")
        self._method(rings.LaurentSeries, "__mul__", "rings.LaurentSeries.mul",
                     after=coeff_products)
        for attr in ("laurent_pow_inv", "series_exp", "log1p_series"):
            self._rebind(rings, attr, f"rings.{attr}")

        def stirling_before(args):
            n, m = args
            if 0 < m < n:
                return (n, m) in combinat._stirling_table
            return None

        def stirling_after(args, result, pre):
            if pre is not None:
                self.count("combinat.stirling2.lookups")
                self.count("combinat.stirling2.hits", int(pre))

        self._rebind(combinat, "stirling2", "combinat.stirling2",
                     before=stirling_before, after=stirling_after)
        for attr in ("p_poly", "inv_log1p_pow", "b_sum", "b_gen", "verify_identity4"):
            self._rebind(combinat, attr, f"combinat.{attr}")

        self._method(tautalg.TautElement, "__mul__", "tautalg.TautElement.mul",
                     after=term_products(tautalg.TautElement))
        self._method(tautalg.BivarPoly, "__mul__", "tautalg.BivarPoly.mul")
        for attr in ("poly_power", "build_g_poly", "build_h_poly"):
            self._rebind(tautalg, attr, f"tautalg.{attr}")

        def row_added(args, result, pre):
            space = args[0]
            self.count("linalg.rows_added")
            if result:
                self.count("linalg.rows_useful")
                row = next(reversed(space.pivots.values()))
                self.count_max("linalg.max_entry_bits",
                               max(abs(x).bit_length() for x in row))

        self._method(linalg.RowSpace, "add", "linalg.RowSpace.add", after=row_added)
        self._method(linalg.RowSpace, "contains", "linalg.RowSpace.contains")
        self._rebind(linalg, "rank", "linalg.rank")

        def family_made(args, result, pre):
            self.count("relations.items_generated", len(result.items))
            bits = 0
            for item in result.items:
                for c in item.element.terms.values():
                    bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
            self.count_max("relations.max_coeff_bits", bits)

        self._rebind(relations, "gen_family", "relations.gen_family", after=family_made)
        for attr in ("gen_theorem1", "theorem1_family", "compare_ideals", "span_contains",
                     "epsilon_series", "verify_implication_chain"):
            self._rebind(relations, attr, f"relations.{attr}")
        self._method(relations.GradedSpan, "from_family", "relations.GradedSpan.from_family")

        self._method(grr.GrrElement, "__mul__", "grr.GrrElement.mul",
                     after=term_products(grr.GrrElement))
        for attr in ("ch_vk", "chern_classes", "gamma_extract", "gamma_top_reference",
                     "derive_theorem1", "pushforward", "extract_amj"):
            self._rebind(grr, attr, f"grr.{attr}")

        # cmd_* stay unwrapped: cli.main's self time is parse + render + JSON
        self._rebind(cli, "main", "cli.main")

    def cache_counters(self) -> None:
        """Record the module caches' sizes and hit counts at end of process."""
        from jacrel import combinat, relations
        self.count_max("cache.stirling_table.size", len(combinat._stirling_table))
        for name in ("monomials_of_bidegree", "_bare_log_inv_pow"):
            info = getattr(relations, name).cache_info()
            self.count_max(f"cache.{name.lstrip('_')}.size", info.currsize)
            self.count(f"relations.{name}.hits", info.hits)
            self.count(f"relations.{name}.lookups", info.hits + info.misses)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counters."""
        n = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_s[name_id] += ends[i] - starts[i] - child[i]
        return {"calls": dict(zip(self.names, calls)),
                "self_s": dict(zip(self.names, self_s)),
                "counters": dict(self.counters)}

    def write_spans(self, path: str) -> None:
        """Dump the spans: one JSON header line, then the five raw arrays."""
        header = {"names": self.names, "count": len(self.span_name),
                  "arrays": ["name:i", "start:d", "end:d", "parent:i", "case:i"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_case):
                arr.tofile(fh)


def merge(summaries: list[dict]) -> dict:
    """Combine summaries of processes that together made one pass."""
    out: dict = {"calls": {}, "self_s": {}, "counters": {}}
    for s in summaries:
        for key in ("calls", "self_s"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for name, v in s["counters"].items():
            prev = out["counters"].get(name, 0)
            out["counters"][name] = max(prev, v) if name in MAX_COUNTERS else prev + v
    return out
