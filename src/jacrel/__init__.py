"""Exact-arithmetic engine for tautological cycle relations on Jacobian varieties.

The package builds, compares and cross-derives three families of relations
among the graded components of a curve class inside its Jacobian, working in
the free bigraded algebra those components generate under the Pontryagin
product.  Everything runs over exact rationals: combinatorial identities,
truncated Laurent expansions, graded-ideal rank comparisons, and a symbolic
Grothendieck-Riemann-Roch replay that re-derives the relation family from
Chern-class vanishing.

``import jacrel`` loads no submodule: each exported name is read from its
submodule on first access (PEP 562), so a caller pays only for the modules
it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "rings": ("DensePoly", "InvariantViolation", "LaurentSeries", "TruncationError",
              "laurent_pow_inv", "log1p_series", "series_exp"),
    "combinat": ("IdentityReport", "b_gen", "b_sum", "inv_log1p_pow", "p_poly",
                 "stirling2", "verify_identity4"),
    "tautalg": ("TautElement",),
    "relations": ("ChainReport", "EpsilonReport", "IdealComparison", "RelationFamily",
                  "RelationItem", "compare_ideals", "epsilon_series", "family_from_json",
                  "family_to_json", "gen_family", "gen_theorem1", "span_contains",
                  "theorem1_family", "verify_implication_chain"),
    "grr": ("ChernData", "GammaData", "GrrContext", "GrrElement", "UpstairsTerm",
            "ch_vk", "chern_classes", "derive_theorem1", "extract_amj",
            "gamma_extract", "gamma_top_reference", "pushforward"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
