"""Exact-arithmetic engine for tautological cycle relations on Jacobian varieties.

The package builds, compares and cross-derives three families of relations
among the graded components of a curve class inside its Jacobian, working in
the free bigraded algebra those components generate under the Pontryagin
product.  Everything runs over exact rationals: combinatorial identities,
truncated Laurent expansions, graded-ideal rank comparisons, and a symbolic
Grothendieck-Riemann-Roch replay that re-derives the relation family from
Chern-class vanishing.
"""

from .rings import (QQ, DensePoly, InvariantViolation, LaurentSeries, TruncationError,
                    laurent_pow_inv, log1p_series, series_exp)
from .combinat import (IdentityReport, b_gen, b_sum, inv_log1p_pow, p_poly,
                       stirling2, verify_identity4)
from .tautalg import TautElement
from .relations import (ChainReport, EpsilonReport, IdealComparison,
                        RelationFamily, RelationItem, compare_ideals,
                        epsilon_series, family_from_json, family_to_json,
                        gen_family, gen_theorem1, span_contains,
                        theorem1_family, verify_implication_chain)
from .grr import (ChernData, GammaData, GrrContext, GrrElement, UpstairsTerm,
                  ch_vk, chern_classes, derive_theorem1, extract_amj,
                  gamma_extract, gamma_top_reference, pushforward)

__version__ = "0.1.0"

__all__ = [
    "QQ", "DensePoly", "InvariantViolation", "LaurentSeries", "TruncationError",
    "laurent_pow_inv", "log1p_series", "series_exp",
    "IdentityReport", "b_gen", "b_sum", "inv_log1p_pow", "p_poly", "stirling2",
    "verify_identity4",
    "TautElement",
    "ChainReport", "EpsilonReport", "IdealComparison", "RelationFamily",
    "RelationItem", "compare_ideals", "epsilon_series", "family_from_json",
    "family_to_json", "gen_family", "gen_theorem1", "span_contains",
    "theorem1_family", "verify_implication_chain",
    "ChernData", "GammaData", "GrrContext", "GrrElement", "UpstairsTerm",
    "ch_vk", "chern_classes", "derive_theorem1", "extract_amj",
    "gamma_extract", "gamma_top_reference", "pushforward",
    "__version__",
]
