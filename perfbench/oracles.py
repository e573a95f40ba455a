"""Bench-side reference values that share no code path with ``src/``.

Each oracle enumerates with ``itertools`` and ``math.factorial`` where the
library uses its own composition walkers, power machinery or Stirling
formula, so a wrong answer in the library cannot be mirrored here.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, prod


def factorial_weight(mono: tuple[int, ...]) -> int:
    return prod(factorial(a + 1) for a in mono)


def orderings(mono: tuple[int, ...]) -> int:
    """Distinct orderings of a multiset: s! / prod(multiplicity!)."""
    return factorial(len(mono)) // prod(factorial(k) for k in Counter(mono).values())


def vdgk6_items(g: int, d: int, r: int) -> dict[tuple[int, int], dict]:
    """The t^n coefficient of G(t)^s for n > d-r+s, keyed by (s, n).

    Each coefficient is sum over multisets m of s generators of total weight
    n - 2s of orderings(m) * prod (a_i+1)!; zero coefficients are omitted.
    """
    items: dict[tuple[int, int], dict] = {}
    for s in range(1, r + 1):
        by_weight: dict[int, dict] = {}
        for mono in combinations_with_replacement(range(g - 1, -1, -1), s):
            by_weight.setdefault(sum(mono), {})[mono] = Fraction(
                orderings(mono) * factorial_weight(mono))
        for w, terms in by_weight.items():
            n = 2 * s + w
            if n > d - r + s:
                items[(s, n)] = terms
    return items


def composition_sum(g: int, r: int, N: int) -> dict[tuple[int, ...], Fraction]:
    """sum over ordered (a_1..a_r), a_i < g, sum N, of prod (a_i+1)! C(a_1)...C(a_r)."""
    terms: dict[tuple[int, ...], Fraction] = {}
    if N < 0:
        return terms
    for parts in product(range(g), repeat=r):
        if sum(parts) == N:
            mono = tuple(sorted(parts, reverse=True))
            terms[mono] = terms.get(mono, Fraction(0)) + factorial_weight(parts)
    return terms


def stirling_table(n_max: int) -> list[list[int]]:
    """S(n, k) for n, k <= n_max by the recurrence S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    table = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    table[0][0] = 1
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            table[n][k] = k * table[n - 1][k] + table[n - 1][k - 1]
    return table


def chain_scalars(g: int, d: int, r: int, table: list[list[int]]) -> dict[tuple[int, int], Fraction]:
    """Expected extraction scalars m!/(n-1)! S(n-1, m), m = d-r+s, keyed by (s, n)."""
    out: dict[tuple[int, int], Fraction] = {}
    for s in range(1, r + 1):
        m = d - r + s
        for n in range(m + 1, s * (g + 1) + 1):
            out[(s, n)] = Fraction(factorial(m), factorial(n - 1)) * table[n - 1][m]
    return out
