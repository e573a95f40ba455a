"""Independent oracles and random generators shared by the test modules.

Everything here is deliberately naive: enumeration instead of closed forms,
term-by-term expansion instead of library calls, so the production routes
are checked against genuinely independent computations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from jacrel.rings import QQ, DensePoly, LaurentSeries


def set_partitions(collection):
    """Generate all partitions of a list into non-empty blocks."""
    if not collection:
        yield []
        return
    rest, last = collection[:-1], collection[-1]
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [last]] + smaller[i + 1:]
        yield smaller + [[last]]


def stirling_by_enumeration(n: int, m: int) -> int:
    """Count partitions of an n-set into exactly m non-empty blocks."""
    if n == 0:
        return 1 if m == 0 else 0
    return sum(1 for p in set_partitions(list(range(n))) if len(p) == m)


def stirling_row_by_enumeration(n: int) -> dict[int, int]:
    """Counts of all block sizes from one pass over the set partitions."""
    row: dict[int, int] = {}
    if n == 0:
        return {0: 1}
    for p in set_partitions(list(range(n))):
        row[len(p)] = row.get(len(p), 0) + 1
    return row


def exp_poly_coeffs(scale: int, order: int) -> list[Fraction]:
    """Coefficients of e^(scale*t) as a t-polynomial, expanded term by term."""
    out = []
    power = Fraction(1)
    fact = 1
    for i in range(order):
        out.append(power / fact)
        power *= scale
        fact *= i + 1
    return out


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-60, 60), rng.randint(1, 24))


def rand_poly(rng: random.Random, max_deg: int = 5) -> DensePoly:
    coeffs = [rand_fraction(rng) for _ in range(rng.randint(0, max_deg + 1))]
    return DensePoly(QQ, coeffs)


def rand_laurent(rng: random.Random, min_val: int = -3) -> LaurentSeries:
    val = rng.randint(min_val, 3)
    length = rng.randint(0, 5)
    coeffs = [rand_fraction(rng) for _ in range(length)]
    trunc = val + length + rng.randint(0, 3)
    return LaurentSeries(QQ, val, coeffs, trunc)


def rand_taut(rng: random.Random, g: int):
    from jacrel.tautalg import TautElement
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(sorted((rng.randint(0, g - 1)
                             for _ in range(rng.randint(0, 3))), reverse=True))
        terms[mono] = terms.get(mono, Fraction(0)) + rand_fraction(rng)
    return TautElement(g, terms)


def rand_homogeneous_taut(rng: random.Random, g: int, size: int, weight: int):
    from jacrel.relations import monomials_of_bidegree
    from jacrel.tautalg import TautElement
    basis = monomials_of_bidegree(g, size, weight)
    if not basis:
        return TautElement.zero(g)
    terms = {m: rand_fraction(rng) for m in rng.sample(basis, min(len(basis), 3))}
    return TautElement(g, terms)


def divide_by_one_plus_u(p):
    """Exact synthetic division of a BivarPoly by (1+u); a remainder is an error."""
    from jacrel.rings import InvariantViolation
    from jacrel.tautalg import BivarPoly
    cols = {}
    for (ue, te), elt in p.terms.items():
        cols.setdefault(ue, {})[te] = elt
    quotient = {}
    carry = {}
    for ue in range(p.u_degree, 0, -1):
        merged = dict(carry)
        for te, elt in cols.get(ue, {}).items():
            merged[te] = merged[te] + elt if te in merged else elt
        carry = {}
        for te, elt in merged.items():
            if not elt.is_zero:
                quotient[(ue - 1, te)] = elt
                carry[te] = -elt
    remainder = dict(carry)
    for te, elt in cols.get(0, {}).items():
        remainder[te] = remainder[te] + elt if te in remainder else elt
    for te, elt in remainder.items():
        if not elt.is_zero:
            raise InvariantViolation(
                f"division by (1+u) left a remainder at t^{te}: {elt}")
    return BivarPoly(p.g, quotient, p.t_trunc)


@lru_cache(maxsize=None)
def _expanded_power(kind: str, g: int, s: int):
    from jacrel.tautalg import build_g_poly, build_h_poly, poly_power
    return poly_power(build_g_poly(g) if kind == "G" else build_h_poly(g), s)


def family_by_powers(family_id: str, g: int, d: int, r: int):
    """The relation family read off the expanded powers G(t)^s and H(u,t)^s.

    This is the reference route for ``gen_family``: it multiplies out every
    power as a polynomial with algebra coefficients instead of using the
    per-monomial closed forms.  Returns the items as (s, t_exp, u_exp, element).
    """
    items = []
    for s in range(1, r + 1):
        bound = d - r + s
        if family_id == "vdgk6":
            power = _expanded_power("G", g, s)
            for n in range(max(2 * s, bound + 1), s * (g + 1) + 1):
                element = power.coeff(0, n)
                if not element.is_zero:
                    items.append((s, n, None, element))
            continue
        power = _expanded_power("H", g, s)
        if family_id == "strong8":
            items.extend((s, te, ue, element) for ue, te, element in power.items()
                         if ue > bound)
        else:
            quotient = divide_by_one_plus_u(power)
            items.extend((s, te, None, element)
                         for te, element in sorted(quotient.u_slice(bound).items()))
    items.sort(key=lambda it: (it[0], it[1], -1 if it[2] is None else it[2]))
    return items
