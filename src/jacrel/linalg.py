"""Exact rank computations over the rationals.

Rows are cleared to primitive integer rows and reduced by fraction-free
elimination against the stored pivot rows.  The entries are divided by their
gcd once per inserted row, after the whole reduction, not after every
combination; this keeps Fraction out of the inner loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


def _normalize_row(row: Sequence[Fraction | int]) -> tuple[int, ...] | None:
    """Scale a rational row to a primitive integer row; None if zero."""
    denom = 1
    for x in row:
        if isinstance(x, Fraction):
            denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) if isinstance(x, Fraction) else x * denom for x in row]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        return None
    return tuple(x // g for x in ints)


class RowSpace:
    """Incrementally built row space with exact integer echelon rows."""

    def __init__(self, ncols: int) -> None:
        self.ncols = ncols
        self.pivots: dict[int, tuple[int, ...]] = {}

    def _reduce(self, row: Sequence[int]) -> tuple[int, ...] | None:
        work = list(row)
        for col in sorted(self.pivots):
            x = work[col]
            if x == 0:
                continue
            piv = self.pivots[col]
            p = piv[col]
            work = [w * p - v * x for w, v in zip(work, piv)]
        g = 0
        for x in work:
            g = gcd(g, x)
        if g == 0:
            return None
        return tuple(x // g for x in work)

    def add(self, row: Sequence[Fraction | int]) -> bool:
        """Insert a row; returns True when it enlarged the space."""
        prim = _normalize_row(row)
        if prim is None:
            return False
        reduced = self._reduce(prim)
        if reduced is None:
            return False
        col = next(i for i, x in enumerate(reduced) if x != 0)
        self.pivots[col] = reduced
        return True

    def contains(self, row: Sequence[Fraction | int]) -> bool:
        prim = _normalize_row(row)
        if prim is None:
            return True
        return self._reduce(prim) is None

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(rows: Iterable[Sequence[Fraction | int]], ncols: int) -> int:
    space = RowSpace(ncols)
    for row in rows:
        space.add(row)
    return space.rank
