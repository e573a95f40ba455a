"""Exact rank computations on integer rows.

Rows are sequences of Python ints, so there is no rounding, no modulus and
no rational arithmetic: a caller with rational coefficients scales each row
to integers first (a nonzero scalar changes no span).  ``RowSpace`` keeps
one echelon row per pivot column and reduces each new row by fraction-free
elimination against them, in the order they were inserted; the entries are
divided by their gcd once per inserted row, after the whole reduction.
``RowSpace.fill`` is the one loop that inserts rows until a space is full:
it reads no row after the one that fills it, and ``rank`` is that loop on
an empty space.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence


class RowSpace:
    """Incrementally built row space with exact integer echelon rows.

    ``pivots`` maps each pivot column to its primitive echelon row, in
    insertion order.  A row is zero at the pivot columns of every row
    inserted before it, so one pass in that order clears them all, and any
    prefix of another space's ``pivots`` items is a valid start.
    """

    def __init__(self, ncols: int,
                 pivots: Iterable[tuple[int, tuple[int, ...]]] = ()) -> None:
        self.ncols = ncols
        self.pivots: dict[int, tuple[int, ...]] = dict(pivots)

    def _reduce(self, row: Sequence[int]) -> tuple[int, ...] | None:
        work = row
        for col, piv in self.pivots.items():
            x = work[col]
            if x:
                p = piv[col]
                work = [w * p - v * x for w, v in zip(work, piv)]
        g = gcd(*work)
        if g == 0:
            return None
        return tuple(x // g for x in work)

    def add(self, row: Sequence[int]) -> bool:
        """Insert an integer row; returns True when it enlarged the space."""
        reduced = self._reduce(row)
        if reduced is None:
            return False
        col = next(i for i, x in enumerate(reduced) if x)
        self.pivots[col] = reduced
        return True

    def fill(self, rows: Iterable[Sequence[int]]) -> int:
        """Insert rows until the space is full, reading none after the one
        that fills it; returns the rank."""
        if len(self.pivots) < self.ncols:
            for row in rows:
                if self.add(row) and len(self.pivots) == self.ncols:
                    break
        return len(self.pivots)

    def contains(self, row: Sequence[int]) -> bool:
        return self._reduce(row) is None

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(rows: Iterable[Sequence[int]], ncols: int) -> int:
    return RowSpace(ncols).fill(rows)
