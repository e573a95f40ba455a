import random
from fractions import Fraction as F

import pytest

from jacrel.linalg import RowSpace, rank


def _random_matrix(rng: random.Random, nrows: int, ncols: int) -> list[list[int]]:
    """Random integer rows, with zero, duplicate and dependent rows mixed in."""
    # half the entries zero, so pivot columns arrive out of order
    base = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(ncols)]
            for _ in range(nrows)]
    rows = base + [[0] * ncols]
    if base:
        rows.append(list(rng.choice(base)))
    if len(base) >= 2:
        a, b = rng.sample(base, 2)
        p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        rows.append([p * x + q * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20240)
    for _ in range(60):
        ncols = rng.randint(1, 7)
        rows = _random_matrix(rng, rng.randint(0, 8), ncols)
        # a low-rank block too: products of random integer factors
        k = rng.randint(1, 3)
        left = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(5)]
        right = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(k)]
        rows += [[sum(l[t] * right[t][c] for t in range(k)) for c in range(ncols)]
                 for l in left]
        expected = sympy.Matrix(rows).rank()
        space = RowSpace(ncols)
        for row in rows:
            space.add(row)
        assert space.rank == expected == rank(rows, ncols), rows


def test_contains_combinations_and_rejects_outsiders():
    space = RowSpace(4)
    a, b = [2, 0, 1, 3], [0, 4, -2, 1]
    assert space.add(a) and space.add(b)
    assert not space.add([x + y for x, y in zip(a, b)])
    assert space.contains([3 * x - 5 * y for x, y in zip(a, b)])
    assert space.contains([0, 0, 0, 0])
    assert not space.contains([0, 0, 0, 1])
    assert not space.contains([1, 0, 0, 0])
    assert space.rank == 2


def test_last_pivot_is_the_row_just_inserted():
    # the benchmark's tracer reads the newest echelon row this way, so the
    # pivots stay in insertion order even when a new pivot column is smaller
    space = RowSpace(3)
    for row, echelon in (([0, 2, 4], (0, 1, 2)), ([3, 6, 9], (1, 0, -1)),
                         ([0, 0, 5], (0, 0, 1))):
        assert space.add(row)
        assert next(reversed(space.pivots.values())) == echelon
    assert list(space.pivots) == [1, 0, 2]
    assert not space.add([1, 1, 1])
    assert next(reversed(space.pivots.values())) == (0, 0, 1)


def test_rows_must_be_integers():
    with pytest.raises(TypeError):
        RowSpace(2).add([F(1, 2), F(1)])
    with pytest.raises(TypeError):
        RowSpace(2).add([0.5, 1.0])
