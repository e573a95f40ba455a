"""Machine-speed reference for the jacrel benchmark.

The 2-core x86-64 container this benchmark was defined on changes speed by
20-30 % within seconds: other tenants share the host, so the same work takes
more CPU time when they are busy, and a vCPU is sometimes not scheduled.  The
benchmark therefore times each case in CPU seconds of the process that runs
it (which drops the stolen time) and scales that by the machine's current
speed: ``chunk()`` runs a fixed piece of pure-Python work shaped like
jacrel's hot paths (``Fraction`` products into a dict keyed by sorted
tuples, integer row operations) between cases, never during one, and a case
measured between two chunks is scaled by ``factor(before, after)``.  The
result is the CPU time the case would have taken at the speed the machine
had when ``REF_S`` was measured.  The reference shares no code with
``src/``, so a change to jacrel cannot move it.
"""

from __future__ import annotations

from fractions import Fraction
from time import thread_time

# typical chunk() seconds on the machine the benchmark was defined on; sets
# only the scale of the reported times
REF_S = 0.0070


def _work() -> int:
    acc: dict[tuple[int, ...], Fraction] = {}
    for i in range(1, 850):
        key = tuple(sorted((i % 7, i % 5, i % 3), reverse=True))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
    row = list(range(-20, 20))
    for i in range(1, 240):
        row = [(x * i - y) % 1000003 for x, y in zip(row, reversed(row))]
    return len(acc) + row[0]


def chunk() -> float:
    """CPU seconds the reference work takes now."""
    start = thread_time()
    _work()
    return thread_time() - start


def factor(before: float, after: float) -> float:
    """Scale for a CPU time measured between two chunks."""
    return REF_S / ((before + after) / 2)
