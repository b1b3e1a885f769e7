"""Partition enumeration.

Partitions of ``n`` are represented as multiplicity vectors
``(k_1, ..., k_n)`` with ``sum j*k_j == n``; for ``n == 0`` the vector is
empty.  The enumeration order is fixed: lexicographically decreasing on the
reversed vector ``(k_n, ..., k_1)``, so the one-part partition comes first
and the all-ones partition last.  Golden tests rely on this order.
"""

from __future__ import annotations

from collections.abc import Iterator

from .arith import require_natural

PartitionVector = tuple[int, ...]


def iter_partitions(n: int) -> Iterator[PartitionVector]:
    """Yield every multiplicity vector of ``n`` exactly once.

    >>> list(iter_partitions(4))[0]
    (0, 0, 0, 1)
    """
    require_natural(n)
    if n == 0:
        yield ()
        return
    ks = [0] * (n + 1)
    j, rem = n, n
    while True:
        # descend, giving each part size the largest multiplicity left
        while j >= 2:
            k = rem // j
            ks[j] = k
            rem -= j * k
            j -= 1
        ks[1] = rem
        yield tuple(ks[1:])
        # backtrack to the smallest part size >= 2 with a nonzero count
        j = 2
        while j <= n and ks[j] == 0:
            j += 1
        if j > n:
            return
        ks[j] -= 1
        rem += j
        j -= 1
