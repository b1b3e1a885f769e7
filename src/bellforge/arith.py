"""Argument checks shared by the package.

Everything in the package is exact: unbounded ``int`` arithmetic, and
``fractions.Fraction`` values, which are always stored reduced with a
positive denominator.  Factorization and divisor sums are in
:mod:`bellforge.divisors`.
"""

from __future__ import annotations


def require_natural(n: int, name: str = "n") -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"{name} must be an integer")
    if n < 0:
        raise ValueError(f"{name} must be >= 0")
    return n


def require_positive(n: int, name: str = "n") -> int:
    require_natural(n, name)
    if n == 0:
        raise ValueError(f"{name} must be >= 1")
    return n
