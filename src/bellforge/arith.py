"""Argument checks and the contract error shared by the package.

Everything in the package is exact: unbounded ``int`` arithmetic, and
``fractions.Fraction`` values, which are always stored reduced with a
positive denominator.  Factorization and divisor sums are in
:mod:`bellforge.divisors`.
"""

from __future__ import annotations


class InconsistencyError(ArithmeticError):
    """An exact computation produced a value its contract rules out."""


def require_int(value, name: str) -> int:
    """``value`` if it is a real ``int``: a ``bool`` or a ``float`` raises
    :class:`TypeError` rather than being coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    return value


def require_natural(n: int, name: str = "n") -> int:
    if require_int(n, name) < 0:
        raise ValueError(f"{name} must be >= 0")
    return n


def require_positive(n: int, name: str = "n") -> int:
    if require_int(n, name) < 1:
        raise ValueError(f"{name} must be >= 1")
    return n
