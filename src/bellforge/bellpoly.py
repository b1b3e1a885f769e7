"""Coefficients of factored products as closed sums over partitions.

For a product ``f(t) = prod_j prod_{m in C_j} (1 - z_j t^m)^{a_j}`` the
coefficient of ``t^n`` equals

    sum over multiplicity vectors (k_1..k_n) of n  of
        prod_j (1/k_j!) * (w_j / j)^{k_j}

where ``w_j = -sum_factors a * (sum_{d in C, d|j} d * z^{j/d})`` is ``j``
times the ``t^j`` coefficient of ``log f``.  The coefficient of ``t^n`` in
``1/f(t)`` is the same sum with every weight negated, so a ratio ``f/g``
has weights ``f``'s minus ``g``'s.  Being a complete Bell polynomial in the
``w_j / j``, the sum obeys ``n c_n = sum_{k=1..n} w_k c_{n-k}`` (Comtet,
1974, ch. 3), which :func:`ratio_coefficients` runs on whole prefixes; the
literal sum, one term per partition, is kept only as the tests' reference.
Nothing here keeps state: every request runs its own recurrence, which
:func:`work_estimate` prices before it runs.  Everything is exact and
independently checkable against :mod:`bellforge.series`, which imports
nothing from this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from .arith import require_natural
from .supports import FINITE, ProductSpec, SupportSet, _require_sides


class InconsistencyError(ArithmeticError):
    """An exact computation produced a value its contract rules out."""


def bell_extend(coeffs: list[int], weights: list[int], n: int) -> None:
    """Append ``A_m`` for ``m = len(coeffs)..n`` to ``coeffs`` from
    ``m A_m = sum_{k=1..m} weights[k] A_{m-k}``.  For weights of a product
    every division is exact, so a remainder raises :class:`InconsistencyError`.
    """
    for m in range(len(coeffs), n + 1):
        a_m, rem = divmod(sum(map(mul, weights[1 : m + 1], coeffs[m - 1 :: -1])), m)
        if rem:
            raise InconsistencyError(f"Bell recurrence: inexact division by {m}")
        coeffs.append(a_m)


def work_estimate(route: str, numer, denom, n: int) -> int:
    """Work of ``route`` (``"faa"`` or ``"series"``) on ``numer/denom`` to order
    ``n`` in one unit: ``steps (1 + B/64)^1.5``, plus ``(1 + B/64)^2`` per output
    coefficient for its gcd and decimal form.  Callers check it; nothing here does."""
    steps, bits = kernel_size(route, numer, denom, n)
    return (8 * steps * isqrt((64 + bits) ** 3) + (n + 1) * (64 + bits) ** 2) // 4096


def kernel_size(route: str, numer, denom, n: int) -> tuple[int, int]:
    """``(steps, B)`` of ``route`` to order ``n``, in O(factors) closed forms:
    the Bell recurrence's terms and weight table, or the fold passes and an
    ``n (n + 1) / 2`` triangle per reciprocal and per Cauchy product.  Every
    integer either route produces is dominated by ``prod (1 - Z L^m s^m)^-S``
    (``L`` the lcm of the z denominators, ``Z = max(1, |z|)``, ``S = sum |a|``),
    so as ``p_S(n) <= exp(pi sqrt(2Sn/3))`` and ``p_S(n) <= p(n) S^n`` it has
    at most ``B`` bits."""
    require_natural(n)
    factors = [f for side in (numer, denom) if side is not None for f in side.factors]
    triangle = n * (n + 1) // 2
    if route == "faa":
        steps = triangle + len(factors) * n * (isqrt(n) + n.bit_length())
    elif route == "series":
        steps = sum(abs(f.a) * _fold_steps(f.support, n) for f in factors)
        steps += triangle * ((denom is not None) + (numer is not None and denom is not None))
    else:
        raise ValueError(f"unknown route {route!r}")
    scale = lcm(*(f.z.denominator for f in factors))
    lz = max([scale] + [abs(f.z.numerator) * (scale // f.z.denominator) for f in factors])
    size = sum(abs(f.a) for f in factors)
    # B = n log2(L Z) + min(3.71 sqrt(S n), n log2 S + 3.71 sqrt n) + 1
    count = min(_sqrt_bits(size * n), _log2_times(size, n) + _sqrt_bits(n))
    return steps, _log2_times(lz, n) + count + 1


def _log2_times(x: int, n: int) -> int:
    """At least ``n log2 x`` and within ``n / 16 + 1`` of it, as
    ``(x^16 - 1).bit_length()`` is ``ceil(16 log2 x)``."""
    return -(-n * (x**16 - 1).bit_length() // 16)


def _sqrt_bits(x: int) -> int:
    """``3.71 (isqrt(x) + 1)`` rounded down; with one bit added it bounds the
    bits of ``p(x) <= exp(pi sqrt(2x/3))``."""
    return 371 * (isqrt(x) + 1) // 100


def _fold_steps(support: SupportSet, n: int) -> int:
    """``sum (n - m + 1)`` over the members ``m <= n`` of ``support``."""
    if support.kind == FINITE:
        return sum(n - m + 1 for m in support.members if m <= n)
    k = n // support.r
    return k * (n + 1) - support.r * k * (k + 1) // 2


def ratio_coefficients(
    numer: ProductSpec | None, denom: ProductSpec | None, n: int
) -> list[Fraction]:
    """Coefficients ``0..n`` of numerator-product / denominator-product;
    ``None`` on either side is the constant 1.  The ratio is the product of the
    numerator's factors and the denominator's with negated exponents, so one
    Bell recurrence evaluates it; with ``L`` the lcm of all z denominators the
    weights ``w_k L^k`` and ``A_m = c_m L^m`` are integers."""
    _require_sides(numer, denom)
    require_natural(n)
    sides = [s for s in (numer, denom if denom is None else denom.negated()) if s is not None]
    scale = lcm(*(s.z_scale() for s in sides))
    factors = tuple(f for s in sides for f in s.factors)
    weights = [0] + [_scaled_weight(k, factors, scale) for k in range(1, n + 1)]
    coeffs = [1]
    bell_extend(coeffs, weights, n)
    return [Fraction(a, scale**m) for m, a in enumerate(coeffs)]


def _scaled_weight(k: int, factors, scale: int) -> int:
    """The weight ``w_k`` of ``factors`` times ``scale^k``, in integers:
    ``z^(k/d) scale^k`` is ``(z scale^d)^(k/d)``, and ``z scale`` is an integer."""
    total = 0
    for f in factors:
        z_scaled = f.z.numerator * (scale // f.z.denominator)
        for d in f.support.divisors_in(k):
            total -= f.a * d * (z_scaled * scale ** (d - 1)) ** (k // d)
    return total
