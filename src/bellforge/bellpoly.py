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
The weight table is one walk over each factor's support members, on the
integers of :func:`~bellforge.supports.scaled_factors`, and the recurrence runs
from 1 on the integers ``(L q^2)^n c_n``, ``q`` the lcm of the exponents'
denominators, handed back with their scale.  Nothing here keeps state: every
request runs its own recurrence, whose steps :func:`kernel_steps` counts before it
runs.  Everything is exact and independently checked against :mod:`bellforge.series`.
"""

from __future__ import annotations

from operator import mul

from .arith import InconsistencyError, require_natural
from .supports import FINITE, ProductSpec, scaled_factors


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


def kernel_steps(factors, q: int, n: int) -> int:
    """Steps of :func:`ratio_coefficients` to order ``n`` on the factors of
    :func:`scaled_factors` (the same for any ``q``): the recurrence's ``n(n + 1)/2``
    terms, and at least the weight table's additions, ``n // m`` per member ``m``:
    ``sum_{j <= k} k // j <= k.bit_length() k`` on the multiples of ``r``, ``k = n // r``."""
    steps = n * (n + 1) // 2
    for support, _, _ in factors:
        if support.kind == FINITE:
            steps += sum(n // m for m in support.members)
        else:
            steps += (k := n // support.r) * k.bit_length()
    return steps


def ratio_coefficients(spec: ProductSpec | None, n: int) -> tuple[list[int], int]:
    """``(A, L q^2)``, ``A_m = (L q^2)^m c_m`` for the coefficients ``c_0..c_n`` of ``spec``
    (``None`` is 1; a ratio is one spec, see :func:`~bellforge.supports.ratio`) by one Bell
    recurrence on the integers of :func:`scaled_factors`, from ``A_0 = 1``: a support
    member ``m`` adds ``-a m (z (L q^2)^m)^j`` to the weight ``w_k (L q^2)^k`` of ``k = j m``."""
    scale, q, factors = scaled_factors(spec)
    require_natural(n)
    weights = [0] * (n + 1)
    for support, z, a in factors:
        for m in support.members_up_to(n):
            base = z * scale ** (m - 1) * q ** (2 * m)
            term = -a * m * base // q
            for k in range(m, n + 1, m):
                weights[k] += term
                term *= base
    coeffs = [1]
    bell_extend(coeffs, weights, n)
    return coeffs, scale * q * q
