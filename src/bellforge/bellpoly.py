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
integers of :func:`~bellforge.supports.scaled_factors`, started from ``N!``
when the exponents' denominators have an lcm ``q > 1``.  Nothing here keeps
state: every request runs its own recurrence, which :func:`work_estimate`
prices before it runs.  Everything is exact and independently checkable
against :mod:`bellforge.series`, which imports nothing from this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt
from operator import mul

from .arith import require_natural
from .supports import FINITE, ProductSpec, SupportSet, scaled_factors, unscale


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
    """Work of ``route`` (``"faa"`` or ``"series"``) on ``numer/denom`` to order ``n`` in
    one unit: ``steps (1 + B/64)^1.5``, plus ``(1 + B/64)^2`` per output coefficient for its
    gcd and decimal form.  Callers check it; nothing here does."""
    steps, bits = kernel_size(route, numer, denom, n)
    return (8 * steps * isqrt((64 + bits) ** 3) + (n + 1) * (64 + bits) ** 2) // 4096


def kernel_size(route: str, numer, denom, n: int) -> tuple[int, int]:
    """``(steps, B)`` of ``route`` to order ``n``, in O(factors) closed forms:
    the Bell recurrence's terms and weight table, or the fold passes' products,
    a pass per unit of ``|q a|`` on both sides and per finite member or infinite
    family (none if ``z = 0``), and for ``q > 1`` the root's ``n(n + 1)/2`` products.
    Every integer either route produces (a q-series term and sum too) is dominated
    by ``prod (1 - Z L^m s^m)^-S`` (``L`` the lcm of the z denominators,
    ``Z = max(1, |z|)``, ``S = sum |q a|``), so as ``p_S(n) <= exp(pi sqrt(2Sn/3))``
    and ``p_S(n) <= p(n) S^n`` it has at most ``B`` bits.  For ``q > 1``, with
    ``N! n <= n^n``, each weight, value and partial sum is at most ``(n q L Z)^n``
    times that ``p_S(n)``, ``S`` grown by ``ceil(S / q)`` for the root's terms, a
    ``G_k`` times an ``F_(n-k)``."""
    require_natural(n)
    scale, q, factors = scaled_factors(numer, denom)
    if route == "faa":
        steps = n * (n + 1) // 2 + sum(_walk_steps(support, n) for support, _, _ in factors)
    elif route == "series":
        steps = sum(abs(a) * _fold_steps(s, a, n) for s, z, a in factors if z)
        steps += n * (n + 1) // 2 if q > 1 else 0
    else:
        raise ValueError(f"unknown route {route!r}")
    lz = max([scale] + [abs(z) for _, z, _ in factors])
    size = sum(abs(a) for _, _, a in factors)
    if q > 1:
        lz, size = lz * q * n, size - (-size // q)
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


def _walk_steps(support: SupportSet, n: int) -> int:
    """At least the weight table's additions, ``n // m`` per member ``m <= n``:
    ``sum_{j <= k} k // j <= k.bit_length() k`` on the multiples of ``r``, ``k = n // r``."""
    if support.kind == FINITE:
        return sum(n // m for m in support.members)
    k = n // support.r
    return k * k.bit_length()


def _fold_steps(support: SupportSet, a: int, n: int) -> int:
    """Products of one fold pass to order ``n``: ``n - m + 1`` per finite member ``m <= n``;
    on the multiples of ``r``, per q-series term ``T_k`` at ``s^e``, ``e = r k(k+1)/2 <= n``
    (``r k^2`` if ``a < 0``), ``n - e + 1`` for its monomial and ``max(0, n - e + 1 - r k)``
    for each of its one (``a > 0``) or two divisions, 0 only for the last ``k``."""
    if support.kind == FINITE:
        return sum(n - m + 1 for m in support.members if m <= n)
    r, j = support.r, 1 if a > 0 else 2
    k = (isqrt(8 * (n // r) + 1) - 1) // 2 if a > 0 else isqrt(n // r)
    last = r * k * (k + 1) // 2 if a > 0 else r * k * k
    terms = k * (n + 1) - r * k * (k + 1) * (k + 2 if a > 0 else 2 * k + 1) // 6
    return (1 + j) * terms - j * (r * k * (k - 1) // 2 + min(n + 1 - last, r * k))


def ratio_coefficients(
    numer: ProductSpec | None, denom: ProductSpec | None, n: int
) -> list[Fraction]:
    """Coefficients ``0..n`` of numerator-product / denominator-product;
    ``None`` on either side is the constant 1.  One Bell recurrence on the
    integers ``A_m = n! c_m (L q)^m`` of :func:`scaled_factors` (``n!`` for
    ``q > 1`` only) evaluates it: a support member ``m`` adds ``-a m (z (L q)^m)^j``
    to the weight ``w_k (L q)^k`` of ``k = j m``."""
    scale, q, factors = scaled_factors(numer, denom)
    require_natural(n)
    weights = [0] * (n + 1)
    for support, z, a in factors:
        for m in support.members_up_to(n):
            base = z * scale ** (m - 1) * q**m
            term = -a * m * base // q
            for k in range(m, n + 1, m):
                weights[k] += term
                term *= base
    coeffs = [1 if q == 1 else factorial(n)]
    bell_extend(coeffs, weights, n)
    return unscale(coeffs, scale * q, coeffs[0])
