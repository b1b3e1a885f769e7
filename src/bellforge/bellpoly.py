"""Coefficients of factored products as closed sums over partitions.

For a product ``f(t) = prod_j prod_{m in C_j} (1 - z_j t^m)^{a_j}`` the
coefficient of ``t^n`` equals

    sum over multiplicity vectors (k_1..k_n) of n  of
        prod_j (1/k_j!) * (w_j / j)^{k_j}

where ``w_j = -sum_factors a * (sum_{d in C, d|j} d * z^{j/d})`` is ``j``
times the ``t^j`` coefficient of ``log f``.  The coefficient of ``t^n`` in
``1/f(t)`` is the same sum with an extra ``(-1)^(k_1+...+k_n)``.  Being a
complete Bell polynomial in the ``w_j / j``, it obeys ``n c_n = sum_{k=1..n}
w_k c_{n-k}`` (Comtet, 1974, ch. 3), which evaluates whole prefixes; the
literal sum, one term per partition, remains as :func:`partition_power_sum`.
Everything is exact and independently checkable against :mod:`bellforge.series`.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from math import factorial, lcm
from operator import mul

from .arith import require_natural, require_positive
from .supports import Factor, ProductSpec, Record, SupportSet

DEFAULT_FAA_CAP = 60

_ZERO = Fraction(0)
_ONE = Fraction(1)


def faa_cap() -> int:
    """Size cap for the partition-sum path (env ``BELLFORGE_FAA_CAP``)."""
    raw = os.environ.get("BELLFORGE_FAA_CAP")
    if raw is None:
        return DEFAULT_FAA_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"BELLFORGE_FAA_CAP must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ValueError("BELLFORGE_FAA_CAP must be >= 0")
    return cap


def divisor_power_sum(n: int, support: SupportSet, z: Fraction) -> Fraction:
    """``sum_{d | n, d in support} d * z^(n/d)``."""
    require_positive(n)
    z = Fraction(z)
    total = _ZERO
    for d in support.divisors_in(n):
        total += d * z ** (n // d)
    return total


def log_weight(n: int, spec: ProductSpec) -> Fraction:
    """``-sum_factors a * divisor_power_sum(n, support, z)``; equals ``n``
    times the ``t^n`` coefficient of ``log f``."""
    require_positive(n)
    total = _ZERO
    for f in spec.factors:
        total -= f.a * divisor_power_sum(n, f.support, f.z)
    return total


def log_weight_table(spec: ProductSpec, n: int) -> list[Fraction]:
    """Weights ``[_, w_1, ..., w_n]`` for the partition sums (index 0 unused)."""
    require_natural(n)
    return [_ZERO] + [log_weight(j, spec) for j in range(1, n + 1)]


def partition_power_sum(n: int, weights, alternate_sign: bool = False) -> Fraction:
    """Exact evaluation of ``sum over (k_1..k_n), sum j k_j = n, of
    prod_j (1/k_j!) (weights[j]/j)^{k_j}``, one term per partition of ``n``.

    With ``alternate_sign`` each term also carries ``(-1)^(k_1+...+k_n)``,
    which is folded in by negating every weight.  Denominators are cleared
    up front (all weights are scaled by their lcm ``M``), so the depth-first
    accumulation below runs on plain integers: a partition with multiplicity
    vector ``k`` contributes ``prod scaled_j^{k_j}`` over the global
    denominator ``prod (M j)^{k_j} k_j!``, and the latter always divides
    ``M^n n!``.  Partitions using any part with weight zero contribute
    nothing and are pruned.
    """
    require_natural(n)
    if n == 0:
        return _ONE
    ws = [Fraction(w) for w in weights[: n + 1]]
    if len(ws) != n + 1:
        raise ValueError(f"need weights for parts 1..{n}")
    m_scale = lcm(*(w.denominator for w in ws[1:]))
    sign = -1 if alternate_sign else 1
    scaled = [0] * (n + 1)
    for j in range(1, n + 1):
        scaled[j] = sign * ws[j].numerator * (m_scale // ws[j].denominator)

    active = [j for j in range(n, 0, -1) if scaled[j]]
    denom = m_scale**n * factorial(n)
    if not active:
        return _ZERO
    return Fraction(_signed_partition_dfs(n, active, scaled, m_scale, denom), denom)


def _signed_partition_dfs(n, active, scaled, m_scale, denom) -> int:
    """Integer accumulator for :func:`partition_power_sum`; see there."""
    levels = len(active)
    # per part j: numerator powers scaled_j^k and denominators (M j)^k k!
    num_pow = []
    den_pow = []
    for j in active:
        kmax = n // j
        ps = [1] * (kmax + 1)
        ds = [1] * (kmax + 1)
        w = scaled[j]
        mj = m_scale * j
        for k in range(1, kmax + 1):
            ps[k] = ps[k - 1] * w
            ds[k] = ds[k - 1] * mj * k
        num_pow.append(ps)
        den_pow.append(ds)
    smallest = active[-1]

    acc = 0
    st_k = [0] * levels
    st_rem = [0] * levels
    st_num = [0] * levels
    st_den = [0] * levels
    st_rem[0] = n
    st_num[0] = 1
    st_den[0] = 1
    st_k[0] = n // active[0]
    i = 0
    while i >= 0:
        k = st_k[i]
        if k < 0:
            i -= 1
            if i >= 0:
                st_k[i] -= 1
            continue
        j = active[i]
        rem = st_rem[i] - j * k
        num = st_num[i] * num_pow[i][k]
        den = st_den[i] * den_pow[i][k]
        if rem == 0:
            acc += num * (denom // den)
            st_k[i] -= 1
            continue
        nxt = i + 1
        if nxt == levels or rem < smallest:
            st_k[i] -= 1
            continue
        if active[nxt] == 1:
            # multiplicity of part 1 is forced by the remainder
            acc += (num * num_pow[nxt][rem]) * (denom // (den * den_pow[nxt][rem]))
            st_k[i] -= 1
            continue
        st_rem[nxt] = rem
        st_num[nxt] = num
        st_den[nxt] = den
        st_k[nxt] = rem // active[nxt]
        i = nxt
    return acc


class InconsistencyError(ArithmeticError):
    """An exact computation produced a value its contract rules out."""


def product_coefficient(n: int, spec: ProductSpec) -> Fraction:
    """Coefficient of ``t^n`` in the product, via the Bell recurrence."""
    return product_coefficients(spec, n)[n]


def reciprocal_coefficient(n: int, spec: ProductSpec) -> Fraction:
    """Coefficient of ``t^n`` in the reciprocal of the product: the same
    sum with the alternating sign ``(-1)^(k_1+...+k_n)``."""
    return reciprocal_coefficients(spec, n)[n]


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


_seq_lock = threading.Lock()
# (sign, spec) -> (L, weights w_k L^k, A_m = c_m L^m, c_m); sign -1 is 1/f
_seq_cache: dict[tuple[int, ProductSpec], tuple] = {}


def product_coefficients(spec: ProductSpec, n: int) -> list[Fraction]:
    """Cached ``[coefficient(0), ..., coefficient(n)]`` of the product."""
    return _cached_sequence(1, spec, n)


def reciprocal_coefficients(spec: ProductSpec, n: int) -> list[Fraction]:
    """Cached reciprocal coefficients ``0..n``."""
    return _cached_sequence(-1, spec, n)


def _cached_sequence(sign, spec, n) -> list[Fraction]:
    """Prefix ``0..n``, extended from the last cached order.  With ``L`` the
    lcm of the z denominators, the weights and ``A_m`` are integers."""
    require_natural(n)
    key = (sign, spec)
    with _seq_lock:
        state = _seq_cache.get(key)
        if state is None:
            scale = spec.z_scale()
            state = _seq_cache[key] = (scale, [0], [1], [_ONE])
        scale, weights, coeffs, values = state
        if len(values) <= n:
            weights.extend(sign * _scaled_weight(k, spec, scale) for k in range(len(weights), n + 1))
            bell_extend(coeffs, weights, n)
            values.extend(Fraction(coeffs[m], scale**m) for m in range(len(values), n + 1))
        return values[: n + 1]


def _scaled_weight(k: int, spec: ProductSpec, scale: int) -> int:
    """``log_weight(k, spec) * scale^k`` in integers: ``z^(k/d) scale^k`` is
    ``(z scale^d)^(k/d)``, and ``z scale`` is an integer."""
    total = 0
    for f in spec.factors:
        z_scaled = f.z.numerator * (scale // f.z.denominator)
        for d in f.support.divisors_in(k):
            total -= f.a * d * (z_scaled * scale ** (d - 1)) ** (k // d)
    return total


def ratio_coefficient(n: int, numer: ProductSpec | None, denom: ProductSpec | None) -> Fraction:
    """Coefficient of ``t^n`` in numerator-product / denominator-product,
    as the convolution of product and reciprocal coefficients.  ``None``
    on either side means the constant series 1.
    """
    require_natural(n)
    if numer is None and denom is None:
        return _ONE if n == 0 else _ZERO
    if numer is None:
        return reciprocal_coefficient(n, denom)
    if denom is None:
        return product_coefficient(n, numer)
    return _convolve(product_coefficients(numer, n), reciprocal_coefficients(denom, n), n)


class IdentityReport(Record):
    """Outcome of one exact identity check, with both sides' values."""

    _fields = ("check", "n", "ok", "lhs", "rhs")

    def __init__(self, check: str, n: int, ok: bool, lhs: str, rhs: str):
        self._assign(check, n, ok, lhs, rhs)


def index_additivity_report(n, base, a_index, b_index) -> IdentityReport:
    """Check that coefficients for exponent vector ``a + b`` equal the
    convolution of the coefficients for ``a`` and for ``b``, over the same
    (support, z) families.

    ``base`` is a sequence of (support, z) pairs; ``a_index``/``b_index``
    are equal-length vectors of nonzero integers.  Combined exponents that
    cancel to zero simply drop their factor.
    """
    require_natural(n)
    base = list(base)
    if not (len(base) == len(a_index) == len(b_index)):
        raise ValueError("index vectors must match the factor family")
    spec_a = ProductSpec(tuple(Factor(s, z, a) for (s, z), a in zip(base, a_index)))
    spec_b = ProductSpec(tuple(Factor(s, z, b) for (s, z), b in zip(base, b_index)))
    combined = tuple(
        Factor(s, z, a + b)
        for (s, z), a, b in zip(base, a_index, b_index)
        if a + b != 0
    )
    if combined:
        lhs = product_coefficient(n, ProductSpec(combined))
    else:
        lhs = _ONE if n == 0 else _ZERO
    rhs = _convolve(product_coefficients(spec_a, n), product_coefficients(spec_b, n), n)
    return IdentityReport("additivity-index", n, lhs == rhs, str(lhs), str(rhs))


def set_additivity_report(n, spec_a: ProductSpec, spec_b: ProductSpec) -> IdentityReport:
    """Check that coefficients of the merged factor list equal the
    convolution of the two sides' coefficients."""
    require_natural(n)
    lhs = product_coefficient(n, ProductSpec(spec_a.factors + spec_b.factors))
    rhs = _convolve(product_coefficients(spec_a, n), product_coefficients(spec_b, n), n)
    return IdentityReport("additivity-set", n, lhs == rhs, str(lhs), str(rhs))


def _convolve(u, v, n) -> Fraction:
    """Coefficient ``n`` of the Cauchy product of two prefixes."""
    total = _ZERO
    for j in range(n + 1):
        if u[j]:
            total += u[j] * v[n - j]
    return total
