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
literal sum, one term per partition, remains as :func:`partition_power_sum`.
:func:`cached_prefix` is the one prefix cache of both routes.  Everything is
exact and independently checkable against :mod:`bellforge.series`.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial, lcm
from operator import mul

from .arith import require_natural, require_positive
from .supports import Factor, ProductSpec, Record, SupportSet

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


_cache_lock = threading.Lock()
# (route, numer, denom) -> (order, entry); an entry is never mutated once published
_cache: dict[tuple, tuple] = {}


def cached_prefix(route: str, numer, denom, n: int, grow):
    """The cached entry of ``route`` for ``numer/denom``, covering order ``n``.

    On a miss ``grow(numer, denom, entry, n)`` returns ``(order, new_entry)``
    with ``order >= n``, built from the cached ``entry`` (``None`` if there is
    none) without mutating it.  The lock is held only to read and to publish,
    so a request never waits on another's computation; when two requests for
    one key race, both compute and the longer entry is kept and returned.
    """
    key = (route, numer, denom)
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None and hit[0] >= n:
        return hit[1]
    fresh = grow(numer, denom, None if hit is None else hit[1], n)
    with _cache_lock:
        hit = _cache.get(key)
        if hit is None or hit[0] < fresh[0]:
            hit = _cache[key] = fresh
    return hit[1]


def clear_cache() -> None:
    """Drop every cached prefix of both routes; the next request starts cold."""
    with _cache_lock:
        _cache.clear()


def ratio_coefficients(
    numer: ProductSpec | None, denom: ProductSpec | None, n: int
) -> list[Fraction]:
    """Cached coefficients ``0..n`` of numerator-product / denominator-product;
    ``None`` on either side is the constant 1.  The ratio is the product of the
    numerator's factors and the denominator's with negated exponents, so one
    Bell recurrence evaluates it; with ``L`` the lcm of all z denominators the
    weights ``w_k L^k`` and ``A_m = c_m L^m`` are integers."""
    require_natural(n)
    values = cached_prefix("faa", numer, denom, n, _grow_bell)[3]
    return values[: n + 1]


def _grow_bell(numer, denom, entry, n):
    """A copy of the cached ``(L, weights, A_m, c_m)`` extended to exactly ``n``."""
    sides = [s for s in (numer, denom if denom is None else denom.negated()) if s is not None]
    if entry is None:
        entry = (lcm(*(s.z_scale() for s in sides)), [0], [1], [_ONE])
    scale, weights, coeffs, values = entry
    factors = tuple(f for s in sides for f in s.factors)
    weights = weights + [_scaled_weight(k, factors, scale) for k in range(len(weights), n + 1)]
    coeffs = coeffs.copy()
    bell_extend(coeffs, weights, n)
    values = values + [Fraction(coeffs[m], scale**m) for m in range(len(values), n + 1)]
    return n, (scale, weights, coeffs, values)


def _scaled_weight(k: int, factors, scale: int) -> int:
    """``log_weight(k, spec) * scale^k`` in integers: ``z^(k/d) scale^k`` is
    ``(z scale^d)^(k/d)``, and ``z scale`` is an integer."""
    total = 0
    for f in factors:
        z_scaled = f.z.numerator * (scale // f.z.denominator)
        for d in f.support.divisors_in(k):
            total -= f.a * d * (z_scaled * scale ** (d - 1)) ** (k // d)
    return total


def product_coefficients(spec: ProductSpec, n: int) -> list[Fraction]:
    """Cached ``[coefficient(0), ..., coefficient(n)]`` of the product."""
    return ratio_coefficients(spec, None, n)


def reciprocal_coefficients(spec: ProductSpec, n: int) -> list[Fraction]:
    """Cached reciprocal coefficients ``0..n``."""
    return ratio_coefficients(None, spec, n)


def product_coefficient(n: int, spec: ProductSpec) -> Fraction:
    """Coefficient of ``t^n`` in the product, via the Bell recurrence."""
    return ratio_coefficients(spec, None, n)[n]


def reciprocal_coefficient(n: int, spec: ProductSpec) -> Fraction:
    """Coefficient of ``t^n`` in the reciprocal of the product: the same
    sum with the alternating sign ``(-1)^(k_1+...+k_n)``."""
    return ratio_coefficients(None, spec, n)[n]


def ratio_coefficient(n: int, numer: ProductSpec | None, denom: ProductSpec | None) -> Fraction:
    """Coefficient of ``t^n`` in numerator-product / denominator-product."""
    return ratio_coefficients(numer, denom, n)[n]


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
    lhs = ratio_coefficient(n, ProductSpec(combined) if combined else None, None)
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
