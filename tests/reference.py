"""Literal reference implementations that the tests compare the package against.

The partition sum here is the paper's formula written out, one term per
partition of ``n``; the package evaluates the same sum with the Bell
recurrence.  :func:`exp_log_expand` expands a product as the exponential of
its factors' ``Fraction`` logarithms, independently of the series route.  The
remaining helpers are small independent oracles (exact-parts counts,
restricted counts by exhaustive recursion, divisor sums over a support, the
divisibility indicator).  None of this is on a request path.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from bellforge.arith import require_natural, require_positive
from bellforge.series import TruncatedSeries
from bellforge.supports import Factor, ProductSpec, SupportSet

_ZERO = Fraction(0)
_ONE = Fraction(1)


def negated(spec: ProductSpec) -> ProductSpec:
    """``spec`` with every exponent negated: the product's reciprocal."""
    return ProductSpec(tuple(Factor(f.support, f.z, -f.a) for f in spec.factors))


def exp_log_expand(spec: ProductSpec, order: int) -> TruncatedSeries:
    """The product ``spec`` to ``order`` as ``exp`` of the sum of ``a log(1 - z t^m)``
    over its factors and support members, each logarithm by ``TruncatedSeries.log``."""
    require_natural(order, "order")
    total = [_ZERO] * (order + 1)
    for factor in spec.factors:
        for m in factor.support.members_up_to(order):
            binomial = [_ONE] + [_ZERO] * order
            binomial[m] = -factor.z
            log = TruncatedSeries(binomial).log().coeffs
            total = [t + factor.a * c for t, c in zip(total, log)]
    return TruncatedSeries(total).exp()


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


def literal_ratio_weights(numer, denom, n):
    """``log_weight_table(numer) - log_weight_table(denom)``, a missing side
    contributing nothing: the weights of the paper's sum for numer/denom."""
    zero = [_ZERO] * (n + 1)
    top = log_weight_table(numer, n) if numer is not None else zero
    bottom = log_weight_table(denom, n) if denom is not None else zero
    return [a - b for a, b in zip(top, bottom)]


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


def count_exact_parts(n: int, m: int) -> int:
    """Number of partitions of ``n`` into exactly ``m`` parts, from the
    recurrence p_m(n) = p_m(n-m) + p_{m-1}(n-1)."""
    require_natural(n)
    require_natural(m, "m")
    if m > n:
        return 0
    if m == 0:
        return 1 if n == 0 else 0
    # row[j] holds p_j(i) while sweeping i upward
    rows = [[0] * (n + 1) for _ in range(m + 1)]
    rows[0][0] = 1
    for j in range(1, m + 1):
        for i in range(j, n + 1):
            rows[j][i] = rows[j][i - j] + rows[j - 1][i - 1]
    return rows[m][n]


def count_restricted_bruteforce(n: int, parts) -> int:
    """Number of multisets over ``parts`` summing to ``n``, by exhaustive
    recursion over how often each allowed part is used."""
    require_natural(n)
    allowed = list(parts)
    if not allowed:
        raise ValueError("parts must be non-empty")
    if len(set(allowed)) != len(allowed):
        raise ValueError("parts must be distinct")
    if min(allowed) < 1:
        raise ValueError("parts must be >= 1")
    allowed.sort(reverse=True)
    seen: dict[tuple[int, int], int] = {}

    def rec(m: int, i: int) -> int:
        if m == 0:
            return 1
        if i == len(allowed):
            return 0
        key = (m, i)
        cached = seen.get(key)
        if cached is not None:
            return cached
        total = rec(m, i + 1)
        if allowed[i] <= m:
            total += rec(m - allowed[i], i)
        seen[key] = total
        return total

    return rec(n, 0)


def restricted_divisor_sum(n: int, support: SupportSet) -> int:
    """Sum of the divisors of ``n`` that lie in ``support``."""
    return sum(support.divisors_in(require_positive(n)))


def indicator(i: int, j: int) -> int:
    """1 if ``i`` divides ``j``, else 0."""
    require_positive(i, "i")
    require_positive(j, "j")
    return 1 if j % i == 0 else 0
