"""Named partition functions, and the two routes that evaluate them.

Each function here is the coefficient sequence of a fixed quotient of
``(1 - t^m)``-style products.  Two evaluation routes exist and must agree:
``"faa"``, the partition-indexed closed sum (:mod:`bellforge.bellpoly`) on the
whole prefix ``0..n`` by one integer Bell recurrence, and ``"series"``, the
product ratio's expansion (:mod:`bellforge.series`).  This is the only module
that names both: :func:`route_prefix` runs a route (:func:`prefixes`, a list of
requests) and :func:`work_estimate` prices it, each through one map from a route
name to its evaluator and its ``kernel_steps``.  Neither route keeps state; each
hands back ``(A, S)``, the integers ``A_n = S^n c_n`` and their scale ``S``.
:func:`sequence` answers every named count as its whole prefix ``0..n`` from one
request, on the closed sum unless the caller asks for the series route; a count
off scale 1 or below 0 raises :class:`InconsistencyError`, as an internal defect.
"""

from __future__ import annotations

from math import isqrt

from .arith import InconsistencyError, require_natural
from .bellpoly import kernel_steps, ratio_coefficients
from .supports import ProductSpec, SupportSet, scaled_factors, spec_from_factors

_ALL = SupportSet.all_naturals()


# generating products for the named sequences
PARTITION_PRODUCT = spec_from_factors((_ALL, 1, 1))
CUBIC_PRODUCT = spec_from_factors((_ALL, 1, 1), (SupportSet.multiples_of(2), 1, 1))
OVERCUBIC_NUMERATOR = spec_from_factors((SupportSet.multiples_of(4), 1, 1))
OVERCUBIC_DENOMINATOR = spec_from_factors(
    (_ALL, 1, 2), (SupportSet.multiples_of(2), 1, 1)
)
# 3 and 6 times the t^n coefficients of Chan's and Kim's quotients are
# a(3n+2) and abar(3n+2); verify reads them on the series route
CHAN_NUMERATOR = spec_from_factors(
    (SupportSet.multiples_of(3), 1, 3), (SupportSet.multiples_of(6), 1, 3)
)
CHAN_DENOMINATOR = spec_from_factors(
    (_ALL, 1, 4), (SupportSet.multiples_of(2), 1, 4)
)
KIM_NUMERATOR = spec_from_factors(
    (SupportSet.multiples_of(3), 1, 6), (SupportSet.multiples_of(4), 1, 3)
)
KIM_DENOMINATOR = spec_from_factors(
    (_ALL, 1, 8), (SupportSet.multiples_of(2), 1, 3)
)
PSI_NUMERATOR = spec_from_factors((SupportSet.multiples_of(2), 1, 2))
PSI_DENOMINATOR = PARTITION_PRODUCT
PHI_NUMERATOR = spec_from_factors((SupportSet.multiples_of(2), 1, 5))
PHI_DENOMINATOR = spec_from_factors(
    (_ALL, 1, 2), (SupportSet.multiples_of(4), 1, 2)
)


def restricted_product(parts) -> ProductSpec:
    """The product ``prod_{d in parts} (1 - t^d)`` for a distinct parts list."""
    return spec_from_factors((SupportSet.finite(parts), 1, 1))


def _route(method: str):
    """``(evaluator, kernel_steps)`` of ``method``: ``"faa"`` (closed sum) or ``"series"``."""
    if method == "faa":
        return ratio_coefficients, kernel_steps
    if method == "series":
        # imported here so that closed-sum requests never load the series route
        from . import series

        return series.expand_ratio, series.kernel_steps
    raise ValueError(f"method must be 'faa' or 'series', got {method!r}")


def route_prefix(route: str, numer, denom, n: int) -> tuple[list[int], int]:
    """``(A, S)`` for coefficients ``0..n`` of numer/denom on ``route``, in a request's order."""
    return _route(route)[0](numer, denom, require_natural(n))


def prefixes(requests) -> list[tuple[list[int], int]]:
    """The prefix of each request ``(route, numer, denom, n)``, each evaluated once, in order."""
    return [route_prefix(*request) for request in requests]


def work_estimate(route: str, numer, denom, n: int) -> int:
    """Work of ``route`` on ``numer/denom`` to order ``n`` in one unit for both routes:
    ``steps (1 + B/64)^1.5``, plus ``(1 + B/64)^2`` per output coefficient for its gcd
    and decimal form.  Callers check it; nothing here does."""
    steps, bits = kernel_size(route, numer, denom, n)
    return (8 * steps * isqrt((64 + bits) ** 3) + (n + 1) * (64 + bits) ** 2) // 4096


def kernel_size(route: str, numer, denom, n: int) -> tuple[int, int]:
    """``(steps, B)`` of ``route`` to order ``n``, in O(factors) closed forms: the
    route counts its steps by its own ``kernel_steps``.  Every integer either route
    produces (a q-series term and sum too) is dominated by ``prod (1 - Z L^m s^m)^-S``
    (``L`` the lcm of the z denominators, ``Z = max(1, |z|)``, ``S = sum |q a|``), so as
    ``p_S(n) <= exp(pi sqrt(2Sn/3))`` and ``p_S(n) <= p(n) S^n`` it has at most ``B``
    bits.  For ``q > 1`` a value is at most ``(q^2 L Z)^n p_T(n)``, ``T = S + ceil(S / q)``
    for the root's terms ``g_k F_(n-k)``; as ``|(q+1)k - q n| <= k + q (n - k)`` and ``n p_T(n)
    = T [x^n] P_T(x) sum_m m x^m / (1 - x^m)``, a root's partial sum is under ``2 n`` times that."""
    require_natural(n)
    scale, q, factors = scaled_factors(numer, denom)
    steps = _route(route)[1](factors, q, n)
    lz = max([scale] + [abs(z) for _, z, _ in factors])
    size = sum(abs(a) for _, _, a in factors)
    if q > 1:
        lz, size = lz * q * q, size - (-size // q)
    # B = n log2(L Z) + min(3.71 sqrt(S n), n log2 S + 3.71 sqrt n) + 1 (+ n's bits for a root)
    count = min(_sqrt_bits(size * n), _log2_times(size, n) + _sqrt_bits(n))
    return steps, _log2_times(lz, n) + count + 1 + (n.bit_length() if q > 1 else 0)


def _log2_times(x: int, n: int) -> int:
    """At least ``n log2 x`` and within ``n / 16 + 1`` of it, as
    ``(x^16 - 1).bit_length()`` is ``ceil(16 log2 x)``."""
    return -(-n * (x**16 - 1).bit_length() // 16)


def _sqrt_bits(x: int) -> int:
    """``3.71 (isqrt(x) + 1)`` rounded down; with one bit added it bounds the
    bits of ``p(x) <= exp(pi sqrt(2x/3))``."""
    return 371 * (isqrt(x) + 1) // 100


# name -> (numerator, denominator) of the named count sequences
SEQUENCES = {
    # p(n): partitions of n
    "p": (None, PARTITION_PRODUCT),
    # partitions of n into parts from a distinct list; the denominator is
    # the product over that list
    "w": (None, None),
    # a(n): partitions of n whose even parts come in two colors
    "cubic": (None, CUBIC_PRODUCT),
    # abar(n), overlined cubic partitions: prod (1-t^{4m}) / [prod (1-t^m)^2 prod (1-t^{2m})]
    "overcubic": (OVERCUBIC_NUMERATOR, OVERCUBIC_DENOMINATOR),
    # prod (1-t^{2m})^2 / prod (1-t^m): 1 at the triangular numbers, else 0
    "psi-star": (PSI_NUMERATOR, PSI_DENOMINATOR),
    # prod (1-t^{2m})^5 / [prod (1-t^m)^2 prod (1-t^{4m})^2]: 2 at the
    # positive squares, 1 at 0, else 0
    "phi-star": (PHI_NUMERATOR, PHI_DENOMINATOR),
}


def sequence(name: str, n: int, method: str = "faa", parts=None) -> list[int]:
    """Values ``0..n`` of a named sequence from one prefix request on the
    route ``method``; ``"w"`` needs ``parts`` and no other name takes them."""
    if name not in SEQUENCES:
        raise ValueError(f"unknown sequence {name!r}; known: {', '.join(SEQUENCES)}")
    numer, denom = SEQUENCES[name]
    if name == "w":
        if parts is None:
            raise ValueError("sequence 'w' needs a parts list")
        denom = restricted_product(parts)
    elif parts is not None:
        raise ValueError(f"a parts list applies only to sequence 'w', not {name!r}")
    return as_counts(name, *route_prefix(method, numer, denom, n))


def as_counts(name: str, ints: list[int], scale: int) -> list[int]:
    """``ints`` at ``scale`` 1 as the counts ``name(0..n)``: anything else is an internal defect."""
    for m, value in enumerate(ints):
        if value < 0 or scale != 1:
            raise InconsistencyError(f"{name}({m}) evaluated to {value} at scale {scale}, not a count")
    return ints
