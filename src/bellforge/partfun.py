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

_ALL, _M2, _M4 = SupportSet.all_naturals(), SupportSet.multiples_of(2), SupportSet.multiples_of(4)


def restricted_spec(parts) -> ProductSpec:
    """W's product ``prod_{d in parts} (1 - t^d)^-1`` for a distinct parts list."""
    return spec_from_factors((SupportSet.finite(parts), 1, -1))


def _route(method: str):
    """``(evaluator, kernel_steps)`` of ``method``: ``"faa"`` (closed sum) or ``"series"``."""
    if method == "faa":
        return ratio_coefficients, kernel_steps
    if method == "series":
        # imported here so that closed-sum requests never load the series route
        from . import series

        return series.expand_ratio, series.kernel_steps
    raise ValueError(f"method must be 'faa' or 'series', got {method!r}")


def route_prefix(route: str, spec, n: int) -> tuple[list[int], int]:
    """``(A, S)`` for coefficients ``0..n`` of ``spec`` on ``route``, in a request's order."""
    return _route(route)[0](spec, require_natural(n))


def prefixes(requests) -> list[tuple[list[int], int]]:
    """The prefix of each request ``(route, spec, n)``, each evaluated once, in order."""
    return [route_prefix(*request) for request in requests]


def work_estimate(route: str, spec, n: int) -> int:
    """Work of ``route`` on ``spec`` to order ``n`` in one unit for both routes:
    ``steps (1 + B/64)^1.5``, plus ``(1 + B/64)^2`` per output coefficient for its gcd
    and decimal form.  Callers check it; nothing here does."""
    steps, bits = kernel_size(route, spec, n)
    return (8 * steps * isqrt((64 + bits) ** 3) + (n + 1) * (64 + bits) ** 2) // 4096


def kernel_size(route: str, spec, n: int) -> tuple[int, int]:
    """``(steps, B)`` of ``route`` to order ``n``, in O(factors) closed forms: the
    route counts its steps by its own ``kernel_steps``.  Every integer either route
    produces (a q-series term and sum too) is dominated by ``prod (1 - Z L^m s^m)^-S``
    (``L`` the lcm of the z denominators, ``Z = max(1, |z|)``, ``S = sum |q a|``), so as
    ``p_S(n) <= exp(pi sqrt(2Sn/3))`` and ``p_S(n) <= p(n) S^n`` it has at most ``B``
    bits.  For ``q > 1`` a value is at most ``(q^2 L Z)^n p_T(n)``, ``T = S + ceil(S / q)``
    for the root's terms ``g_k F_(n-k)``; as ``|(q+1)k - q n| <= k + q (n - k)`` and ``n p_T(n)
    = T [x^n] P_T(x) sum_m m x^m / (1 - x^m)``, a root's partial sum is under ``2 n`` times that."""
    require_natural(n)
    scale, q, factors = scaled_factors(spec)
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


# name -> the generating product of the named count sequences, a ratio as one spec
# with the denominator's exponents negated
SEQUENCES = {
    # p(n): partitions of n, 1 / prod (1-t^m)
    "p": spec_from_factors((_ALL, 1, -1)),
    # partitions of n into parts from a distinct list: restricted_spec(parts), the
    # reciprocal of the product over that list; None (the constant 1) until one is given
    "w": None,
    # a(n): partitions of n whose even parts come in two colors
    "cubic": spec_from_factors((_ALL, 1, -1), (_M2, 1, -1)),
    # abar(n), overlined cubic partitions: prod (1-t^{4m}) / [prod (1-t^m)^2 prod (1-t^{2m})]
    "overcubic": spec_from_factors((_M4, 1, 1), (_ALL, 1, -2), (_M2, 1, -1)),
    # prod (1-t^{2m})^2 / prod (1-t^m): 1 at the triangular numbers, else 0
    "psi-star": spec_from_factors((_M2, 1, 2), (_ALL, 1, -1)),
    # prod (1-t^{2m})^5 / [prod (1-t^m)^2 prod (1-t^{4m})^2]: 2 at the
    # positive squares, 1 at 0, else 0
    "phi-star": spec_from_factors((_M2, 1, 5), (_ALL, 1, -2), (_M4, 1, -2)),
}


def sequence(name: str, n: int, method: str = "faa", parts=None) -> list[int]:
    """Values ``0..n`` of a named sequence from one prefix request on the
    route ``method``; ``"w"`` needs ``parts`` and no other name takes them."""
    if name not in SEQUENCES:
        raise ValueError(f"unknown sequence {name!r}; known: {', '.join(SEQUENCES)}")
    spec = SEQUENCES[name]
    if name == "w":
        if parts is None:
            raise ValueError("sequence 'w' needs a parts list")
        spec = restricted_spec(parts)
    elif parts is not None:
        raise ValueError(f"a parts list applies only to sequence 'w', not {name!r}")
    return as_counts(name, *route_prefix(method, spec, n))


def as_counts(name: str, ints: list[int], scale: int) -> list[int]:
    """``ints`` at ``scale`` 1 as the counts ``name(0..n)``: anything else is an internal defect."""
    for m, value in enumerate(ints):
        if value < 0 or scale != 1:
            raise InconsistencyError(f"{name}({m}) evaluated to {value} at scale {scale}, not a count")
    return ints
