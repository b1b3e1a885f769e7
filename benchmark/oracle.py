"""Independent reference values for every result the benchmark checks.

Nothing here imports bellforge.  Product ratios are expanded on integers:
with ``L`` the lcm of the ``z`` denominators, substituting ``t = L s`` turns
each factor ``(1 - z t^m)^a`` into ``(1 - (z L^m) s^m)^a`` with an integer
coefficient, so the whole expansion is integer arithmetic and the ``t^n``
coefficient is ``d_n / L^n``.  Denominator factors are folded in with negated
exponents instead of taking a reciprocal.  This differs in representation
and algorithm from both of the package's routes (the ``Fraction`` fold plus
reciprocal, and the partition sum), so agreement is evidence for both.

Specs use the package's JSON spec format: a factor is
``{"support": {"kind": ...}, "z": "p/q", "a": int}``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt, lcm


def support_members(support: dict, order: int):
    """Members of a JSON support set that are ``<= order``, increasing."""
    kind = support["kind"]
    if kind == "all":
        return range(1, order + 1)
    if kind == "multiples":
        return range(support["r"], order + 1, support["r"])
    if kind == "finite":
        return sorted(m for m in support["set"] if m <= order)
    raise ValueError(f"unknown support kind {kind!r}")


def ratio_coefficients(numerator, denominator, order: int) -> list[Fraction]:
    """Coefficients ``0..order`` of prod(numerator) / prod(denominator)."""
    factors = [(f, f["a"]) for f in numerator] + [(f, -f["a"]) for f in denominator]
    scale = lcm(1, *(Fraction(f["z"]).denominator for f, _ in factors))
    d = [0] * (order + 1)
    d[0] = 1
    for factor, a in factors:
        z = Fraction(factor["z"])
        for m in support_members(factor["support"], order):
            x = z.numerator * (scale**m // z.denominator)
            if a > 0:
                for _ in range(a):
                    for i in range(order, m - 1, -1):
                        d[i] -= x * d[i - m]
            else:
                for _ in range(-a):
                    for i in range(m, order + 1):
                        d[i] += x * d[i - m]
    return [Fraction(v, scale**n) for n, v in enumerate(d)]


def partition_counts(n_max: int) -> list[int]:
    """``[p(0), ..., p(n_max)]`` by Euler's pentagonal-number recurrence."""
    p = [1]
    for m in range(1, n_max + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p.append(total)
    return p


def restricted_counts(parts, n_max: int) -> list[int]:
    """``[W(0), ..., W(n_max)]`` for the parts list, by enumerating every
    multiplicity vector with weighted sum ``<= n_max`` and tallying sums."""
    counts = [0] * (n_max + 1)
    parts = sorted(parts, reverse=True)

    def walk(i: int, total: int) -> None:
        if i == len(parts):
            counts[total] += 1
            return
        while total <= n_max:
            walk(i + 1, total)
            total += parts[i]

    walk(0, 0)
    return counts


def triangular_indicator(n: int) -> int:
    root = isqrt(8 * n + 1)
    return 1 if root * root == 8 * n + 1 else 0


def square_indicator(n: int) -> int:
    if n == 0:
        return 1
    return 2 if isqrt(n) ** 2 == n else 0


def _all(a: int) -> dict:
    return {"support": {"kind": "all"}, "z": "1", "a": a}


def _mult(r: int, a: int) -> dict:
    return {"support": {"kind": "multiples", "r": r}, "z": "1", "a": a}


# generating products of the named sequences, as (numerator, denominator)
NAMED_PRODUCTS = {
    "p": ([], [_all(1)]),
    "cubic": ([], [_all(1), _mult(2, 1)]),
    "overcubic": ([_mult(4, 1)], [_all(2), _mult(2, 1)]),
}


class Oracle:
    """Reference values with per-product memoisation.

    Coefficients of a product do not depend on the truncation order, so one
    expansion at the largest order asked for answers every smaller one.
    """

    def __init__(self):
        self._ratios: dict[str, list[Fraction]] = {}
        self._partitions: list[int] = [1]

    def ratio(self, numerator, denominator, order: int) -> list[Fraction]:
        key = json.dumps([numerator, denominator], sort_keys=True)
        cached = self._ratios.get(key)
        if cached is None or len(cached) <= order:
            cached = ratio_coefficients(numerator, denominator, order)
            self._ratios[key] = cached
        return cached[: order + 1]

    def partitions(self, n_max: int) -> list[int]:
        if len(self._partitions) <= n_max:
            self._partitions = partition_counts(n_max)
        return self._partitions[: n_max + 1]

    def sequence(self, name: str, n_max: int, parts=None) -> list[Fraction]:
        """Values ``0..n_max`` of a named sequence, as the CLI prints them."""
        if name == "p":
            return [Fraction(v) for v in self.partitions(n_max)]
        if name == "w":
            return [Fraction(v) for v in restricted_counts(parts, n_max)]
        if name == "psi-star":
            return [Fraction(triangular_indicator(n)) for n in range(n_max + 1)]
        if name == "phi-star":
            return [Fraction(square_indicator(n)) for n in range(n_max + 1)]
        return self.ratio(*NAMED_PRODUCTS[name], n_max)
