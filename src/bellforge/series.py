"""Truncated formal power series over exact rationals.

This is the independent oracle for the whole package: every closed-form
coefficient elsewhere is checked against plain series arithmetic done here.
A series carries an explicit truncation order ``N`` and exactly ``N + 1``
``Fraction`` coefficients; binary operations require equal orders instead of
silently re-truncating.

:func:`expand_ratio` computes a product or a ratio of products on integers:
a ratio is the product of the numerator's factors and the denominator's
with negated exponents, which :func:`~bellforge.supports.scaled_factors`
lists with integer multipliers under ``t = L s``, so every fold stays
integral and :func:`~bellforge.supports.unscale` divides by ``L^n``.  A z = 1
family folds by Euler's pentagonal theorem, any other factor by one binomial
per support member.  The ``Fraction`` methods of :class:`TruncatedSeries`
remain the general API and the cross-check path.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import isqrt

from .arith import require_int, require_natural
from .supports import (
    ProductSpec, Record, _require_rational, is_euler_family, scaled_factors, unscale,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TruncatedSeries(Record):
    """Coefficients ``(c_0, ..., c_N)`` of a power series, exact and immutable."""

    _fields = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(_require_rational(c, "a coefficient") for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self._assign(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        require_natural(order, "order")
        cs = [_ZERO] * (order + 1)
        cs[0] = value
        return cls(cs)

    @classmethod
    def from_dict(cls, terms: dict, order: int) -> "TruncatedSeries":
        """Series from an {exponent: coefficient} mapping; exponents above
        the order are dropped."""
        require_natural(order, "order")
        cs = [_ZERO] * (order + 1)
        for e, c in terms.items():
            require_natural(e, "exponent")
            if e <= order:
                cs[e] = c
        return cls(cs)

    def coefficient(self, n: int) -> Fraction:
        require_natural(n)
        if n > self.order:
            raise ValueError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above ``order`` (which must not exceed self.order)."""
        require_natural(order, "order")
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1])

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated at the common order."""
        self._check_order(other)
        u, v = self.coeffs, other.coeffs
        n = len(u)
        out = [_ZERO] * n
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j in range(n - i):
                vj = v[j]
                if vj:
                    out[i + j] += ui * vj
        return TruncatedSeries(out)

    __mul__ = mul

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    __add__ = add

    def scale(self, factor) -> "TruncatedSeries":
        f = _require_rational(factor, "a scale factor")
        return TruncatedSeries(f * c for c in self.coeffs)

    def reciprocal(self) -> "TruncatedSeries":
        """Series ``v`` with ``self.mul(v) == 1``, by the triangular recurrence
        v_0 = 1/u_0,  v_n = -(1/u_0) * sum_{k=1..n} u_k v_{n-k}."""
        u = self.coeffs
        if u[0] == 0:
            raise ValueError("series with zero constant term has no reciprocal")
        inv0 = 1 / u[0]
        out = [_ZERO] * len(u)
        out[0] = inv0
        for n in range(1, len(u)):
            s = _ZERO
            for k in range(1, n + 1):
                uk = u[k]
                if uk:
                    s += uk * out[n - k]
            out[n] = -inv0 * s
        return TruncatedSeries(out)

    def log(self) -> "TruncatedSeries":
        """Logarithm of a series with constant term 1, solved coefficient-wise
        from u * (log u)' = u'."""
        u = self.coeffs
        if u[0] != 1:
            raise ValueError("log requires constant term 1")
        out = [_ZERO] * len(u)
        for n in range(1, len(u)):
            s = n * u[n]
            for k in range(1, n):
                if u[n - k]:
                    s -= k * out[k] * u[n - k]
            out[n] = s / n
        return TruncatedSeries(out)

    def exp(self) -> "TruncatedSeries":
        """Exponential of a series with constant term 0, from the recurrence
        n e_n = sum_{k=1..n} k u_k e_{n-k}."""
        u = self.coeffs
        if u[0] != 0:
            raise ValueError("exp requires constant term 0")
        out = [_ZERO] * len(u)
        out[0] = _ONE
        for n in range(1, len(u)):
            s = _ZERO
            for k in range(1, n + 1):
                uk = u[k]
                if uk:
                    s += k * uk * out[n - k]
            out[n] = s / n
        return TruncatedSeries(out)

    def int_pow(self, a: int) -> "TruncatedSeries":
        """Integer power by binary exponentiation; negative powers go through
        the reciprocal of the positive power."""
        if require_int(a, "exponent") < 0:
            if self.coeffs[0] == 0:
                raise ValueError("negative power of a series with zero constant term")
            return self.int_pow(-a).reciprocal()
        result = TruncatedSeries.constant(1, self.order)
        base = self
        e = a
        while e:
            if e & 1:
                result = result.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
        return result

    def _check_order(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        more = ", ..." if len(self.coeffs) > 8 else ""
        return f"TruncatedSeries([{shown}{more}], order={self.order})"


def expand_ratio(
    numer: ProductSpec | None, denom: ProductSpec | None, order: int
) -> list[Fraction]:
    """Coefficients ``0..order`` of ``numer / denom``; ``None`` on either
    side is the constant 1.

    Every factor of :func:`scaled_factors` is folded in integers, a pass per
    unit of ``|a|`` that for ``a < 0`` divides exactly: a z = 1 family on the
    multiples of ``r`` is ``E((L s)^r)^a`` for :func:`_fold_euler`, any other
    factor takes :func:`_fold_binomial` per support member.  Terms above
    ``order`` cannot influence a kept coefficient and are skipped.
    """
    scale, factors = scaled_factors(numer, denom)
    require_natural(order, "order")
    cs = [1] + [0] * order
    for support, z, a in factors:
        if is_euler_family(support, z, scale):
            _fold_euler(cs, scale, support.r, a)
            continue
        for m in support.members_up_to(order):
            _fold_binomial(cs, z * scale ** (m - 1), m, a)
    return unscale(cs, scale)


def exp_log_expand(spec: ProductSpec, order: int) -> TruncatedSeries:
    """The product ``spec`` as a series, via exp of the summed factor
    logarithms: a code path independent of :func:`expand_ratio`, kept for
    cross-checks."""
    require_natural(order, "order")
    total = TruncatedSeries.constant(0, order)
    for factor in spec.factors:
        for m in factor.support.members_up_to(order):
            binom = TruncatedSeries.from_dict({0: 1, m: -factor.z}, order)
            total = total.add(binom.log().scale(factor.a))
    return total.exp()


def _fold_euler(cs: list[int], scale: int, r: int, a: int) -> None:
    """Multiply the coefficient list in place by ``E((scale s)^r)^a``, with
    ``E(q) = prod (1 - q^m) = 1 + sum_{k>=1} (-1)^k (q^{k(3k-1)/2} + q^{k(3k+1)/2})``
    by Euler's pentagonal theorem: a pass per unit of ``|a|`` over its terms,
    backward to multiply and forward to divide (on ``1/E``, the recurrence for p).
    ``cs[i]`` takes the terms ``e <= i``: one or more for ``i >= r``, none if ``r > n``."""
    n, sign = len(cs) - 1, 1 if a > 0 else -1
    pentagonal = ((k, r * k * (3 * k + j) // 2) for k in range(1, isqrt(n) + 1) for j in (-1, 1))
    terms = [(e, sign * (-1) ** k * scale**e) for k, e in pentagonal if e <= n]
    exponents = [e for e, _ in terms]
    walk = range(n, r - 1, -1) if a > 0 else range(r, n + 1)
    for _ in range(abs(a) if terms else 0):
        for i in walk:
            cs[i] += sum([c * cs[i - e] for e, c in terms[: bisect_right(exponents, i)]])


def _fold_binomial(cs: list[int], k: int, m: int, a: int) -> None:
    """Multiply the coefficient list in place by (1 - k s^m)^a: a pass per unit
    of ``|a|``, backward to multiply and forward to divide."""
    n = len(cs) - 1
    walk = range(n, m - 1, -1) if a > 0 else range(m, n + 1)
    k = -k if a > 0 else k
    for _ in range(abs(a)):
        for i in walk:
            prev = cs[i - m]
            if prev:
                cs[i] += k * prev
