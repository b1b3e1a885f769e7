"""Truncated formal power series over exact rationals.

This is the independent oracle for the whole package: every closed-form
coefficient elsewhere is checked against plain series arithmetic done here.
A series carries an explicit truncation order ``N`` and exactly ``N + 1``
``Fraction`` coefficients; binary operations require equal orders instead of
silently re-truncating.

:func:`expand_ratio` computes a product or a ratio of products on integers:
with ``L`` the lcm of the z denominators and ``t = L s`` every factor
``(1 - z t^m)^a`` becomes ``(1 - (z L^m) s^m)^a`` with an integer
multiplier, so the fold, the reciprocal and the Cauchy product stay integral
and the ``t^n`` coefficient is the integer ``s^n`` coefficient over ``L^n``.
The ``Fraction`` methods of :class:`TruncatedSeries` remain the general API
and the cross-check path.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .arith import require_natural
from .supports import ProductSpec, _require_rational, _require_sides

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TruncatedSeries:
    """Coefficients ``(c_0, ..., c_N)`` of a power series, exact and immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(_require_rational(c, "a coefficient") for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

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
        if isinstance(a, bool) or not isinstance(a, int):
            raise TypeError("exponent must be an integer")
        if a < 0:
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

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        more = ", ..." if len(self.coeffs) > 8 else ""
        return f"TruncatedSeries([{shown}{more}], order={self.order})"


def expand_ratio(
    numer: ProductSpec | None, denom: ProductSpec | None, order: int
) -> list[Fraction]:
    """Coefficients ``0..order`` of ``numer / denom``; ``None`` on either
    side is the constant 1.

    Both sides are scaled by one ``L``, the lcm of their z denominators, and
    folded in integers.  The scaled denominator has constant term 1, so its
    reciprocal by the triangular recurrence ``v_n = -sum_{k=1..n} u_k v_{n-k}``
    is integral, and so is its Cauchy product with the numerator.  The
    coefficients become ``Fraction(c'_n, L^n)`` once, at the end.  Support
    members above ``order`` cannot influence a kept coefficient and are
    skipped; each binomial is folded in by a sparse pass per unit of ``|a|``.
    """
    _require_sides(numer, denom)
    require_natural(order, "order")
    scale = lcm(*(spec.z_scale() for spec in (numer, denom) if spec is not None))
    cs = [1] + [0] * order
    if denom is not None:
        cs = _reciprocal(_scaled_product(denom, order, scale))
    if numer is not None:
        top = _scaled_product(numer, order, scale)
        cs = top if denom is None else _cauchy(top, cs)
    power = 1
    out = []
    for c in cs:
        out.append(Fraction(c, power))
        power *= scale
    return out


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


def _scaled_product(spec: ProductSpec, order: int, scale: int) -> list[int]:
    """Integer coefficients ``c_n scale^n``, ``n <= order``, of the product;
    ``scale`` must be a multiple of ``spec.z_scale()``."""
    cs = [1] + [0] * order
    for factor in spec.factors:
        z_scaled = factor.z.numerator * (scale // factor.z.denominator)
        for m in factor.support.members_up_to(order):
            _fold_binomial(cs, z_scaled * scale ** (m - 1), m, factor.a)
    return cs


def _fold_binomial(cs: list[int], k: int, m: int, a: int) -> None:
    """Multiply the coefficient list in place by (1 - k s^m)^a."""
    n = len(cs) - 1
    if a > 0:
        for _ in range(a):
            for i in range(n, m - 1, -1):
                prev = cs[i - m]
                if prev:
                    cs[i] -= k * prev
    else:
        for _ in range(-a):
            for i in range(m, n + 1):
                prev = cs[i - m]
                if prev:
                    cs[i] += k * prev


def _reciprocal(u: list[int]) -> list[int]:
    """Reciprocal of an integer series with ``u[0] == 1``."""
    v = [1]
    for n in range(1, len(u)):
        v.append(-sum(map(mul, u[1 : n + 1], v[n - 1 :: -1])))
    return v


def _cauchy(u: list[int], v: list[int]) -> list[int]:
    """Cauchy product of two integer series of equal length, truncated."""
    return [sum(map(mul, u[: n + 1], v[n::-1])) for n in range(len(u))]
