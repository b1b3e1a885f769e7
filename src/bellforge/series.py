"""The series route: a product or a ratio of products expanded as a power series.

:func:`expand_ratio` computes a product or a ratio of products on integers: a
ratio is the product of the numerator's factors and the denominator's with negated
exponents, which :func:`~bellforge.supports.scaled_factors` lists with integer
multipliers under ``t = L s``, so every fold stays integral.  A family on the
multiples of ``r`` folds by Euler's or Cauchy's q-series identity over its
``O(sqrt(n / r))`` terms, a finite support by one binomial per member.  Rational
exponents fold as their integer multiples ``q a`` and take the ``q``-th root by
J. C. P. Miller's power recurrence, which forms no logarithm.  The results are the
integers ``(L q^2)^n c_n`` (``q = 1`` for integer exponents), handed back with their
scale ``L q^2``; :func:`kernel_steps` counts the products of it all for the price.

:class:`TruncatedSeries` holds ``N + 1`` exact ``Fraction`` coefficients, and its
Cauchy product requires equal orders instead of re-truncating.  No request calls
it: it keeps only ``constant`` and the five ``Fraction`` methods (``mul``,
``reciprocal``, ``log``, ``exp``, ``int_pow``) that the benchmark's tracer wraps by
name and the tests use as the cross-check path.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import add

from .arith import InconsistencyError, require_int, require_natural
from .supports import (
    FINITE, ProductSpec, Record, SupportSet, _require_rational, scaled_factors,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TruncatedSeries(Record):
    """Coefficients ``(c_0, ..., c_N)`` of a power series, exact and immutable."""

    _fields = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(Fraction(_require_rational(c, "a coefficient")) for c in coeffs)
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
) -> tuple[list[int], int]:
    """``(A, L q^2)``, ``A_n = (L q^2)^n c_n`` for the coefficients ``c_0..c_order`` of
    ``numer / denom``; ``None`` on either side is the constant 1.

    Every factor of :func:`scaled_factors` is folded in integers, a pass per
    unit of ``|a|`` that for ``a < 0`` divides exactly: by its support's kind, a
    family takes :func:`_fold_family`, a finite support :func:`_fold_binomial` per
    member (a ``z = 0`` factor is 1), skipping terms above ``order``.  The exponents
    are ``q a``, and for ``q > 1`` :func:`_root` takes the ``q``-th root.
    """
    scale, q, factors = scaled_factors(numer, denom)
    require_natural(order, "order")
    cs = [1] + [0] * order
    for support, z, a in factors:
        if support.kind != FINITE:
            _fold_family(cs, scale, support.r, z, a)
        elif z:
            for m in support.members_up_to(order):
                _fold_binomial(cs, z * scale ** (m - 1), m, a)
    return _root(cs, q) if q > 1 else cs, scale * q * q


def kernel_steps(factors, q: int, n: int) -> int:
    """Products of :func:`expand_ratio` to order ``n`` on the factors of
    :func:`scaled_factors`: :func:`_fold_steps` per unit of ``|a|`` of each factor
    with ``z != 0``, and for ``q > 1`` the root's ``n(n + 1)/2``."""
    steps = sum(abs(a) * _fold_steps(s, a, n) for s, z, a in factors if z)
    return steps + (n * (n + 1) // 2 if q > 1 else 0)


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


def _root(g: list[int], q: int) -> list[int]:
    """``[q^(2n) f_n]`` for ``f = g^(1/q)``, ``g_0 = 1``, by J. C. P. Miller's
    recurrence ``q n F_n = sum_{k=1..n} ((q+1)k - q n) q^(2k) g_k F_(n-k)``,
    ``F_0 = 1`` (Knuth, TAOCP Vol. 2, 4.7).  Each ``F_n`` is an integer (see
    :func:`scaled_factors`), so every division is exact; a remainder raises
    :class:`InconsistencyError`."""
    h = [0] + [q ** (2 * k) * g[k] for k in range(1, len(g))]
    f = [1]
    for n in range(1, len(g)):
        total = sum(((q + 1) * k - q * n) * h[k] * f[n - k] for k in range(1, n + 1))
        f_n, rem = divmod(total, q * n)
        if rem:
            raise InconsistencyError(f"q-th root: inexact division by {q * n}")
        f.append(f_n)
    return f


def _fold_family(cs: list[int], scale: int, r: int, z: int, a: int) -> None:
    """Multiply the coefficient list in place by ``prod_j (1 - z L^(rj-1) s^(rj))^a``,
    that is ``(x q; q)_inf^a`` with ``q = (L s)^r``, ``x = z / L`` and ``L = scale``: a pass
    per unit of ``|a|`` adds up the terms ``T_k`` of Euler's identity
    ``(x q; q)_inf = sum_k (-x)^k q^(k(k+1)/2) / (q; q)_k``, or for ``a < 0`` of Cauchy's
    ``1/(x q; q)_inf = sum_k x^k q^(k^2) / ((q; q)_k (x q; q)_k)`` (Andrews, *The Theory of
    Partitions*, ch. 2).  ``T_0 = cs``; ``T_k`` is ``T_(k-1)`` times a monomial, divided
    exactly by ``1 - q^k`` (and ``1 - x q^k``), one forward pass each, and starts at
    ``s^(r k(k+1)/2)`` or ``s^(r k^2)``.  No pass runs if ``r > n`` or ``z = 0``."""
    n = len(cs) - 1
    for _ in range(abs(a) if z and r <= n else 0):
        term, low, k = cs, 0, 1
        while (top := r * k * (k + 1) // 2 if a > 0 else r * k * k) <= n:
            c = (-z if a > 0 else z) * scale ** (top - low - 1)
            term = [c * v for v in term[: n + 1 - top]]
            _divide(term, scale ** (r * k), r * k)
            if a < 0:
                _divide(term, z * scale ** (r * k - 1), r * k)
            cs[top:] = map(add, cs[top:], term)
            low, k = top, k + 1


def _divide(cs: list[int], b: int, d: int) -> None:
    """Divide the coefficient list in place by ``1 - b s^d``: one forward pass."""
    for i in range(d, len(cs)):
        cs[i] += b * cs[i - d]


def _fold_binomial(cs: list[int], k: int, m: int, a: int) -> None:
    """Multiply the coefficient list in place by (1 - k s^m)^a: a pass per unit
    of ``|a|``, backward to multiply and forward, by :func:`_divide`, to divide."""
    for _ in range(abs(a)):
        if a < 0:
            _divide(cs, k, m)
        else:
            for i in range(len(cs) - 1, m - 1, -1):
                cs[i] -= k * cs[i - m]
