"""Support sets and factored product specifications.

A :class:`ProductSpec` describes a (possibly infinite) product

    prod over factors  prod_{m in support} (1 - z * t^m)^a

with exact rational ``z`` and nonzero ``a``, each an ``int`` or a ``Fraction``.
The rest of the library extracts power-series coefficients of such products,
of their reciprocals, and of ratios of two of them; :mod:`bellforge.specfile`
reads and writes them as JSON.  Both routes hand back a ratio as the integers of
:func:`scaled_factors` with their scale, and :func:`unscale` takes the values back.
"""

from __future__ import annotations

from math import isqrt, lcm

from .arith import require_int, require_natural, require_positive

ALL = "all"
MULTIPLES = "multiples"
FINITE = "finite"


class Record:
    """Base of the package's immutable value records.

    A subclass lists its attributes in ``_fields`` and sets them in
    ``__init__`` through :meth:`_assign`.  Equality holds only between
    instances of the same class with equal fields, ``hash`` is the hash of
    the field tuple, ``repr`` reads ``Name(field=value, ...)``, and setting
    or deleting an attribute raises :class:`AttributeError`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SupportSet(Record):
    """A set of positive integers: all of them, all multiples of ``r``,
    or an explicit finite set."""

    _fields = ("kind", "r", "members")

    def __init__(self, kind: str, r: int | None = None, members: tuple[int, ...] | None = None):
        if kind not in (ALL, MULTIPLES, FINITE):
            raise ValueError(f"unknown support kind {kind!r}")
        # one representation per set: r and members only where they mean something
        if r is not None and kind != MULTIPLES:
            raise ValueError(f"r applies only to a multiples-of support, not {kind!r}")
        if members is not None and kind != FINITE:
            raise ValueError(f"members apply only to a finite support, not {kind!r}")
        r = 1 if r is None else r
        members = () if members is None else members
        if kind == MULTIPLES:
            if require_int(r, "multiples-of support r") < 1:
                raise ValueError("multiples-of support needs an integer r >= 1")
            if r == 1:
                kind = ALL  # the multiples of 1 are all naturals: one key per set
        if kind == FINITE:
            members = tuple(sorted([require_int(m, "finite support member") for m in members]))
            if not members:
                raise ValueError("finite support must be non-empty")
            if len(set(members)) != len(members):
                raise ValueError("finite support members must be distinct")
            if members[0] < 1:
                raise ValueError("finite support members must be >= 1")
        self._assign(kind, r, members)

    @classmethod
    def all_naturals(cls) -> "SupportSet":
        return cls(ALL)

    @classmethod
    def multiples_of(cls, r: int) -> "SupportSet":
        return cls(MULTIPLES, r=r)

    @classmethod
    def finite(cls, members) -> "SupportSet":
        return cls(FINITE, members=tuple(members))

    def members_up_to(self, n: int):
        """Elements of the set that are <= n, in increasing order."""
        require_natural(n)
        if self.kind == FINITE:
            return [m for m in self.members if m <= n]
        return range(self.r, n + 1, self.r)

    def divisors_in(self, n: int) -> list[int]:
        """Divisors of ``n`` that lie in the set, in increasing order."""
        low = [i for i in range(1, isqrt(require_positive(n)) + 1) if n % i == 0]
        divisors = low + [n // i for i in reversed(low) if i * i != n]
        if self.kind == FINITE:
            return [d for d in divisors if d in self.members]
        return [d for d in divisors if d % self.r == 0]  # all naturals are the multiples of r = 1


class Factor(Record):
    """One factor family ``prod_{m in support} (1 - z * t^m)^a``."""

    _fields = ("support", "z", "a")

    def __init__(self, support: SupportSet, z: int | Fraction, a: int | Fraction):
        if not isinstance(support, SupportSet):
            raise TypeError(f"a factor's support must be a SupportSet, got {support!r}")
        a = _require_rational(a, "factor exponent a")
        if a == 0:
            raise ValueError("factor exponent a must be nonzero")
        self._assign(support, _require_rational(z, "factor z"), a)


class ProductSpec(Record):
    """A non-empty list of factors, multiplied together."""

    _fields = ("factors",)

    def __init__(self, factors: tuple[Factor, ...]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a product spec needs at least one factor")
        for f in factors:
            if not isinstance(f, Factor):
                raise TypeError(f"a product spec's factors must be Factors, got {f!r}")
        self._assign(factors)


def spec_from_factors(*triples) -> ProductSpec:
    """Build a ProductSpec from (support, z, a) triples."""
    return ProductSpec(tuple(Factor(s, z, a) for s, z, a in triples))


def scaled_factors(numer, denom) -> tuple[int, int, list[tuple[SupportSet, int, int]]]:
    """``(L, q, [(support, z L, q a), ...])`` for ``numer / denom``, each side a
    :class:`ProductSpec` or ``None`` for 1: the numerator's factors, then the
    denominator's with ``-a``.  ``L`` is the lcm of all z denominators, so
    under ``t = L s`` a factor ``(1 - z t^m)^a`` is ``(1 - (z L) L^(m-1) s^m)^a``,
    and ``q`` that of the exponents'.  The ratio's ``t^n`` coefficients ``c_n`` give
    integers ``(L q^2)^n c_n``: ``binom(1/q, j) q^(2j)`` is ``p``-integral for ``p`` prime
    to ``q`` (Mahler, 1958) and, by ``v_p(j!) < j``, for ``p | q``."""
    factors = []
    for name, side, sign in (("numer", numer, 1), ("denom", denom, -1)):
        if isinstance(side, ProductSpec):
            factors += [(f, sign * f.a) for f in side.factors]
        elif side is not None:
            raise TypeError(f"{name} must be a ProductSpec or None, got {side!r}")
    scale = lcm(*(f.z.denominator for f, _ in factors))
    q = lcm(*(a.denominator for _, a in factors))
    return scale, q, [
        (f.support, f.z.numerator * (scale // f.z.denominator), a.numerator * (q // a.denominator))
        for f, a in factors
    ]


def unscale(ints, scale: int) -> list[Fraction]:
    """``[Fraction(A_n, S^n)]``, the values of a route's ``(ints, scale) = (A, S)``."""
    from fractions import Fraction

    out, power = [], 1
    for c in ints:
        out.append(Fraction(c, power))
        power *= scale
    return out


def _require_rational(value, name: str = "value") -> int | Fraction:
    """``value``, an ``int`` (not a ``bool``) or a ``Fraction``, as an ``int`` if integral; a
    float is rejected rather than coerced.  Only a value that is no ``int`` loads ``fractions``."""
    if isinstance(value, bool) or not isinstance(value, int):
        from fractions import Fraction

        if not isinstance(value, Fraction):
            require_int(value, f"{name}, if not a Fraction,")
    return int(value) if value.denominator == 1 else value
