"""Support sets and factored product specifications.

A :class:`ProductSpec` describes a (possibly infinite) product

    prod over factors  prod_{m in support} (1 - z * t^m)^a

with exact rational ``z`` and nonzero integer exponent ``a``.  The rest of
the library extracts power-series coefficients of such products, of their
reciprocals, and of ratios of two of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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

    def __init__(self, kind: str, r: int = 1, members: tuple[int, ...] = ()):
        if kind not in (ALL, MULTIPLES, FINITE):
            raise ValueError(f"unknown support kind {kind!r}")
        if kind == MULTIPLES:
            _require_int(r, "multiples-of support r")
            if r < 1:
                raise ValueError("multiples-of support needs an integer r >= 1")
        if kind == FINITE:
            members = tuple(members)
            for m in members:
                _require_int(m, "finite support member")
            members = tuple(sorted(members))
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

    def contains(self, d: int) -> bool:
        if d < 1:
            return False
        if self.kind == ALL:
            return True
        if self.kind == MULTIPLES:
            return d % self.r == 0
        return d in self.members

    def members_up_to(self, n: int):
        """Elements of the set that are <= n, in increasing order."""
        if self.kind == ALL:
            return range(1, n + 1)
        if self.kind == MULTIPLES:
            return range(self.r, n + 1, self.r)
        return [m for m in self.members if m <= n]

    def divisors_in(self, n: int) -> list[int]:
        """Divisors of ``n`` that lie in the set, in increasing order."""
        if n < 1:
            raise ValueError("n must be >= 1")
        found = []
        i = 1
        while i * i <= n:
            if n % i == 0:
                if self.contains(i):
                    found.append(i)
                j = n // i
                if j != i and self.contains(j):
                    found.append(j)
            i += 1
        found.sort()
        return found

    def to_json(self) -> dict:
        if self.kind == ALL:
            return {"kind": "all"}
        if self.kind == MULTIPLES:
            return {"kind": "multiples", "r": self.r}
        return {"kind": "finite", "set": list(self.members)}

    @classmethod
    def from_json(cls, obj) -> "SupportSet":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("support must be an object with a 'kind' field")
        kind = obj["kind"]
        if not isinstance(kind, str) or kind not in _SUPPORT_KEYS:
            raise ValueError(f"unknown support kind {kind!r}")
        _reject_unknown(obj, _SUPPORT_KEYS[kind], f"{kind!r} support")
        if kind == "all":
            return cls.all_naturals()
        if kind == "multiples":
            return cls.multiples_of(_as_int(obj.get("r"), "r"))
        members = obj.get("set")
        if not isinstance(members, list):
            raise ValueError("finite support needs a 'set' list")
        return cls.finite(_as_int(m, "set member") for m in members)


class Factor(Record):
    """One factor family ``prod_{m in support} (1 - z * t^m)^a``."""

    _fields = ("support", "z", "a")

    def __init__(self, support: SupportSet, z: Fraction, a: int):
        _require_int(a, "factor exponent a")
        if a == 0:
            raise ValueError("factor exponent a must be a nonzero integer")
        if not isinstance(z, Fraction):
            if isinstance(z, bool) or not isinstance(z, int):
                raise TypeError(f"factor z must be an int or a Fraction, got {z!r}")
            z = Fraction(z)
        self._assign(support, z, a)

    def negated(self) -> "Factor":
        return Factor(self.support, self.z, -self.a)

    def to_json(self) -> dict:
        return {"support": self.support.to_json(), "z": str(self.z), "a": self.a}

    @classmethod
    def from_json(cls, obj) -> "Factor":
        if not isinstance(obj, dict):
            raise ValueError("factor must be an object")
        _reject_unknown(obj, ("support", "z", "a"), "factor")
        support = SupportSet.from_json(obj.get("support"))
        z = obj.get("z", "1")
        if isinstance(z, str):
            try:
                z = Fraction(z)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational {obj.get('z')!r}") from exc
        elif isinstance(z, int) and not isinstance(z, bool):
            z = Fraction(z)
        else:
            raise ValueError("z must be an integer or a 'p/q' string")
        return cls(support, z, _as_int(obj.get("a"), "a"))


class ProductSpec(Record):
    """A non-empty list of factors, multiplied together."""

    _fields = ("factors",)

    def __init__(self, factors: tuple[Factor, ...]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a product spec needs at least one factor")
        self._assign(factors)

    def negated(self) -> "ProductSpec":
        return ProductSpec(tuple(f.negated() for f in self.factors))

    def z_scale(self) -> int:
        """The lcm ``L`` of the factors' z denominators.  Under ``t = L s``
        each ``z t^m`` becomes ``(z L^m) s^m`` with ``z L^m`` an integer, so
        the ``s^n`` coefficients of the product, its reciprocal or a ratio
        of two products scaled by the same ``L`` are integers ``c_n L^n``."""
        return lcm(*(f.z.denominator for f in self.factors))

    def to_json(self) -> list:
        return [f.to_json() for f in self.factors]


def spec_from_factors(*triples) -> ProductSpec:
    """Build a ProductSpec from (support, z, a) triples."""
    return ProductSpec(tuple(Factor(s, z, a) for s, z, a in triples))


def ratio_from_json(text: str) -> tuple[ProductSpec | None, ProductSpec | None]:
    """Parse the ``{"numerator": [...], "denominator": [...]}`` spec format.

    Either side may be empty (meaning the constant series 1).
    """
    import json

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("invalid JSON: nested too deeply") from exc
    if not isinstance(obj, dict):
        raise ValueError("spec file must contain a JSON object")
    _reject_unknown(obj, ("numerator", "denominator"), "spec")

    def side(name):
        raw = obj.get(name, [])
        if not isinstance(raw, list):
            raise ValueError(f"{name} must be a list of factors")
        if not raw:
            return None
        return ProductSpec(tuple(Factor.from_json(f) for f in raw))

    return side("numerator"), side("denominator")


# the keys a JSON support object may carry, by kind
_SUPPORT_KEYS = {ALL: ("kind",), MULTIPLES: ("kind", "r"), FINITE: ("kind", "set")}


def _reject_unknown(obj: dict, allowed, what: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def _require_int(value, name) -> None:
    """Library-side type check: a real ``int``; ``bool`` and ``float`` are
    rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _as_int(value, name) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value
