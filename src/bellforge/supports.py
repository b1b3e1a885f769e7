"""Support sets and factored product specifications.

A :class:`ProductSpec` describes a (possibly infinite) product

    prod over factors  prod_{m in support} (1 - z * t^m)^a

with exact rational ``z`` and nonzero integer exponent ``a``.  The rest of
the library extracts power-series coefficients of such products, of their
reciprocals, and of ratios of two of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

ALL = "all"
MULTIPLES = "multiples"
FINITE = "finite"


@dataclass(frozen=True)
class SupportSet:
    """A set of positive integers: all of them, all multiples of ``r``,
    or an explicit finite set."""

    kind: str
    r: int = 1
    members: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in (ALL, MULTIPLES, FINITE):
            raise ValueError(f"unknown support kind {self.kind!r}")
        if self.kind == MULTIPLES:
            _require_int(self.r, "multiples-of support r")
            if self.r < 1:
                raise ValueError("multiples-of support needs an integer r >= 1")
        if self.kind == FINITE:
            members = tuple(self.members)
            for m in members:
                _require_int(m, "finite support member")
            members = tuple(sorted(members))
            if not members:
                raise ValueError("finite support must be non-empty")
            if len(set(members)) != len(members):
                raise ValueError("finite support members must be distinct")
            if members[0] < 1:
                raise ValueError("finite support members must be >= 1")
            object.__setattr__(self, "members", members)

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
        if kind == "all":
            return cls.all_naturals()
        if kind == "multiples":
            return cls.multiples_of(_as_int(obj.get("r"), "r"))
        if kind == "finite":
            members = obj.get("set")
            if not isinstance(members, list):
                raise ValueError("finite support needs a 'set' list")
            return cls.finite(_as_int(m, "set member") for m in members)
        raise ValueError(f"unknown support kind {kind!r}")


@dataclass(frozen=True)
class Factor:
    """One factor family ``prod_{m in support} (1 - z * t^m)^a``."""

    support: SupportSet
    z: Fraction
    a: int

    def __post_init__(self):
        _require_int(self.a, "factor exponent a")
        if self.a == 0:
            raise ValueError("factor exponent a must be a nonzero integer")
        if not isinstance(self.z, Fraction):
            if isinstance(self.z, bool) or not isinstance(self.z, int):
                raise TypeError(f"factor z must be an int or a Fraction, got {self.z!r}")
            object.__setattr__(self, "z", Fraction(self.z))

    def negated(self) -> "Factor":
        return Factor(self.support, self.z, -self.a)

    def to_json(self) -> dict:
        return {"support": self.support.to_json(), "z": str(self.z), "a": self.a}

    @classmethod
    def from_json(cls, obj) -> "Factor":
        if not isinstance(obj, dict):
            raise ValueError("factor must be an object")
        support = SupportSet.from_json(obj.get("support"))
        z = obj.get("z", "1")
        if isinstance(z, str):
            try:
                z = Fraction(z)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational {obj.get('z')!r}") from exc
        elif isinstance(z, int):
            z = Fraction(z)
        else:
            raise ValueError("z must be an integer or a 'p/q' string")
        return cls(support, z, _as_int(obj.get("a"), "a"))


@dataclass(frozen=True)
class ProductSpec:
    """A non-empty list of factors, multiplied together."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("a product spec needs at least one factor")
        object.__setattr__(self, "factors", factors)

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
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("spec file must contain a JSON object")
    unknown = set(obj) - {"numerator", "denominator"}
    if unknown:
        raise ValueError(f"unknown spec fields: {sorted(unknown)}")

    def side(name):
        raw = obj.get(name, [])
        if not isinstance(raw, list):
            raise ValueError(f"{name} must be a list of factors")
        if not raw:
            return None
        return ProductSpec(tuple(Factor.from_json(f) for f in raw))

    return side("numerator"), side("denominator")


def _require_int(value, name) -> None:
    """Library-side type check: a real ``int``; ``bool`` and ``float`` are
    rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _as_int(value, name) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value
