"""The ``eval`` command's plan, one prefix request per route, and the JSON spec file it reads.

A spec file is ``{"numerator": [...], "denominator": [...]}``, each side a
list of factors ``{"support": ..., "z": "p/q", "a": "p/q"}``, ``z`` and the
nonzero ``a`` each an integer or a string in that form, with a support
``{"kind": "all"}``, ``{"kind": "multiples", "r": 2}`` or
``{"kind": "finite", "set": [1, 2]}``.  Only ``eval`` and the tests import
this module, so no other request compiles the format.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .cli import UsageError
from .supports import ALL, FINITE, MULTIPLES, Factor, ProductSpec, SupportSet, unscale

# the keys a JSON support object may carry, by kind
_SUPPORT_KEYS = {ALL: ("kind",), MULTIPLES: ("kind", "r"), FINITE: ("kind", "set")}


def support_to_json(support: SupportSet) -> dict:
    if support.kind == ALL:
        return {"kind": "all"}
    if support.kind == MULTIPLES:
        return {"kind": "multiples", "r": support.r}
    return {"kind": "finite", "set": list(support.members)}


def factor_to_json(factor: Factor) -> dict:
    a = factor.a if isinstance(factor.a, int) else str(factor.a)
    return {"support": support_to_json(factor.support), "z": str(factor.z), "a": a}


def spec_to_json(spec: ProductSpec) -> list:
    return [factor_to_json(f) for f in spec.factors]


def support_from_json(obj) -> SupportSet:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("support must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _SUPPORT_KEYS:
        raise ValueError(f"unknown support kind {kind!r}")
    _reject_unknown(obj, _SUPPORT_KEYS[kind], f"{kind!r} support")
    if kind == ALL:
        return SupportSet.all_naturals()
    if kind == MULTIPLES:
        return SupportSet.multiples_of(_as_int(obj.get("r"), "r"))
    members = obj.get("set")
    if not isinstance(members, list):
        raise ValueError("finite support needs a 'set' list")
    return SupportSet.finite(_as_int(m, "set member") for m in members)


def factor_from_json(obj) -> Factor:
    if not isinstance(obj, dict):
        raise ValueError("factor must be an object")
    _reject_unknown(obj, ("support", "z", "a"), "factor")
    support = support_from_json(obj.get("support"))
    return Factor(support, _as_rational(obj.get("z", "1"), "z"), _as_rational(obj.get("a"), "a"))


def ratio_from_json(text: str) -> tuple[ProductSpec | None, ProductSpec | None]:
    """Parse the ``{"numerator": [...], "denominator": [...]}`` spec format.

    Either side may be empty (meaning the constant series 1).
    """
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
        return ProductSpec(tuple(factor_from_json(f) for f in raw))

    return side("numerator"), side("denominator")


def _as_rational(value, name) -> Fraction:
    if isinstance(value, str):
        return _parse_rational(value)
    return Fraction(_as_int(value, f"{name}, if not a 'p/q' string,"))


def _parse_rational(text: str) -> Fraction:
    """``[+-]digits[/digits]`` in ASCII digits.  Exponent, decimal-point,
    ``_`` and whitespace forms are refused: ``Fraction("1e-20000000")``
    would expand the exponent before the request is priced."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    for part in (digits, den) if slash else (digits,):
        if not (part.isascii() and part.isdigit()):
            raise ValueError(f"bad rational {text!r}")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}") from exc


def _reject_unknown(obj: dict, allowed, what: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def _as_int(value, name) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def plan_eval(args):
    try:
        with open(args["spec"], "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read spec file: {exc}") from exc
    try:
        numer, denom = ratio_from_json(text)
    except ValueError as exc:
        raise UsageError(f"bad spec file: {exc}") from exc
    routes = ("faa", "series") if args["method"] == "both" else (args["method"],)
    requests = [(route, numer, denom, args["max"]) for route in routes]
    return f"--max {args['max']} on this spec", requests, [1] * len(requests), 0, _print_columns


def _print_columns(*columns) -> int:
    # the budget bounds every value's bits: print past the digit limit (main restores it)
    getattr(sys, "set_int_max_str_digits", int)(0)
    values = unscale(*columns[0])
    if len(columns) == 1:
        print("n,value")
        for n, value in enumerate(values):
            print(f"{n},{value}")
        return 0

    # equal (ints, scale) pairs hold equal values: two routes that agree unscale once
    others = values if columns[1] == columns[0] else unscale(*columns[1])
    print("n,faa,series,agree")
    for n, (left, right) in enumerate(zip(values, others)):
        print(f"{n},{left},{right},{str(left == right).lower()}")
    return 0 if values == others else 1
