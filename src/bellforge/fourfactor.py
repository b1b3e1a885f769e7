"""Quotients of up to four multiples-of products, written by their slots.

:class:`FourFactorSpec` is a shorthand for the ratios of the classical
theta and cubic generating functions; :func:`four_factor_coefficient`
evaluates one by the closed sum.
"""

from __future__ import annotations

from fractions import Fraction

from .partfun import route_prefix
from .supports import ProductSpec, Record, SupportSet, _require_int, spec_from_factors


class FourFactorSpec(Record):
    """Up to two multiples-of factors above and two below the line:
    ``prod (1-t^{r1 m})^{a1} (1-t^{r2 m})^{a2} /
    [prod (1-t^{s1 m})^{b1} (1-t^{s2 m})^{b2}]``.
    Every exponent is an ``int`` >= 1, and so is the modulus of a present
    slot.  A slot with modulus ``None`` is absent and stores exponent 1, so
    one quotient is one record.
    """

    _fields = ("r1", "a1", "r2", "a2", "s1", "b1", "s2", "b2")

    def __init__(
        self,
        r1: int | None = None,
        a1: int = 1,
        r2: int | None = None,
        a2: int = 1,
        s1: int | None = None,
        b1: int = 1,
        s2: int | None = None,
        b2: int = 1,
    ):
        slots = []
        for r, e, name in (
            (r1, a1, "numerator 1"),
            (r2, a2, "numerator 2"),
            (s1, b1, "denominator 1"),
            (s2, b2, "denominator 2"),
        ):
            _require_int(e, f"{name} exponent")
            if e < 1:
                raise ValueError(f"{name}: exponent must be >= 1")
            if r is None:
                e = 1
            else:
                _require_int(r, f"{name} modulus")
                if r < 1:
                    raise ValueError(f"{name}: modulus must be >= 1")
            slots += (r, e)
        self._assign(*slots)

    def numerator(self) -> ProductSpec | None:
        return _multiples_spec((self.r1, self.a1), (self.r2, self.a2))

    def denominator(self) -> ProductSpec | None:
        return _multiples_spec((self.s1, self.b1), (self.s2, self.b2))


def _multiples_spec(*slots) -> ProductSpec | None:
    triples = [
        (SupportSet.multiples_of(r), 1, e) for r, e in slots if r is not None
    ]
    return spec_from_factors(*triples) if triples else None


def four_factor_coefficient(n: int, spec: FourFactorSpec) -> Fraction:
    """Exact ``t^n`` coefficient of the four-factor quotient.  Returned as a
    rational: arbitrary exponent choices need not give integer coefficients."""
    return route_prefix(spec.numerator(), spec.denominator(), n, "faa")[n]
