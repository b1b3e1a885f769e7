"""Named partition functions built on the closed-sum engine.

Each function here is the coefficient sequence of a fixed quotient of
``(1 - t^m)``-style products.  Two evaluation routes exist and must agree:

* ``"faa"``: the partition-indexed closed sum (:mod:`bellforge.bellpoly`),
  evaluated for the whole prefix ``0..n`` by one integer Bell recurrence on
  the numerator's weights minus the denominator's,
* ``"series"``: expansion of the product ratio (:mod:`bellforge.series`).

:func:`route_prefix` is the one map from a route name to its evaluator.
Neither route keeps state: each is a pure function of the quotient and the
order, so the two routes share nothing.  :func:`sequence` answers every
named count as its whole prefix ``0..n`` from one request, on the closed
sum unless the caller asks for the series route.  All named counts must
come out as nonnegative integers; anything else raises
:class:`InconsistencyError` since it can only mean an internal defect.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import require_natural
from .bellpoly import InconsistencyError, ratio_coefficients
from .supports import ProductSpec, SupportSet, spec_from_factors

_ALL = SupportSet.all_naturals()


# generating products for the named sequences
PARTITION_PRODUCT = spec_from_factors((_ALL, 1, 1))
CUBIC_PRODUCT = spec_from_factors((_ALL, 1, 1), (SupportSet.multiples_of(2), 1, 1))
OVERCUBIC_NUMERATOR = spec_from_factors((SupportSet.multiples_of(4), 1, 1))
OVERCUBIC_DENOMINATOR = spec_from_factors(
    (_ALL, 1, 2), (SupportSet.multiples_of(2), 1, 1)
)
# 3 and 6 times the t^n coefficients of Chan's and Kim's quotients are
# a(3n+2) and abar(3n+2); verify reads them on the series route
CHAN_NUMERATOR = spec_from_factors(
    (SupportSet.multiples_of(3), 1, 3), (SupportSet.multiples_of(6), 1, 3)
)
CHAN_DENOMINATOR = spec_from_factors(
    (_ALL, 1, 4), (SupportSet.multiples_of(2), 1, 4)
)
KIM_NUMERATOR = spec_from_factors(
    (SupportSet.multiples_of(3), 1, 6), (SupportSet.multiples_of(4), 1, 3)
)
KIM_DENOMINATOR = spec_from_factors(
    (_ALL, 1, 8), (SupportSet.multiples_of(2), 1, 3)
)
PSI_NUMERATOR = spec_from_factors((SupportSet.multiples_of(2), 1, 2))
PSI_DENOMINATOR = PARTITION_PRODUCT
PHI_NUMERATOR = spec_from_factors((SupportSet.multiples_of(2), 1, 5))
PHI_DENOMINATOR = spec_from_factors(
    (_ALL, 1, 2), (SupportSet.multiples_of(4), 1, 2)
)


def restricted_product(parts) -> ProductSpec:
    """The product ``prod_{d in parts} (1 - t^d)`` for a distinct parts list."""
    return spec_from_factors((SupportSet.finite(parts), 1, 1))


def route_prefix(numer, denom, n: int, method: str) -> list[Fraction]:
    """Coefficients ``0..n`` of numer/denom on the route ``method``:
    ``"faa"`` (the closed sum) or ``"series"`` (the oracle)."""
    require_natural(n)
    if method == "faa":
        return ratio_coefficients(numer, denom, n)
    if method == "series":
        # imported here so that closed-sum requests never load the series route
        from .series import expand_ratio

        return expand_ratio(numer, denom, n)
    raise ValueError(f"method must be 'faa' or 'series', got {method!r}")


# name -> (numerator, denominator) of the named count sequences
SEQUENCES = {
    # p(n): partitions of n
    "p": (None, PARTITION_PRODUCT),
    # partitions of n into parts from a distinct list; the denominator is
    # the product over that list
    "w": (None, None),
    # a(n): partitions of n whose even parts come in two colors
    "cubic": (None, CUBIC_PRODUCT),
    # abar(n), overlined cubic partitions: prod (1-t^{4m}) / [prod (1-t^m)^2 prod (1-t^{2m})]
    "overcubic": (OVERCUBIC_NUMERATOR, OVERCUBIC_DENOMINATOR),
    # prod (1-t^{2m})^2 / prod (1-t^m): 1 at the triangular numbers, else 0
    "psi-star": (PSI_NUMERATOR, PSI_DENOMINATOR),
    # prod (1-t^{2m})^5 / [prod (1-t^m)^2 prod (1-t^{4m})^2]: 2 at the
    # positive squares, 1 at 0, else 0
    "phi-star": (PHI_NUMERATOR, PHI_DENOMINATOR),
}


def sequence(name: str, n: int, method: str = "faa", parts=None) -> list[int]:
    """Values ``0..n`` of a named sequence from one prefix request on the
    route ``method``; ``"w"`` needs ``parts`` and no other name takes them."""
    if name not in SEQUENCES:
        raise ValueError(f"unknown sequence {name!r}; known: {', '.join(SEQUENCES)}")
    numer, denom = SEQUENCES[name]
    if name == "w":
        if parts is None:
            raise ValueError("sequence 'w' needs a parts list")
        denom = restricted_product(parts)
    elif parts is not None:
        raise ValueError(f"a parts list applies only to sequence 'w', not {name!r}")
    prefix = route_prefix(numer, denom, n, method)
    return [_as_count(v, f"{name}({m})") for m, v in enumerate(prefix)]


def _as_count(value: Fraction, what: str) -> int:
    if value.denominator != 1 or value < 0:
        raise InconsistencyError(f"{what} evaluated to {value}, not a count")
    return int(value)
