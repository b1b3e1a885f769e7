"""Named partition functions built on the closed-sum engine.

Each function here is the coefficient sequence of a fixed quotient of
``(1 - t^m)``-style products.  Two evaluation routes exist and must agree:

* ``"faa"``: the partition-indexed closed sum (:mod:`bellforge.bellpoly`),
  evaluated for the whole prefix ``0..n`` by one integer Bell recurrence on
  the numerator's weights minus the denominator's,
* ``"series"``: expansion of the product ratio (:mod:`bellforge.series`).

:func:`route_prefix` is the one map from a route name to its evaluator.
Only the closed sum keeps state, the one prefix cache of
:mod:`bellforge.bellpoly`; the series oracle is a pure function of the
quotient and the order, so the two routes share nothing.  The recurrence
costs O(n) integer operations per new ``n``, so the named counts take the
closed sum and only :func:`sequence`, whose callers check the routes against
each other, takes a route; the Chan and Kim product quotients stay on the
series route, and a loop over their per-``n`` functions re-expands each time.  All named counts must come out as nonnegative
integers; anything else raises :class:`InconsistencyError` since it can only
mean an internal defect.
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


# name -> (numerator, denominator) of the named count sequences; the
# denominator of "w" is the product over its parts list
SEQUENCES = {
    "p": (None, PARTITION_PRODUCT),
    "w": (None, None),
    "cubic": (None, CUBIC_PRODUCT),
    "overcubic": (OVERCUBIC_NUMERATOR, OVERCUBIC_DENOMINATOR),
    "psi-star": (PSI_NUMERATOR, PSI_DENOMINATOR),
    "phi-star": (PHI_NUMERATOR, PHI_DENOMINATOR),
}


def sequence(name: str, n: int, method: str = "faa", parts=None) -> list[int]:
    """Values ``0..n`` of a named sequence from one prefix request on the
    route ``method``; ``"w"`` needs ``parts`` and no other name takes them."""
    prefix = _named_prefix(name, n, method, parts)
    return [_as_count(v, f"{name}({m})") for m, v in enumerate(prefix)]


def _count(name: str, n: int, parts=None) -> int:
    return _as_count(_named_prefix(name, n, "faa", parts)[n], f"{name}({n})")


def _named_prefix(name, n, method, parts) -> list[Fraction]:
    if name not in SEQUENCES:
        raise ValueError(f"unknown sequence {name!r}; known: {', '.join(SEQUENCES)}")
    numer, denom = SEQUENCES[name]
    if name == "w":
        if parts is None:
            raise ValueError("sequence 'w' needs a parts list")
        denom = restricted_product(parts)
    elif parts is not None:
        raise ValueError(f"a parts list applies only to sequence 'w', not {name!r}")
    return route_prefix(numer, denom, n, method)


def _as_count(value: Fraction, what: str) -> int:
    if value.denominator != 1 or value < 0:
        raise InconsistencyError(f"{what} evaluated to {value}, not a count")
    return int(value)


def partition_function(n: int) -> int:
    """p(n): partitions of ``n``, from the reciprocal of ``prod (1 - t^m)``:
    the sum over partitions of ``prod (1/k_j!) (sigma(j)/j)^{k_j}``, which
    must collapse to an integer.
    """
    return _count("p", n)


def restricted_partition_count(n: int, parts) -> int:
    """Partitions of ``n`` into parts from a distinct positive list."""
    return _count("w", n, parts)


def cubic_partition_count(n: int) -> int:
    """a(n): partitions of ``n`` where even parts come in two colors."""
    return _count("cubic", n)


def chan_product_coefficient(n: int) -> int:
    """Three times the ``t^n`` coefficient of Chan's product quotient;
    equals ``a(3n+2)``.  Series route only, so the identity check against
    :func:`cubic_partition_count` compares two independent expansions."""
    value = 3 * route_prefix(CHAN_NUMERATOR, CHAN_DENOMINATOR, n, "series")[n]
    return _as_count(value, f"chan({n})")


def overcubic_partition_count(n: int) -> int:
    """abar(n): overlined variant of the cubic partitions, generated by
    ``prod (1-t^{4m}) / [prod (1-t^m)^2 prod (1-t^{2m})]``."""
    return _count("overcubic", n)


def kim_product_coefficient(n: int) -> int:
    """Six times the ``t^n`` coefficient of Kim's product quotient;
    equals ``abar(3n+2)``.  Series route only, as for Chan."""
    value = 6 * route_prefix(KIM_NUMERATOR, KIM_DENOMINATOR, n, "series")[n]
    return _as_count(value, f"kim({n})")


def ramanujan_psi_coefficient(n: int) -> int:
    """Coefficient of ``t^n`` in ``prod (1-t^{2m})^2 / prod (1-t^m)``:
    1 when ``n`` is a triangular number, else 0."""
    return _count("psi-star", n)


def ramanujan_phi_coefficient(n: int) -> int:
    """Coefficient of ``t^n`` in
    ``prod (1-t^{2m})^5 / [prod (1-t^m)^2 prod (1-t^{4m})^2]``:
    2 when ``n`` is a positive square, 1 at ``n = 0``, else 0."""
    return _count("phi-star", n)
