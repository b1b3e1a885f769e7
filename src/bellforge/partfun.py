"""Named partition functions built on the closed-sum engine.

Each function here is the coefficient sequence of a fixed quotient of
``(1 - t^m)``-style products.  Two evaluation routes exist and must agree:

* ``"faa"``: the partition-indexed closed sum (:mod:`bellforge.bellpoly`),
  evaluated for the whole prefix ``0..n`` by one integer Bell recurrence on
  the numerator's weights minus the denominator's,
* ``"series"``: expansion of the product ratio (:mod:`bellforge.series`).

Both keep their prefixes in the one cache of :func:`bellpoly.cached_prefix`;
the per-``n`` functions slice a prefix, :func:`sequence` asks for it once.

The default ``method="auto"`` is the closed sum at every ``n``: the
recurrence costs O(n) integer operations per new ``n``, so no size needs the
series route.  The theta coefficient functions default to the series route,
so that their defining checks exercise the oracle.  All named counts must
come out as nonnegative integers; anything else raises
:class:`InconsistencyError` since it can only mean an internal defect.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import require_natural
from .bellpoly import IdentityReport, InconsistencyError, cached_prefix, ratio_coefficients
from .series import TruncatedSeries, expand_ratio
from .supports import ProductSpec, Record, SupportSet, spec_from_factors

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


def ratio_series(
    numer: ProductSpec | None, denom: ProductSpec | None, order: int
) -> TruncatedSeries:
    """Cached :func:`series.expand_ratio` of numerator/denominator to at
    least ``order``.

    A miss expands to ``order``; a request past the cached order re-expands
    to ``max(order, 2 * cached order)``, so a loop over ``n = 0..N`` costs
    O(log N) expansions rather than one per ``n``.  The returned series may
    therefore be longer than requested; coefficients up to the requested
    order are unaffected by the truncation point.
    """
    require_natural(order, "order")
    return cached_prefix("series", numer, denom, order, _grow_series)


def _grow_series(numer, denom, cached, order):
    if cached is not None:
        order = max(order, 2 * cached.order)
    return order, expand_ratio(numer, denom, order)


def _prefix(numer, denom, n, method) -> list[Fraction]:
    """Coefficients ``0..n`` of numer/denom; ``"auto"`` is the closed sum."""
    require_natural(n)
    if method in ("auto", "faa"):
        return ratio_coefficients(numer, denom, n)
    if method == "series":
        return list(ratio_series(numer, denom, n).coeffs[: n + 1])
    raise ValueError(f"method must be 'faa', 'series' or 'auto', got {method!r}")


# name -> (numerator, denominator, default method) of the named count
# sequences; the denominator of "w" is the product over its parts list
SEQUENCES = {
    "p": (None, PARTITION_PRODUCT, "auto"),
    "w": (None, None, "auto"),
    "cubic": (None, CUBIC_PRODUCT, "auto"),
    "overcubic": (OVERCUBIC_NUMERATOR, OVERCUBIC_DENOMINATOR, "auto"),
    "psi-star": (PSI_NUMERATOR, PSI_DENOMINATOR, "series"),
    "phi-star": (PHI_NUMERATOR, PHI_DENOMINATOR, "series"),
}


def sequence(name: str, n: int, method: str | None = None, parts=None) -> list[int]:
    """Values ``0..n`` of a named sequence from one prefix request, on
    ``method`` or the sequence's default route; ``"w"`` needs ``parts``."""
    prefix = _named_prefix(name, n, method, parts)
    return [_as_count(v, f"{name}({m})") for m, v in enumerate(prefix)]


def _count(name: str, n: int, method: str, parts=None) -> int:
    return _as_count(_named_prefix(name, n, method, parts)[n], f"{name}({n})")


def _named_prefix(name, n, method, parts) -> list[Fraction]:
    numer, denom, default = SEQUENCES[name]
    if name == "w":
        denom = restricted_product(parts)
    return _prefix(numer, denom, n, method or default)


def _as_count(value: Fraction, what: str) -> int:
    if value.denominator != 1 or value < 0:
        raise InconsistencyError(f"{what} evaluated to {value}, not a count")
    return int(value)


def partition_function(n: int, method: str = "auto") -> int:
    """p(n): partitions of ``n``, from the reciprocal of ``prod (1 - t^m)``.

    On the closed-sum route this is the sum over partitions of
    ``prod (1/k_j!) (sigma(j)/j)^{k_j}``, which must collapse to an integer.
    """
    return _count("p", n, method)


def restricted_partition_count(n: int, parts, method: str = "auto") -> int:
    """Partitions of ``n`` into parts from a distinct positive list."""
    return _count("w", n, method, parts)


def cubic_partition_count(n: int, method: str = "auto") -> int:
    """a(n): partitions of ``n`` where even parts come in two colors."""
    return _count("cubic", n, method)


def chan_product_coefficient(n: int) -> int:
    """Three times the ``t^n`` coefficient of Chan's product quotient;
    equals ``a(3n+2)``.  Series route only, so the identity check against
    :func:`cubic_partition_count` compares two independent expansions."""
    value = 3 * ratio_series(CHAN_NUMERATOR, CHAN_DENOMINATOR, n).coefficient(n)
    return _as_count(value, f"chan({n})")


def overcubic_partition_count(n: int, method: str = "auto") -> int:
    """abar(n): overlined variant of the cubic partitions, generated by
    ``prod (1-t^{4m}) / [prod (1-t^m)^2 prod (1-t^{2m})]``."""
    return _count("overcubic", n, method)


def kim_product_coefficient(n: int) -> int:
    """Six times the ``t^n`` coefficient of Kim's product quotient;
    equals ``abar(3n+2)``.  Series route only, as for Chan."""
    value = 6 * ratio_series(KIM_NUMERATOR, KIM_DENOMINATOR, n).coefficient(n)
    return _as_count(value, f"kim({n})")


def ramanujan_psi_coefficient(n: int, method: str = "series") -> int:
    """Coefficient of ``t^n`` in ``prod (1-t^{2m})^2 / prod (1-t^m)``:
    1 when ``n`` is a triangular number, else 0."""
    return _count("psi-star", n, method)


def ramanujan_phi_coefficient(n: int, method: str = "series") -> int:
    """Coefficient of ``t^n`` in
    ``prod (1-t^{2m})^5 / [prod (1-t^m)^2 prod (1-t^{4m})^2]``:
    2 when ``n`` is a positive square, 1 at ``n = 0``, else 0."""
    return _count("phi-star", n, method)


class FourFactorSpec(Record):
    """Up to two multiples-of factors above and two below the line:
    ``prod (1-t^{r1 m})^{a1} (1-t^{r2 m})^{a2} /
    [prod (1-t^{s1 m})^{b1} (1-t^{s2 m})^{b2}]``.
    A slot with modulus ``None`` is absent; present slots need modulus >= 1
    and exponent >= 1.
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
        for r, e, name in (
            (r1, a1, "numerator 1"),
            (r2, a2, "numerator 2"),
            (s1, b1, "denominator 1"),
            (s2, b2, "denominator 2"),
        ):
            if r is None:
                continue
            if r < 1 or e < 1:
                raise ValueError(f"{name}: modulus and exponent must be >= 1")
        self._assign(r1, a1, r2, a2, s1, b1, s2, b2)

    def numerator(self) -> ProductSpec | None:
        return _multiples_spec((self.r1, self.a1), (self.r2, self.a2))

    def denominator(self) -> ProductSpec | None:
        return _multiples_spec((self.s1, self.b1), (self.s2, self.b2))


def _multiples_spec(*slots) -> ProductSpec | None:
    triples = [
        (SupportSet.multiples_of(r), 1, e) for r, e in slots if r is not None
    ]
    return spec_from_factors(*triples) if triples else None


def four_factor_coefficient(n: int, spec: FourFactorSpec, method: str = "auto") -> Fraction:
    """Exact ``t^n`` coefficient of the four-factor quotient.  Returned as a
    rational: arbitrary exponent choices need not give integer coefficients."""
    return _prefix(spec.numerator(), spec.denominator(), n, method)[n]


def restricted_recursion_report(n: int, parts) -> IdentityReport:
    """Check ``W(n, parts) - W(n - last, parts) == W(n, parts-without-last)``
    exactly, counting ``W`` at negative arguments as 0."""
    require_natural(n)
    parts = list(parts)
    if len(parts) < 2:
        raise ValueError("the recursion needs at least two parts")
    last = parts[-1]
    counts = sequence("w", n, "series", parts)
    full, shifted = counts[n], counts[n - last] if n >= last else 0
    rhs = sequence("w", n, "series", parts[:-1])[n]
    lhs = full - shifted
    return IdentityReport(
        "restricted-recursion",
        n,
        lhs == rhs,
        f"{full}-{shifted}={lhs}",
        str(rhs),
    )
