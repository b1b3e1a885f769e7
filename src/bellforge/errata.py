"""Status report for circulated closed-formula transcriptions.

The named partition functions have closed formulas in circulation whose
divisor weights drop the factor ``r`` in multiples-of-``r`` divisor sums and
whose sign/prefactor conventions are internally inconsistent.  This module
evaluates those transcriptions literally, next to the values forced by the
generating products, and reports per formula where they first depart.  The
product-form column is the ground truth; nothing here asserts what the
transcriptions "should" give.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import require_natural, sigma
from .bellpoly import partition_power_sum
from .partfun import sequence
from .supports import Record

_ZERO = Fraction(0)


def transcription_sum(n: int, coeff, weight=1) -> Fraction:
    """``sum over partitions of n of weight^(k_1+...+k_n) *
    prod (1/k_j!) (coeff(j)/j)^{k_j}``.

    The per-term weight folds into the coefficients, since
    ``w^(sum k_j) * prod c_j^{k_j} == prod (w c_j)^{k_j}``.
    """
    require_natural(n)
    w = Fraction(weight)
    return partition_power_sum(n, [_ZERO] + [w * Fraction(coeff(j)) for j in range(1, n + 1)])


def _sig_at(j: int, i: int) -> int:
    """``I_i(j) * sigma(j/i)``: the transcriptions' divisor term, without
    the factor ``i`` that the product forms force."""
    return sigma(j // i) if j % i == 0 else 0


def _cubic_coeff(j):
    return sigma(j) + _sig_at(j, 2)


def _chan_inner_coeff(j):
    return _sig_at(j, 3) + _sig_at(j, 6)


def printed_cubic(n: int) -> Fraction:
    """As-printed closed sum for the two-color partition count a(n)."""
    return transcription_sum(n, _cubic_coeff, weight=-1)


def printed_cubic_progression(n: int) -> Fraction:
    """As-printed closed sum for a(3n+2)."""
    total = 3 * transcription_sum(n, _cubic_coeff, weight=4)
    for m in range(1, n + 1):
        total += (
            3
            * transcription_sum(m, _chan_inner_coeff, weight=-3)
            * transcription_sum(n - m, _cubic_coeff, weight=4)
        )
    return total


def _overcubic_coeff(j):
    return 2 * sigma(j) + _sig_at(j, 2)


def printed_overcubic(n: int) -> Fraction:
    """As-printed closed sum for the overcubic count abar(n)."""
    total = transcription_sum(n, _overcubic_coeff)
    for m in range(1, n + 1):
        total += transcription_sum(m, lambda j: _sig_at(j, 4), weight=-1) * transcription_sum(
            n - m, _overcubic_coeff
        )
    return total


def _overcubic_prog_coeff(j):
    return 8 * sigma(j) + 3 * _sig_at(j, 2)


def printed_overcubic_progression(n: int) -> Fraction:
    """As-printed closed sum for abar(3n+2); the prefactor 6 sits on the
    first sum only, as displayed."""
    total = 6 * transcription_sum(n, _overcubic_prog_coeff)
    for m in range(1, n + 1):
        total += transcription_sum(
            m, lambda j: -6 * _sig_at(j, 3) - 3 * _sig_at(j, 4)
        ) * transcription_sum(n - m, _overcubic_prog_coeff)
    return total


def printed_triangular_theta(n: int) -> Fraction:
    """As-printed closed sum for the triangular-number indicator."""
    total = transcription_sum(n, sigma)
    for m in range(1, n + 1):
        total += transcription_sum(m, lambda j: _sig_at(j, 2), weight=-2) * transcription_sum(
            n - m, sigma
        )
    return total


def printed_square_theta(n: int) -> Fraction:
    """As-printed closed sum for the doubled square indicator."""
    coeff = lambda j: sigma(j) + _sig_at(j, 4)
    total = transcription_sum(n, coeff, weight=2)
    for m in range(1, n + 1):
        total += transcription_sum(m, lambda j: _sig_at(j, 2), weight=-5) * transcription_sum(
            n - m, coeff, weight=2
        )
    return total


class FormulaStatus(Record):
    """Comparison of one transcription against the product-form values."""

    _fields = (
        "name",
        "description",
        "checked_n",
        "product_form",
        "transcription",
        "agrees",
        "first_mismatch",
    )

    def __init__(
        self,
        name: str,
        description: str,
        checked_n: tuple[int, ...],
        product_form: tuple[str, ...],
        transcription: tuple[str, ...],
        agrees: bool,
        first_mismatch: int | None,
    ):
        self._assign(
            name, description, checked_n, product_form, transcription, agrees, first_mismatch
        )


_FORMULAS = (
    (
        "cubic",
        "two-color partition count a(n)",
        printed_cubic,
        lambda n: sequence("cubic", n, "series"),
    ),
    (
        "cubic-progression",
        "a(3n+2), indexed by n",
        printed_cubic_progression,
        lambda n: sequence("cubic", 3 * n + 2, "series")[2::3],
    ),
    (
        "overcubic",
        "overcubic partition count abar(n)",
        printed_overcubic,
        lambda n: sequence("overcubic", n, "series"),
    ),
    (
        "overcubic-progression",
        "abar(3n+2), indexed by n",
        printed_overcubic_progression,
        lambda n: sequence("overcubic", 3 * n + 2, "series")[2::3],
    ),
    (
        "triangular-theta",
        "triangular-number indicator psi*(n)",
        printed_triangular_theta,
        lambda n: sequence("psi-star", n),
    ),
    (
        "square-theta",
        "doubled square indicator phi*(n)",
        printed_square_theta,
        lambda n: sequence("phi-star", n),
    ),
)


def build_report(max_n: int = 8) -> list[FormulaStatus]:
    """Evaluate all transcriptions for ``n = 0..max_n`` and compare."""
    require_natural(max_n, "max_n")
    ns = tuple(range(max_n + 1))
    statuses = []
    for name, description, transcribed, reference in _FORMULAS:
        ref = [Fraction(v) for v in reference(max_n)]
        got = [transcribed(n) for n in ns]
        first = next((n for n in ns if ref[n] != got[n]), None)
        statuses.append(
            FormulaStatus(
                name,
                description,
                ns,
                tuple(str(v) for v in ref),
                tuple(str(v) for v in got),
                first is None,
                first,
            )
        )
    return statuses


def render_markdown(statuses) -> str:
    lines = [
        "# Closed-formula transcription status",
        "",
        "Product-form values are ground truth (they are cross-checked against",
        "independent series expansions in the test suite).  Each table shows a",
        "transcribed closed formula evaluated literally.",
        "",
    ]
    for st in statuses:
        verdict = (
            "agrees on the checked range"
            if st.agrees
            else f"first differs at n = {st.first_mismatch}"
        )
        lines.append(f"## {st.name}: {st.description}")
        lines.append("")
        lines.append(f"Status: **{verdict}**")
        lines.append("")
        lines.append("| n | product form | transcription |")
        lines.append("|---|---|---|")
        for n in st.checked_n:
            lines.append(f"| {n} | {st.product_form[n]} | {st.transcription[n]} |")
        lines.append("")
    return "\n".join(lines)


def render_json(statuses) -> str:
    import json

    payload = [
        {
            "name": st.name,
            "description": st.description,
            "checked_n": list(st.checked_n),
            "product_form": list(st.product_form),
            "transcription": list(st.transcription),
            "agrees": st.agrees,
            "first_mismatch": st.first_mismatch,
        }
        for st in statuses
    ]
    return json.dumps(payload, indent=2)
