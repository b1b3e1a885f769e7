"""Status report for circulated closed-formula transcriptions.

The named partition functions have closed formulas in circulation whose
divisor weights drop the factor ``r`` in multiples-of-``r`` divisor sums and
whose sign/prefactor conventions are internally inconsistent.  This module
evaluates those transcriptions as printed, next to the values forced by the
generating products, and reports per formula where they first depart.  Each
printed sum over partitions is evaluated exactly, on integers, by the Bell
recurrence that it satisfies, and each double sum as a convolution.  The product-form column
is the ground truth; nothing here asserts what the transcriptions "should"
give.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul

from .arith import require_natural
from .bellpoly import bell_extend
from .divisors import sigma
from .partfun import sequence
from .supports import Record, _require_rational


def transcription_sum(n: int, coeff, weight=1) -> list[Fraction]:
    """Values ``0..n`` of ``sum over partitions of m of
    weight^(k_1+...+k_m) * prod (1/k_j!) (coeff(j)/j)^{k_j}``, from
    :func:`_integer_prefixes`.

    The per-term weight folds into the coefficients, since
    ``w^(sum k_j) * prod c_j^{k_j} == prod (w c_j)^{k_j}``.
    """
    scale, (sums,) = _integer_prefixes(n, (coeff, weight))
    top = factorial(n)
    return [Fraction(s, top * scale**m) for m, s in enumerate(sums)]


def _integer_prefixes(n: int, *sums) -> tuple[int, list[list[int]]]:
    """``(L, [[n! L^m A_m for m = 0..n] per sum])`` for transcription sums
    given as ``(coeff, weight)``, all integers.  With ``w_j = weight * coeff(j)``
    each ``A_m`` is a complete Bell polynomial in the ``w_j / j``, so
    ``m A_m = sum_{k=1..m} w_k A_{m-k}``.  ``L`` is the lcm of the ``w_j``
    denominators: the weights ``w_j L^j`` are integers, so ``m! L^m A_m`` is
    one (a sum over permutations of cycle type ``k``), and started from
    ``n!`` the recurrence divides exactly.  It is :func:`bellpoly.bell_extend`."""
    require_natural(n)
    tables = []
    for coeff, weight in sums:
        weight = _require_rational(weight, "weight")
        tables.append([weight * _require_rational(coeff(j), "coeff(j)") for j in range(1, n + 1)])
    scale = lcm(*(w.denominator for table in tables for w in table))
    prefixes = []
    for table in tables:
        weights = [0] + [
            w.numerator * (scale // w.denominator) * scale ** (j - 1)
            for j, w in enumerate(table, 1)
        ]
        prefix = [factorial(n)]
        bell_extend(prefix, weights, n)
        prefixes.append(prefix)
    return scale, prefixes


def _sig_at(j: int, i: int) -> int:
    """``I_i(j) * sigma(j/i)``: the transcriptions' divisor term, without
    the factor ``i`` that the product forms force."""
    return sigma(j // i) if j % i == 0 else 0


def _cubic_coeff(j):
    return sigma(j) + _sig_at(j, 2)


def _chan_inner_coeff(j):
    return _sig_at(j, 3) + _sig_at(j, 6)


def _overcubic_coeff(j):
    return 2 * sigma(j) + _sig_at(j, 2)


def _overcubic_prog_coeff(j):
    return 8 * sigma(j) + 3 * _sig_at(j, 2)


# name -> (description, the product-form values 0..n, the transcription).
# Every transcription reads  c R(n) + d sum_{m=1..n} L(m) R(n-m),  where R and
# L are transcription sums given by (coeff, weight); it is listed as
# (c, R, d, L), with L None for a single sum.  The overcubic progression's
# prefactor 6 sits on the first sum only, as displayed.
_FORMULAS = {
    "cubic": (
        "two-color partition count a(n)",
        lambda n: sequence("cubic", n, "series"),
        (1, (_cubic_coeff, -1), 1, None),
    ),
    "cubic-progression": (
        "a(3n+2), indexed by n",
        lambda n: sequence("cubic", 3 * n + 2, "series")[2::3],
        (3, (_cubic_coeff, 4), 3, (_chan_inner_coeff, -3)),
    ),
    "overcubic": (
        "overcubic partition count abar(n)",
        lambda n: sequence("overcubic", n, "series"),
        (1, (_overcubic_coeff, 1), 1, (lambda j: _sig_at(j, 4), -1)),
    ),
    "overcubic-progression": (
        "abar(3n+2), indexed by n",
        lambda n: sequence("overcubic", 3 * n + 2, "series")[2::3],
        (6, (_overcubic_prog_coeff, 1), 1, (lambda j: -6 * _sig_at(j, 3) - 3 * _sig_at(j, 4), 1)),
    ),
    "triangular-theta": (
        "triangular-number indicator psi*(n)",
        lambda n: sequence("psi-star", n, "series"),
        (1, (sigma, 1), 1, (lambda j: _sig_at(j, 2), -2)),
    ),
    "square-theta": (
        "doubled square indicator phi*(n)",
        lambda n: sequence("phi-star", n, "series"),
        (1, (lambda j: sigma(j) + _sig_at(j, 4), 2), 1, (lambda j: _sig_at(j, 2), -5)),
    ),
}


def printed(name: str, n: int) -> list[Fraction]:
    """Values ``0..n`` of the transcription ``name`` of :data:`_FORMULAS`,
    as printed: each of its sums is evaluated once as an integer prefix, the
    double sum is their convolution, and each value is one ``Fraction``."""
    if name not in _FORMULAS:
        raise ValueError(f"unknown transcription {name!r}; known: {', '.join(_FORMULAS)}")
    c, right, d, left = _FORMULAS[name][2]
    if left is None:
        return [c * v for v in transcription_sum(n, *right)]
    scale, (rs, ls) = _integer_prefixes(n, right, left)
    top = factorial(n)
    doubles = [sum(map(mul, ls[1 : k + 1], rs[k - 1 :: -1])) for k in range(n + 1)]
    return [Fraction(c * top * rs[k] + d * doubles[k], top**2 * scale**k) for k in range(n + 1)]


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


def build_report(max_n: int = 8) -> list[FormulaStatus]:
    """Evaluate all transcriptions for ``n = 0..max_n`` and compare."""
    require_natural(max_n, "max_n")
    ns = tuple(range(max_n + 1))
    statuses = []
    for name, (description, reference, _) in _FORMULAS.items():
        ref = [Fraction(v) for v in reference(max_n)]
        got = printed(name, max_n)
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

    payload = [dict(zip(FormulaStatus._fields, st._values())) for st in statuses]
    return json.dumps(payload, indent=2)


def cmd_errata(args) -> int:
    """The ``errata`` command: the report to ``--max``, as Markdown or JSON."""
    report = build_report(args["max"])
    print(render_markdown(report) if args["format"] == "md" else render_json(report))
    return 0
