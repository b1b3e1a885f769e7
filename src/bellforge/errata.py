"""Status report for circulated closed-formula transcriptions.

The named partition functions have closed formulas in circulation whose
divisor weights drop the factor ``r`` in multiples-of-``r`` divisor sums and
whose sign/prefactor conventions are internally inconsistent.  This module
evaluates those transcriptions as printed, next to the values forced by the
generating products, and reports per formula where they first depart.  Each
printed sum's coefficient is held as a table ``{i: c_i}``, meaning
``sum c_i sigma(j / i)`` over the ``i`` that divide ``j``; the sum over
partitions is evaluated exactly, on integers, by the Bell recurrence that it
satisfies, and each double sum as a convolution, once :func:`report_work` has
priced them from the same tables.  The product-form column is the ground
truth; nothing here asserts what the transcriptions "should" give.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul

from .arith import require_natural
from .bellpoly import bell_extend, work_estimate
from .divisors import sigma
from .partfun import SEQUENCES, sequence
from .supports import SupportSet, _require_rational, spec_from_factors, unscale


def transcription_sum(n: int, coeff, weight=1) -> list[Fraction]:
    """Values ``0..n`` of ``sum over partitions of m of
    weight^(k_1+...+k_m) * prod (1/k_j!) (coeff(j)/j)^{k_j}``, from
    :func:`_integer_prefixes`.

    The per-term weight folds into the coefficients, since
    ``w^(sum k_j) * prod c_j^{k_j} == prod (w c_j)^{k_j}``.
    """
    scale, (sums,) = _integer_prefixes(n, (coeff, weight))
    return unscale(sums, scale, factorial(n))


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


def _divisor_sum(table: dict):
    """``j -> sum c_i sigma(j / i)`` over the ``i`` of ``table = {i: c_i}`` that divide ``j``."""
    return lambda j: sum(c * sigma(j // i) for i, c in table.items() if j % i == 0)


# name -> (description, product form, step, transcription).  The product form
# is a named sequence on the series route, read at step*n + step - 1: at n for
# step 1, at 3n+2 for step 3.
# Every transcription reads  c R(n) + d sum_{m=1..n} L(m) R(n-m),  listed as
# (c, R, d, L) with L None for a single sum.  R and L are transcription sums
# (table, weight): table {i: c_i} is the coefficient sum c_i sigma(j / i) over
# the i that divide j, without the factor i that the product forms force.  The
# overcubic progression's prefactor 6 sits on the first sum only, as displayed.
_FORMULAS = {
    "cubic": (
        "two-color partition count a(n)", "cubic", 1, (1, ({1: 1, 2: 1}, -1), 1, None)
    ),
    "cubic-progression": (
        "a(3n+2), indexed by n", "cubic", 3, (3, ({1: 1, 2: 1}, 4), 3, ({3: 1, 6: 1}, -3))
    ),
    "overcubic": (
        "overcubic partition count abar(n)", "overcubic", 1, (1, ({1: 2, 2: 1}, 1), 1, ({4: 1}, -1))
    ),
    "overcubic-progression": (
        "abar(3n+2), indexed by n", "overcubic", 3, (6, ({1: 8, 2: 3}, 1), 1, ({3: -6, 4: -3}, 1))
    ),
    "triangular-theta": (
        "triangular-number indicator psi*(n)", "psi-star", 1, (1, ({1: 1}, 1), 1, ({2: 1}, -2))
    ),
    "square-theta": (
        "doubled square indicator phi*(n)", "phi-star", 1, (1, ({1: 1, 4: 1}, 2), 1, ({2: 1}, -5))
    ),
}


def printed(name: str, n: int) -> list[Fraction]:
    """Values ``0..n`` of the transcription ``name`` of :data:`_FORMULAS`,
    as printed: each of its sums once as an integer prefix, the double sum (zero
    for a single sum) as their convolution, and each value as one ``Fraction``."""
    if name not in _FORMULAS:
        raise ValueError(f"unknown transcription {name!r}; known: {', '.join(_FORMULAS)}")
    c, right, d, left = _FORMULAS[name][3]
    sums = [(_divisor_sum(table), weight) for table, weight in filter(None, (right, left))]
    scale, (rs, *ls) = _integer_prefixes(n, *sums)
    ls, top = (ls[0] if ls else []), factorial(n)
    doubles = [sum(map(mul, ls[1 : k + 1], rs[k - 1 :: -1])) for k in range(n + 1)]
    return unscale([c * top * r + d * dk for r, dk in zip(rs, doubles)], scale, top**2)


def report_work(max_n: int) -> int:
    """Work units of ``build_report(max_n)``, in O(1): its product-form
    prefixes on the series route, and its printed sums and convolutions as
    closed sums on a majorant read off the tables of :data:`_FORMULAS`.  As
    ``sigma(j / i) <= sigma(j)``, each ``|weight * coeff(j)|`` is at most
    ``a sigma(j)``, the weight of ``1/E^a`` for ``E = prod (1 - t^k)``, with
    ``a`` the largest ``|weight| * sum |c_i|``; so each ``A_m`` is at most the
    ``t^m`` coefficient of ``1/E^a`` and a convolution of two is at most that of
    ``1/E^(2a)``.  A recurrence also carries the scale ``N!`` and a double sum
    ``N!^2``, which ``extra_bits`` pays for at ``N log2 N`` bits per ``N!``."""
    n = require_natural(max_n, "max_n")
    shapes = [(seq, step * n + step - 1) for _, seq, step, _ in _FORMULAS.values()]
    work = sum(work_estimate("series", *SEQUENCES[seq], m) for seq, m in shapes)
    rows = [row for *_, row in _FORMULAS.values()]
    sums = [s for _, right, _, left in rows for s in (right, left) if s]
    a = max(abs(weight) * sum(map(abs, table.values())) for table, weight in sums)
    doubles = sum(left is not None for *_, left in rows)
    for count, k in ((len(sums), 1), (doubles, 2)):
        majorant = spec_from_factors((SupportSet.all_naturals(), 1, k * a))
        work += count * work_estimate("faa", None, majorant, n, extra_bits=k * n * n.bit_length())
    return work


def build_report(max_n: int = 8) -> list[dict]:
    """Evaluate all transcriptions for ``n = 0..max_n`` and compare: one row
    per formula, the rows that :func:`render_json` prints."""
    require_natural(max_n, "max_n")
    ns = list(range(max_n + 1))
    report = []
    for name, (description, seq, step, _) in _FORMULAS.items():
        ref = sequence(seq, step * max_n + step - 1, "series")[step - 1 :: step]
        got = printed(name, max_n)
        first = next((n for n in ns if ref[n] != got[n]), None)
        report.append(dict(
            name=name, description=description, checked_n=ns,
            product_form=[str(v) for v in ref], transcription=[str(v) for v in got],
            agrees=first is None, first_mismatch=first,
        ))
    return report


def render_markdown(report) -> str:
    lines = [
        "# Closed-formula transcription status",
        "",
        "Product-form values are ground truth (they are cross-checked against",
        "independent series expansions in the test suite).  Each table shows a",
        "transcribed closed formula evaluated literally.",
        "",
    ]
    for st in report:
        first = st["first_mismatch"]
        verdict = "agrees on the checked range" if st["agrees"] else f"first differs at n = {first}"
        lines += [f"## {st['name']}: {st['description']}", "", f"Status: **{verdict}**", ""]
        lines += ["| n | product form | transcription |", "|---|---|---|"]
        for n in st["checked_n"]:
            lines.append(f"| {n} | {st['product_form'][n]} | {st['transcription'][n]} |")
        lines.append("")
    return "\n".join(lines)


def render_json(report) -> str:
    import json

    return json.dumps(report, indent=2)


def cmd_errata(args) -> int:
    """The ``errata`` command: the report to ``--max``, as Markdown or JSON;
    exit 2 before any work when :func:`report_work` is over the budget."""
    from .cli import check_work

    check_work(f"errata --max {args['max']}", report_work(args["max"]))
    report = build_report(args["max"])
    print(render_markdown(report) if args["format"] == "md" else render_json(report))
    return 0
