"""Status report for circulated closed-formula transcriptions.

The named partition functions have closed formulas in circulation whose
divisor weights drop the factor ``r`` in multiples-of-``r`` divisor sums and
whose sign/prefactor conventions are internally inconsistent.  This module
evaluates those transcriptions as printed, next to the values forced by the
generating products, and reports per formula where they first depart.  Each
printed sum is a weight ``w`` and a table ``{i: c_i}``: the sum over
partitions with weights ``w sum c_i sigma(j / i)`` over the ``i`` dividing
``j``.  As ``-log E(t^i) = sum_{i | j} i sigma(j / i) t^j / j`` for
``E(t) = prod (1 - t^k)``, it is the product ``prod_i E(t^i)^(-w c_i / i)``
(:func:`transcription_spec`), with rational exponents, which the closed sum
reads.  The report's plan lists every prefix it reads, and its rows read only
those prefixes.  The product-form column is the ground truth; nothing here
asserts what the transcriptions "should" give.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import require_natural
from .partfun import SEQUENCES, prefixes
from .supports import ProductSpec, SupportSet, _require_rational, spec_from_factors, unscale


def transcription_spec(*sums) -> ProductSpec:
    """The product of the printed sums ``(table, weight)``: each is
    ``prod_i E(t^i)^(-weight c_i / i)`` over its ``table = {i: c_i}``."""
    return spec_from_factors(*(
        (
            SupportSet.multiples_of(i),
            1,
            Fraction(-_require_rational(w, "weight") * _require_rational(c, "c"), i),
        )
        for table, w in sums
        for i, c in table.items()
    ))


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


def _terms(name: str) -> list[tuple[int, ProductSpec]]:
    """``[(k, spec)]`` whose sum of ``k`` times the spec's coefficients is the
    transcription ``name``: ``c R``, or ``(c - d) R + d (L R)`` for a double
    sum, as ``L(0) = 1``.  A term with ``k = 0`` is left out."""
    c, right, d, left = _FORMULAS[name][3]
    terms = [(c - d, (right,)), (d, (right, left))] if left else [(c, (right,))]
    return [(k, transcription_spec(*sums)) for k, sums in terms if k]


def _plan(max_n: int):
    """``(requests, rows)``: each formula's product form on the series route, then each
    of its terms' specs on the closed sum, and the report rows of their prefixes."""
    n = require_natural(max_n, "max_n")
    terms = {name: _terms(name) for name in _FORMULAS}
    forms = [("series", *SEQUENCES[seq], s * n + s - 1) for _, seq, s, _ in _FORMULAS.values()]
    requests = forms + [("faa", spec, None, n) for name in _FORMULAS for _, spec in terms[name]]
    def rows(*columns) -> list[dict]:
        out, sums = [], (unscale(*column) for column in columns[len(_FORMULAS) :])
        for (name, (description, _, step, _)), form in zip(_FORMULAS.items(), columns):
            ref, weighted = form[0][step - 1 :: step], [(k, next(sums)) for k, _ in terms[name]]
            got = [sum(k * column[m] for k, column in weighted) for m in range(n + 1)]
            first = next((m for m in range(n + 1) if ref[m] != got[m]), None)
            out.append(dict(
                name=name, description=description, checked_n=list(range(n + 1)),
                product_form=[str(v) for v in ref], transcription=[str(v) for v in got],
                agrees=first is None, first_mismatch=first,
            ))
        return out
    return requests, rows


def build_report(max_n: int = 8) -> list[dict]:
    """Evaluate all transcriptions for ``n = 0..max_n`` and compare: one row
    per formula, the rows that :func:`render_json` prints."""
    requests, rows = _plan(max_n)
    return rows(*prefixes(requests))


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


def plan_errata(args):
    """The ``errata`` command: the report to ``--max``, as Markdown or JSON."""
    requests, rows = _plan(args["max"])
    def report(*columns) -> int:
        table = rows(*columns)
        print(render_markdown(table) if args["format"] == "md" else render_json(table))
        return 0
    return f"errata --max {args['max']}", requests, [1] * len(requests), 0, report
