import json
from fractions import Fraction

import pytest

from bellforge import SupportSet, bellpoly, expand_ratio, partfun, sequence, spec_from_factors, unscale
from bellforge.bellpoly import ratio_coefficients
from bellforge.divisors import sigma
from bellforge.errata import (
    _FORMULAS,
    build_report,
    render_json,
    render_markdown,
    transcription_spec,
)
from bellforge.partfun import SEQUENCES, kernel_size, work_estimate
from plans import report_work
from reference import partition_power_sum

def literal_sum(n, coeff, weight=1):
    """The transcription sum written out, one term per partition of ``n``."""
    return partition_power_sum(n, [0] + [Fraction(weight) * coeff(j) for j in range(1, n + 1)])


def printed_sums():
    """Every printed sum of the table, as its ``({i: c_i}, weight)``."""
    rows = [row for *_, row in _FORMULAS.values()]
    return [s for _, right, _, left in rows for s in (right, left) if s is not None]


def errata_specs():
    """The table's eleven product specs: each row's ``R``, and ``L R`` for a double sum."""
    rows = [row for *_, row in _FORMULAS.values()]
    singles = [transcription_spec(right) for _, right, _, _ in rows]
    return singles + [transcription_spec(right, left) for _, right, _, left in rows if left]


def term_specs():
    """The specs that run: ``R`` for ``c R`` and for ``(c - d) R`` unless ``c = d``,
    and ``L R`` for ``d (L R)``."""
    specs = []
    for c, right, d, left in (row for *_, row in _FORMULAS.values()):
        if left is None or c != d:
            specs.append(transcription_spec(right))
        if left is not None:
            specs.append(transcription_spec(right, left))
    return specs


def coefficient(table):
    """``j -> sum c_i sigma(j / i)`` over the ``i`` of ``table = {i: c_i}`` dividing ``j``."""
    return lambda j: sum(c * sigma(j // i) for i, c in table.items() if j % i == 0)


FIELDS = [
    "name",
    "description",
    "checked_n",
    "product_form",
    "transcription",
    "agrees",
    "first_mismatch",
]

EXPECTED_NAMES = [
    "cubic",
    "cubic-progression",
    "overcubic",
    "overcubic-progression",
    "triangular-theta",
    "square-theta",
]


def test_engine_cubic_value_vs_colored_enumeration():
    # ground truth first: a(2) counts 2 (two colors) and 1+1
    assert sequence("cubic", 2)[2] == 3


def test_report_is_produced_with_all_formulas():
    report = build_report(max_n=6)
    assert [st["name"] for st in report] == EXPECTED_NAMES
    for st in report:
        assert len(st["product_form"]) == len(st["transcription"]) == 7
        # self-consistency of the verdict columns
        agrees = st["product_form"] == st["transcription"]
        assert st["agrees"] == agrees
        if st["first_mismatch"] is not None:
            n = st["first_mismatch"]
            assert st["product_form"][n] != st["transcription"][n]
            assert st["product_form"][:n] == st["transcription"][:n]


def test_report_product_form_column_is_ground_truth():
    report = build_report(max_n=5)
    cubic = next(st for st in report if st["name"] == "cubic")
    assert [int(v) for v in cubic["product_form"]] == sequence("cubic", 5)


def test_cubic_transcription_differs_from_engine_at_two():
    # the report must be able to show a divergence for the cubic formula;
    # the exact transcription value is recorded, not asserted
    assert Fraction(build_report(max_n=2)[0]["transcription"][2]) != sequence("cubic", 2)[2]


def test_transcription_sum_weight_folding():
    # weight^(sum k_j) folds into the exponents: the sum over partitions of the
    # sigma-weights, table {1: 1}, is 1/E for weight 1 and E^-w for weight w
    all_naturals = SupportSet.all_naturals()
    for w in (1, 2, -3):
        assert transcription_spec(({1: 1}, w)) == spec_from_factors((all_naturals, 1, -w))
    spec = transcription_spec(({1: 1}, 1))
    assert unscale(*ratio_coefficients(spec, 11)) == sequence("p", 11, "series")


def test_transcription_double_sum_shape():
    # the two-block transcriptions reduce to plain sums at n = 0
    row = next(st for st in build_report(max_n=0) if st["name"] == "triangular-theta")
    assert row["transcription"] == ["1"]


def test_renderings():
    report = build_report(max_n=4)
    md = render_markdown(report)
    for name in EXPECTED_NAMES:
        assert name in md
    assert "product form" in md
    js = render_json(report)
    assert '"first_mismatch"' in js and '"agrees"' in js
    # one object per formula, its fields in order, sequences as arrays
    objects = json.loads(js)
    assert [list(obj) for obj in objects] == [FIELDS] * len(report)
    assert objects == report
    cubic = objects[0]
    assert cubic["name"] == "cubic" and cubic["checked_n"] == [0, 1, 2, 3, 4]
    assert cubic["product_form"] == report[0]["product_form"]
    assert cubic["first_mismatch"] == report[0]["first_mismatch"]


def test_transcription_column_is_the_literal_double_sums():
    # each formula written out with one literal partition sum per term, as printed
    T = literal_sum

    def sig_at(j, i):
        return sigma(j // i) if j % i == 0 else 0

    def cubic(j):
        return sigma(j) + sig_at(j, 2)

    def overcubic(j):
        return 2 * sigma(j) + sig_at(j, 2)

    def overcubic_prog(j):
        return 8 * sigma(j) + 3 * sig_at(j, 2)

    def square(j):
        return sigma(j) + sig_at(j, 4)

    def double(n, head, term):
        return head + sum((term(m) for m in range(1, n + 1)), Fraction(0))

    literal = {
        "cubic": lambda n: T(n, cubic, -1),
        "cubic-progression": lambda n: double(
            n,
            3 * T(n, cubic, 4),
            lambda m: 3 * T(m, lambda j: sig_at(j, 3) + sig_at(j, 6), -3) * T(n - m, cubic, 4),
        ),
        "overcubic": lambda n: double(
            n, T(n, overcubic), lambda m: T(m, lambda j: sig_at(j, 4), -1) * T(n - m, overcubic)
        ),
        "overcubic-progression": lambda n: double(
            n,
            6 * T(n, overcubic_prog),
            lambda m: T(m, lambda j: -6 * sig_at(j, 3) - 3 * sig_at(j, 4)) * T(n - m, overcubic_prog),
        ),
        "triangular-theta": lambda n: double(
            n, T(n, sigma), lambda m: T(m, lambda j: sig_at(j, 2), -2) * T(n - m, sigma)
        ),
        "square-theta": lambda n: double(
            n, T(n, square, 2), lambda m: T(m, lambda j: sig_at(j, 2), -5) * T(n - m, square, 2)
        ),
    }
    report = build_report(max_n=8)
    assert [st["name"] for st in report] == list(literal)
    for st in report:
        assert st["transcription"] == [str(literal[st["name"]](n)) for n in range(9)], st["name"]


def test_each_printed_sum_is_the_literal_partition_sum():
    # each printed sum's product spec, on both routes, against the one-term-per-partition reference
    sums = printed_sums()
    assert len(sums) == 11
    for table, weight in sums:
        want = [literal_sum(m, coefficient(table), weight) for m in range(31)]
        spec = transcription_spec((table, weight))
        pair = ratio_coefficients(spec, 30)
        assert pair == expand_ratio(spec, 30) and unscale(*pair) == want


def test_rational_weights_scale_to_integers():
    # rational weights and table entries become rational exponents, whose lcm
    # denominator both routes fold into their integers
    cases = (
        ({1: 1}, Fraction(-3, 2)),
        ({1: Fraction(1, 3), 3: 2}, 1),
        ({2: Fraction(-2, 5), 5: 1}, Fraction(2, 7)),
    )
    for table, weight in cases:
        want = [literal_sum(m, coefficient(table), weight) for m in range(13)]
        spec = transcription_spec((table, weight))
        pair = ratio_coefficients(spec, 12)
        assert pair == expand_ratio(spec, 12) and unscale(*pair) == want


def test_floats_are_rejected_not_coerced():
    # 0.5 is exact in binary, so a coerced float would pass silently as 1/2
    for sums in (({1: 0.5}, 1), ({1: 1}, 0.5), ({1: True}, 1), ({1: 1}, False), ({2.0: 1}, 1), ({True: 1}, 1)):
        with pytest.raises(TypeError):
            transcription_spec(sums)
    assert transcription_spec(({1: Fraction(1, 2)}, 1)) == transcription_spec(({1: 1}, Fraction(1, 2)))


def test_the_table_reads_the_same_on_both_routes():
    # the eleven specs of the table: each row's R and each double sum's L R
    specs = errata_specs()
    assert len(specs) == 11
    for spec in specs:
        assert ratio_coefficients(spec, 60) == expand_ratio(spec, 60)
    # overcubic-progression's L R: exponents -w c_i / i of both sums
    all_naturals, multiples = SupportSet.all_naturals(), SupportSet.multiples_of
    assert specs[-3] == spec_from_factors(
        (all_naturals, 1, -8),
        (multiples(2), 1, Fraction(-3, 2)),
        (multiples(3), 1, 2),
        (multiples(4), 1, Fraction(3, 4)),
    )


@pytest.mark.parametrize("n", [0, 1, 7, 23, 60])
def test_printed_integers_fit_the_majorants_that_price_them(n, monkeypatch):
    # report_work prices each spec that build_report reads on its closed sum, whose B bounds
    # the bits of every weight and value of the Bell recurrence, (L q^2)^n included
    seen, runs = [], []
    extend, read = bellpoly.bell_extend, partfun.ratio_coefficients

    def recording_extend(coeffs, weights, n):
        extend(coeffs, weights, n)
        seen.append(max(abs(v) for v in weights + coeffs).bit_length())

    def reading(spec, n):
        seen.clear()
        values = read(spec, n)
        runs.append((spec, max(seen), kernel_size("faa", spec, n)[1]))
        return values

    monkeypatch.setattr(bellpoly, "bell_extend", recording_extend)
    monkeypatch.setattr(partfun, "ratio_coefficients", reading)
    build_report(n)
    assert [spec for spec, _, _ in runs] == term_specs()
    assert all(bits <= bound for _, bits, bound in runs)


@pytest.mark.parametrize("n", [0, 1, 60, 396, 397, 555, 556, 557, 934, 935, 936, 10**12])
def test_the_shipped_table_prices_on_its_product_specs(n):
    # six product forms on the series route, then one closed sum per spec that runs:
    # L R for the five double sums, and R for cubic and overcubic-progression (c != d)
    assert len(term_specs()) == 7
    forms = [(seq, step * n + step - 1) for _, seq, step, _ in _FORMULAS.values()]
    assert report_work(n) == (
        sum(work_estimate("series", SEQUENCES[seq], m) for seq, m in forms)
        + sum(work_estimate("faa", spec, n) for spec in term_specs())
    )
    assert (report_work(n) <= 10**9) == (n <= 934)


@pytest.mark.parametrize("n", [8, 60, 396])
def test_the_price_follows_the_table(n, monkeypatch):
    # an added row costs its product form and its sums; a larger sum |c_i| raises the
    # majorant and with it the price of every printed sum, and a double sum costs more
    base = report_work(n)
    prices = []
    for transcription in (
        (1, ({1: 1}, 1), 1, None),
        (1, ({1: 6, 2: 6}, 1), 1, None),
        (1, ({1: 6, 2: 6}, 1), 1, ({3: 1}, -1)),
    ):
        monkeypatch.setitem(_FORMULAS, "extra", ("extra", "cubic", 1, transcription))
        prices.append(report_work(n))
    assert base < prices[0] < prices[1] < prices[2]
