import json
from fractions import Fraction

import pytest

from bellforge import SupportSet, errata, sequence, spec_from_factors
from bellforge.bellpoly import kernel_size, work_estimate
from bellforge.divisors import sigma
from bellforge.errata import (
    _FORMULAS,
    build_report,
    printed,
    render_json,
    render_markdown,
    report_work,
    transcription_sum,
)
from bellforge.partfun import SEQUENCES
from reference import partition_power_sum

def literal_sum(n, coeff, weight=1):
    """The transcription sum written out, one term per partition of ``n``."""
    return partition_power_sum(n, [0] + [Fraction(weight) * coeff(j) for j in range(1, n + 1)])


def printed_sums():
    """Every printed sum of the table, as its ``({i: c_i}, weight)``."""
    rows = [row for *_, row in _FORMULAS.values()]
    return [s for _, right, _, left in rows for s in (right, left) if s is not None]


def coefficient(table):
    """``j -> sum c_i sigma(j / i)`` over the ``i`` of ``table = {i: c_i}`` dividing ``j``."""
    return lambda j: sum(c * sigma(j // i) for i, c in table.items() if j % i == 0)


def majorant_exponent():
    """The largest ``|weight| * sum |c_i|`` over the printed sums of the table."""
    return max(abs(w) * sum(abs(c) for c in table.values()) for table, w in printed_sums())


def euler_power(a):
    """``E^a`` for ``E = prod (1 - t^k)``; the weight of ``1/E^a`` is ``a sigma(j)``."""
    return spec_from_factors((SupportSet.all_naturals(), 1, a))


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
    assert printed("cubic", 2)[2] != sequence("cubic", 2)[2]


def test_transcription_sum_weight_folding():
    # weight^(sum k_j) folds into the coefficients: with all-one coefficients
    # and weight 1 the sum over partitions of sigma-weights gives p(n)
    assert transcription_sum(11, sigma) == sequence("p", 11, "series")


def test_transcription_double_sum_shape():
    # the two-block transcriptions reduce to plain sums at n = 0
    assert printed("triangular-theta", 0) == [1]


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
    for name, value in literal.items():
        assert printed(name, 8) == [value(n) for n in range(9)], name


def test_each_printed_sum_is_the_literal_partition_sum():
    # the Bell recurrence in errata against the one-term-per-partition reference
    sums = printed_sums()
    assert len(sums) == 11
    for table, weight in sums:
        coeff = coefficient(table)
        want = [literal_sum(m, coeff, weight) for m in range(31)]
        assert transcription_sum(30, coeff, weight) == want


def test_rational_weights_scale_to_integers():
    # the denominators of weight * coeff(j) are cleared by their lcm before the recurrence
    cases = (
        (sigma, Fraction(-3, 2)),
        (lambda j: Fraction(j, 3), 1),
        (lambda j: Fraction(1, j), Fraction(2, 5)),
    )
    for coeff, weight in cases:
        want = [literal_sum(m, coeff, weight) for m in range(13)]
        assert transcription_sum(12, coeff, weight) == want


def test_floats_are_rejected_not_coerced():
    # 0.5 is exact in binary, so a coerced float would pass silently as 1/2
    for call in (
        lambda: transcription_sum(3, lambda j: 0.5),
        lambda: transcription_sum(3, sigma, weight=0.5),
        lambda: transcription_sum(0, sigma, weight=0.5),
        lambda: transcription_sum(3, lambda j: True),
        lambda: transcription_sum(3, sigma, False),
    ):
        with pytest.raises(TypeError):
            call()
    assert transcription_sum(3, lambda j: Fraction(1, 2)) == transcription_sum(3, lambda j: 1, Fraction(1, 2))


def test_unknown_transcription_names_the_known_ones():
    with pytest.raises(ValueError, match="unknown transcription 'nope'") as caught:
        printed("nope", 3)
    for name in EXPECTED_NAMES:
        assert name in str(caught.value)


@pytest.mark.parametrize("n", [0, 1, 7, 23, 60])
def test_printed_integers_fit_the_majorants_that_price_them(n, monkeypatch):
    # report_work prices each printed sum on 1/E^a, a the table's largest
    # |weight| * sum |c_i|, with n log2 n more bits for the scale n!, and each
    # double sum on 1/E^(2a) with twice that for n!^2
    prefixes, values = [], []
    real_prefixes, real_unscale = errata._integer_prefixes, errata.unscale

    def integer_prefixes(n, *sums):
        scale, found = real_prefixes(n, *sums)
        prefixes.extend(found)
        return scale, found

    def unscale(ints, scale, top=1):
        values.extend(ints)
        return real_unscale(ints, scale, top)

    monkeypatch.setattr(errata, "_integer_prefixes", integer_prefixes)
    monkeypatch.setattr(errata, "unscale", unscale)
    for name in _FORMULAS:
        printed(name, n)
    assert len(prefixes) == 11 and len(values) == 6 * (n + 1)
    scale_bits = n * n.bit_length()
    a = majorant_exponent()
    single = kernel_size("faa", None, euler_power(a), n)[1] + scale_bits
    double = kernel_size("faa", None, euler_power(2 * a), n)[1] + 2 * scale_bits
    assert max(abs(v).bit_length() for prefix in prefixes for v in prefix) <= single
    assert max(abs(v).bit_length() for v in values) <= double


@pytest.mark.parametrize("n", [0, 1, 60, 396, 397, 10**12])
def test_the_shipped_table_prices_on_1_over_e_to_the_11(n):
    # overcubic-progression's first sum, 8 sigma(j) + 3 sigma(j/2), sets the majorant:
    # six product forms, then eleven printed sums on 1/E^11 and five convolutions on 1/E^22
    assert majorant_exponent() == 11
    forms = [(seq, step * n + step - 1) for _, seq, step, _ in _FORMULAS.values()]
    bits = n * n.bit_length()
    assert report_work(n) == (
        sum(work_estimate("series", *SEQUENCES[seq], m) for seq, m in forms)
        + 11 * work_estimate("faa", None, euler_power(11), n, extra_bits=bits)
        + 5 * work_estimate("faa", None, euler_power(22), n, extra_bits=2 * bits)
    )


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
