import json
from fractions import Fraction

import pytest

from bellforge import errata, sequence
from bellforge.bellpoly import kernel_size
from bellforge.errata import (
    _E11,
    _E22,
    _FORMULAS,
    build_report,
    printed,
    render_json,
    render_markdown,
    transcription_sum,
)
from reference import partition_power_sum

def literal_sum(n, coeff, weight=1):
    """The transcription sum written out, one term per partition of ``n``."""
    return partition_power_sum(n, [0] + [Fraction(weight) * coeff(j) for j in range(1, n + 1)])


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
    from bellforge.divisors import sigma

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
    from bellforge.divisors import sigma

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
    sums = [s for *_, (_, right, _, left) in _FORMULAS.values() for s in (right, left) if s is not None]
    assert len(sums) == 11
    for coeff, weight in sums:
        want = [literal_sum(m, coeff, weight) for m in range(31)]
        assert transcription_sum(30, coeff, weight) == want


def test_rational_weights_scale_to_integers():
    # the denominators of weight * coeff(j) are cleared by their lcm before the recurrence
    from bellforge.divisors import sigma

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
    from bellforge.divisors import sigma

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
    # report_work prices each printed sum on 1/E^11 with n log2 n more bits for
    # the scale n!, and each double sum on 1/E^22 with twice that for n!^2
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
    single = kernel_size("faa", None, _E11, n)[1] + scale_bits
    double = kernel_size("faa", None, _E22, n)[1] + 2 * scale_bits
    assert max(abs(v).bit_length() for prefix in prefixes for v in prefix) <= single
    assert max(abs(v).bit_length() for v in values) <= double
