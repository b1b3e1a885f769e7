import gc
import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from bellforge import (
    InconsistencyError,
    TruncatedSeries,
    expand_ratio,
    index_additivity_report,
    iter_partitions,
    ratio_coefficients,
    set_additivity_report,
    sigma,
    spec_from_factors,
    unscale,
)
from bellforge import bellpoly
from bellforge.bellpoly import bell_extend
from bellforge.partfun import (
    CHAN_DENOMINATOR,
    CHAN_NUMERATOR,
    KIM_DENOMINATOR,
    KIM_NUMERATOR,
    OVERCUBIC_DENOMINATOR,
    OVERCUBIC_NUMERATOR,
    PHI_DENOMINATOR,
    PHI_NUMERATOR,
    PSI_DENOMINATOR,
    PSI_NUMERATOR,
    prefixes,
)
from bellforge.supports import Factor, ProductSpec, SupportSet
from bellforge.verify import _reciprocal, random_product_spec
from reference import (
    divisor_power_sum,
    literal_ratio_weights,
    log_weight,
    log_weight_table,
    negated,
    partition_power_sum,
)

F = Fraction
ALL = SupportSet.all_naturals()

EULER = spec_from_factors((ALL, 1, 1))        # prod (1 - t^m)
INV_EULER = spec_from_factors((ALL, 1, -1))   # 1 / prod (1 - t^m)


def brute_partition_power_sum(n, weights, alternate_sign=False):
    """Definitional oracle: literal sum over the partition iterator with
    Fraction arithmetic all the way."""
    total = F(0)
    for vec in iter_partitions(n):
        term = F(1)
        for j, k in enumerate(vec, start=1):
            if k:
                term *= F(weights[j], j) ** k / factorial(k)
        if alternate_sign and sum(vec) % 2:
            term = -term
        total += term
    return total


def test_partition_power_sum_against_bruteforce():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(0, 14)
        weights = [F(0)] + [
            F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)
        ]
        for signed in (False, True):
            fast = partition_power_sum(n, weights, alternate_sign=signed)
            slow = brute_partition_power_sum(n, weights, alternate_sign=signed)
            assert fast == slow


def test_partition_power_sum_handles_zero_weights():
    # only even parts carry weight: partitions with odd parts contribute 0
    weights = [F(0), F(0), F(3), F(0), F(1), F(0), F(2)]
    n = 6
    assert partition_power_sum(n, weights) == brute_partition_power_sum(n, weights)
    assert partition_power_sum(5, [F(0)] * 6) == 0
    assert partition_power_sum(0, [F(0)]) == 1


def test_divisor_power_sum_examples():
    assert divisor_power_sum(6, ALL, F(1)) == sigma(6) == 12
    for z in (F(1), F(-2), F(1, 3)):
        assert divisor_power_sum(5, SupportSet.finite([2]), z) == 0
    assert divisor_power_sum(4, SupportSet.multiples_of(2), F(1)) == 6
    # with argument: sum d * z^(n/d) over divisors d of 4
    z = F(1, 2)
    assert divisor_power_sum(4, ALL, z) == 1 * z**4 + 2 * z**2 + 4 * z


def test_log_weight_examples():
    assert log_weight(2, INV_EULER) == 3
    assert log_weight(2, EULER) == -3
    cubic = spec_from_factors((ALL, 1, -1), (SupportSet.multiples_of(2), 1, -1))
    assert log_weight(2, cubic) == sigma(2) + 2 * sigma(1) == 5


def test_log_weight_table_matches_pointwise():
    spec = spec_from_factors((ALL, F(1, 2), 2), (SupportSet.finite([1, 3]), 2, -1))
    table = log_weight_table(spec, 9)
    assert table[0] == 0
    for j in range(1, 10):
        assert table[j] == log_weight(j, spec)


def test_product_coefficient_examples():
    assert unscale(*ratio_coefficients(EULER, None, 0))[0] == 1
    assert unscale(*ratio_coefficients(EULER, None, 5))[5] == 1
    assert unscale(*ratio_coefficients(INV_EULER, None, 3))[3] == 3


def test_reciprocal_coefficient_examples():
    assert unscale(*ratio_coefficients(None, EULER, 0))[0] == 1
    assert unscale(*ratio_coefficients(None, EULER, 4))[4] == 5
    two_parts = spec_from_factors(
        (SupportSet.finite([1]), 1, 1), (SupportSet.finite([2]), 1, 1)
    )
    assert unscale(*ratio_coefficients(None, two_parts, 2))[2] == 2


def test_reciprocal_recursion_examples():
    recips = unscale(*ratio_coefficients(None, EULER, 6))
    assert recips[0] == 1
    assert recips[1] == 1
    assert recips[6] == 11


def test_closed_sum_matches_series_oracle_random_family():
    rng = random.Random(20)
    for _ in range(12):
        spec = random_product_spec(rng)
        expanded = unscale(*expand_ratio(spec, None, 15))
        prods = unscale(*ratio_coefficients(spec, None, 15))
        for n in range(16):
            assert prods[n] == expanded[n]


def test_reciprocal_matches_series_oracle_random_family():
    rng = random.Random(21)
    for _ in range(8):
        spec = random_product_spec(rng)
        recip = TruncatedSeries(unscale(*expand_ratio(spec, None, 12))).reciprocal()
        for n in range(13):
            assert unscale(*ratio_coefficients(None, spec, n))[n] == recip.coeffs[n]


def test_reciprocal_convolution_is_unit():
    rng = random.Random(22)
    for _ in range(8):
        spec = random_product_spec(rng)
        prods = unscale(*ratio_coefficients(spec, None, 18))
        recips = unscale(*ratio_coefficients(None, spec, 18))
        for n in range(19):
            conv = sum(prods[k] * recips[n - k] for k in range(n + 1))
            assert conv == (1 if n == 0 else 0)


def test_negation_involution():
    rng = random.Random(23)
    for _ in range(10):
        spec = random_product_spec(rng)
        for n in range(11):
            assert ratio_coefficients(None, spec, n) == ratio_coefficients(negated(spec), None, n)
            assert ratio_coefficients(spec, None, n) == ratio_coefficients(None, negated(spec), n)


def test_explicit_and_recursive_reciprocal_agree():
    rng = random.Random(24)
    for _ in range(8):
        spec = random_product_spec(rng)
        weights = log_weight_table(spec, 12)
        for n in range(13):
            explicit = partition_power_sum(n, weights, alternate_sign=True)
            assert unscale(*ratio_coefficients(None, spec, n))[n] == explicit


def assert_recurrence_matches_dfs(spec, max_n):
    weights = log_weight_table(spec, max_n)
    prods = unscale(*ratio_coefficients(spec, None, max_n))
    recips = unscale(*ratio_coefficients(None, spec, max_n))
    for n in range(max_n + 1):
        assert prods[n] == partition_power_sum(n, weights)
        assert recips[n] == partition_power_sum(n, weights, alternate_sign=True)


def test_recurrence_matches_partition_dfs_random_family():
    rng = random.Random(24)
    for _ in range(30):
        assert_recurrence_matches_dfs(random_product_spec(rng), 15)


@pytest.mark.parametrize(
    "spec",
    [
        CHAN_NUMERATOR,
        CHAN_DENOMINATOR,
        KIM_NUMERATOR,
        KIM_DENOMINATOR,
        OVERCUBIC_NUMERATOR,
        OVERCUBIC_DENOMINATOR,
    ],
)
def test_recurrence_matches_partition_dfs_named_specs(spec):
    assert_recurrence_matches_dfs(spec, 30)


def test_a_shorter_prefix_is_a_prefix_of_a_longer_one():
    spec = spec_from_factors((ALL, F(1, 3), 2), (SupportSet.finite([2, 5]), F(-3, 2), -1))
    short = unscale(*ratio_coefficients(None, spec, 7))
    assert unscale(*ratio_coefficients(None, spec, 19))[:8] == short
    assert unscale(*ratio_coefficients(None, spec, 19)) == list(
        TruncatedSeries(unscale(*expand_ratio(spec, None, 19))).reciprocal().coeffs
    )


def test_a_session_keeps_no_closed_sum_memory():
    # the 40 prefixes would hold about 1 MB if the closed sum kept any of them
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for r in range(1, 41):
            ratio_coefficients(None, spec_from_factors((SupportSet.multiples_of(r), F(1, 2), 1)), 300)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, retained


def test_inexact_bell_division_raises():
    # weights of exp(t): 2 c_2 = 1 has no integer solution
    coeffs = [1]
    with pytest.raises(InconsistencyError):
        bell_extend(coeffs, [0, 1, 0], 2)
    assert coeffs == [1, 1]


def fraction_quotient(numer, denom, order):
    """numer / denom by ``TruncatedSeries`` arithmetic on the two products."""
    top, bottom = (TruncatedSeries(unscale(*expand_ratio(s, None, order))) for s in (numer, denom))
    return top.mul(bottom.reciprocal())


def test_ratio_coefficient_same_spec_is_unit():
    spec = spec_from_factors((ALL, 1, 1), (SupportSet.multiples_of(3), F(1, 2), -2))
    assert unscale(*ratio_coefficients(spec, spec, 11)) == [1] + [0] * 11


def test_ratio_coefficient_triangular_series():
    numer = spec_from_factors((SupportSet.multiples_of(2), 1, 2))
    denom = EULER
    assert unscale(*ratio_coefficients(numer, denom, 2))[1:] == [1, 0]


def test_ratio_coefficient_matches_series_quotient():
    rng = random.Random(25)
    for _ in range(6):
        numer = random_product_spec(rng, max_factors=2)
        denom = random_product_spec(rng, max_factors=2)
        quotient = fraction_quotient(numer, denom, 10)
        for n in range(11):
            assert unscale(*ratio_coefficients(numer, denom, n))[n] == quotient.coeffs[n]


def test_ratio_coefficients_match_the_series_route_at_larger_orders():
    # the weight table walks support members; the literal-sum checks stop at n = 20
    rng = random.Random(2021)
    for _ in range(200):
        numer = random_product_spec(rng) if rng.randrange(4) else None
        denom = random_product_spec(rng) if rng.randrange(4) else None
        order = rng.randint(40, 120)
        assert ratio_coefficients(numer, denom, order) == expand_ratio(numer, denom, order)


def test_ratio_coefficient_none_sides():
    assert unscale(*ratio_coefficients(None, None, 3)) == [1, 0, 0, 0]
    assert unscale(*ratio_coefficients(EULER, None, 4)) == [1, -1, -1, 0, 0]
    assert unscale(*ratio_coefficients(None, EULER, 4)) == [1, 1, 2, 3, 5]


def assert_ratio_matches_literal_sum(numer, denom, top):
    prefix = unscale(*ratio_coefficients(numer, denom, top))
    weights = literal_ratio_weights(numer, denom, top)
    for n in range(top + 1):
        assert prefix[n] == partition_power_sum(n, weights), n


@pytest.mark.parametrize(
    "numer, denom",
    [
        (OVERCUBIC_NUMERATOR, OVERCUBIC_DENOMINATOR),
        (CHAN_NUMERATOR, CHAN_DENOMINATOR),
        (KIM_NUMERATOR, KIM_DENOMINATOR),
        (PSI_NUMERATOR, PSI_DENOMINATOR),
        (PHI_NUMERATOR, PHI_DENOMINATOR),
        (None, EULER),
    ],
    ids=["overcubic", "chan", "kim", "psi-star", "phi-star", "inverse-euler"],
)
def test_ratio_matches_literal_partition_sum_named(numer, denom):
    assert_ratio_matches_literal_sum(numer, denom, 20)


def test_ratio_matches_literal_partition_sum_random():
    rng = random.Random(61)
    for i in range(20):
        numer = random_product_spec(rng, max_factors=2)
        denom = random_product_spec(rng, max_factors=2)
        # pairs 1, 2 and 3 of every five drop the numerator, the denominator, both
        side = i % 5
        numer = None if side in (1, 3) else numer
        denom = None if side in (2, 3) else denom
        assert_ratio_matches_literal_sum(numer, denom, 20)


def test_ratio_coefficients_are_one_recurrence(monkeypatch):
    # a ratio is one Bell recurrence on merged weights, with no convolution
    runs = []

    def counted(coeffs, weights, n):
        runs.append(n)
        bell_extend(coeffs, weights, n)

    monkeypatch.setattr(bellpoly, "bell_extend", counted)
    numer = spec_from_factors((SupportSet.multiples_of(2), F(2, 3), 2))
    denom = spec_from_factors((ALL, F(-1, 4), 1), (SupportSet.finite([3]), 1, -2))
    values = unscale(*ratio_coefficients(numer, denom, 15))
    assert runs == [15]
    assert values == list(fraction_quotient(numer, denom, 15).coeffs)
    assert unscale(*ratio_coefficients(None, None, 4)) == [1, 0, 0, 0, 0]
    assert [unscale(*ratio_coefficients(numer, denom, n))[n] for n in range(16)] == values


def test_index_additivity_examples():
    base = [(ALL, F(1))]
    report = index_additivity_report(0, base, [1], [1])
    assert report.ok and report.lhs == report.rhs == "1"
    report = index_additivity_report(7, base, [1], [1])
    assert report.ok
    # exponents cancelling to zero drop the factor entirely
    cancel = index_additivity_report(5, base, [2], [-2])
    assert cancel.ok and cancel.lhs == "0"


def test_set_additivity_example():
    spec_a = spec_from_factors((SupportSet.finite([1]), 1, 1))
    spec_b = spec_from_factors((SupportSet.finite([2]), 1, 1))
    assert set_additivity_report(3, spec_a, spec_b).ok
    assert set_additivity_report(0, spec_a, spec_b).ok


def test_additivity_random_instances():
    rng = random.Random(26)
    for _ in range(20):
        size = rng.randint(1, 3)
        base = [
            (SupportSet.finite(rng.sample(range(1, 7), rng.randint(1, 2))), F(rng.choice([1, -1, 2])))
            for _ in range(size)
        ]
        a_idx = [rng.choice([-2, -1, 1, 2]) for _ in range(size)]
        b_idx = [rng.choice([-2, -1, 1, 2]) for _ in range(size)]
        assert index_additivity_report(rng.randint(0, 12), base, a_idx, b_idx).ok
    for _ in range(20):
        assert set_additivity_report(
            rng.randint(0, 12),
            random_product_spec(rng, max_factors=2),
            random_product_spec(rng, max_factors=2),
        ).ok


def test_additivity_and_reciprocal_hold_on_rational_exponents():
    # each side's coefficients are integers over (L q^2)^m, not over L^m
    families = [(ALL, F(1)), (SupportSet.multiples_of(2), F(-1, 2))]
    for a_idx, b_idx in (([F(1, 2), 1], [F(-1, 3), F(3, 2)]), ([F(3, 2), F(-1, 3)], [F(-1, 2), 2])):
        for n in range(13):
            assert index_additivity_report(n, families, a_idx, b_idx).ok, (a_idx, b_idx, n)
    half = spec_from_factors((ALL, 1, F(1, 2)))
    finite = spec_from_factors((SupportSet.finite([1, 3]), F(2, 3), F(-1, 3)), (ALL, F(1, 2), F(3, 2)))
    for spec_a, spec_b in ((half, half), (half, finite), (finite, half)):
        for n in range(13):
            assert set_additivity_report(n, spec_a, spec_b).ok, (spec_a, spec_b, n)
    requests, rows = _reciprocal("reciprocal", finite, 12)
    assert all(row.ok for row in rows(*prefixes(requests)))


def test_partition_power_sum_validates_input():
    with pytest.raises(ValueError):
        partition_power_sum(5, [F(0), F(1)])  # missing weights for parts 2..5
