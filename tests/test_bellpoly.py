import random
from fractions import Fraction
from math import factorial

import pytest

from bellforge import (
    InconsistencyError,
    divisor_power_sum,
    expand_product,
    index_additivity_report,
    iter_partitions,
    log_weight,
    log_weight_table,
    partition_power_sum,
    product_coefficient,
    product_coefficients,
    ratio_coefficient,
    ratio_coefficients,
    reciprocal_coefficient,
    reciprocal_coefficients,
    set_additivity_report,
    sigma,
    spec_from_factors,
)
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
)
from bellforge.supports import Factor, ProductSpec, SupportSet
from bellforge.verify import random_product_spec

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
    assert product_coefficient(0, EULER) == 1
    assert product_coefficient(5, EULER) == 1
    assert product_coefficient(3, INV_EULER) == 3


def test_reciprocal_coefficient_examples():
    assert reciprocal_coefficient(0, EULER) == 1
    assert reciprocal_coefficient(4, EULER) == 5
    two_parts = spec_from_factors(
        (SupportSet.finite([1]), 1, 1), (SupportSet.finite([2]), 1, 1)
    )
    assert reciprocal_coefficient(2, two_parts) == 2


def test_reciprocal_recursion_examples():
    recips = reciprocal_coefficients(EULER, 6)
    assert recips[0] == 1
    assert recips[1] == 1
    assert recips[6] == 11


def test_closed_sum_matches_series_oracle_random_family():
    rng = random.Random(20)
    for _ in range(12):
        spec = random_product_spec(rng)
        expanded = expand_product(spec, 15)
        prods = product_coefficients(spec, 15)
        for n in range(16):
            assert prods[n] == expanded.coefficient(n)


def test_reciprocal_matches_series_oracle_random_family():
    rng = random.Random(21)
    for _ in range(8):
        spec = random_product_spec(rng)
        recip = expand_product(spec, 12).reciprocal()
        for n in range(13):
            assert reciprocal_coefficient(n, spec) == recip.coefficient(n)


def test_reciprocal_convolution_is_unit():
    rng = random.Random(22)
    for _ in range(8):
        spec = random_product_spec(rng)
        prods = product_coefficients(spec, 18)
        recips = reciprocal_coefficients(spec, 18)
        for n in range(19):
            conv = sum(prods[k] * recips[n - k] for k in range(n + 1))
            assert conv == (1 if n == 0 else 0)


def test_negation_involution():
    rng = random.Random(23)
    for _ in range(10):
        spec = random_product_spec(rng)
        for n in range(11):
            assert reciprocal_coefficient(n, spec) == product_coefficient(n, spec.negated())
            assert product_coefficient(n, spec) == reciprocal_coefficient(n, spec.negated())


def test_explicit_and_recursive_reciprocal_agree():
    rng = random.Random(24)
    for _ in range(8):
        spec = random_product_spec(rng)
        weights = log_weight_table(spec, 12)
        for n in range(13):
            explicit = partition_power_sum(n, weights, alternate_sign=True)
            assert reciprocal_coefficient(n, spec) == explicit


def assert_recurrence_matches_dfs(spec, max_n):
    weights = log_weight_table(spec, max_n)
    prods = product_coefficients(spec, max_n)
    recips = reciprocal_coefficients(spec, max_n)
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


def test_recurrence_prefix_extends_from_cached_order():
    spec = spec_from_factors((ALL, F(1, 3), 2), (SupportSet.finite([2, 5]), F(-3, 2), -1))
    short = reciprocal_coefficients(spec, 7)
    assert reciprocal_coefficients(spec, 19)[:8] == short
    assert reciprocal_coefficients(spec, 19) == list(
        expand_product(spec, 19).reciprocal().coeffs
    )


def test_inexact_bell_division_raises():
    # weights of exp(t): 2 c_2 = 1 has no integer solution
    coeffs = [1]
    with pytest.raises(InconsistencyError):
        bell_extend(coeffs, [0, 1, 0], 2)
    assert coeffs == [1, 1]


def test_ratio_coefficient_same_spec_is_unit():
    spec = spec_from_factors((ALL, 1, 1), (SupportSet.multiples_of(3), F(1, 2), -2))
    assert ratio_coefficient(0, spec, spec) == 1
    for n in range(1, 12):
        assert ratio_coefficient(n, spec, spec) == 0


def test_ratio_coefficient_triangular_series():
    numer = spec_from_factors((SupportSet.multiples_of(2), 1, 2))
    denom = EULER
    assert ratio_coefficient(1, numer, denom) == 1
    assert ratio_coefficient(2, numer, denom) == 0


def test_ratio_coefficient_matches_series_quotient():
    rng = random.Random(25)
    for _ in range(6):
        numer = random_product_spec(rng, max_factors=2)
        denom = random_product_spec(rng, max_factors=2)
        quotient = expand_product(numer, 10).mul(expand_product(denom, 10).reciprocal())
        for n in range(11):
            assert ratio_coefficient(n, numer, denom) == quotient.coefficient(n)


def test_ratio_coefficient_none_sides():
    assert ratio_coefficient(0, None, None) == 1
    assert ratio_coefficient(3, None, None) == 0
    assert ratio_coefficient(4, EULER, None) == product_coefficient(4, EULER)
    assert ratio_coefficient(4, None, EULER) == reciprocal_coefficient(4, EULER)


def literal_ratio_weights(numer, denom, n):
    """``log_weight_table(numer) - log_weight_table(denom)``, a missing side
    contributing nothing: the weights of the paper's sum for numer/denom."""
    zero = [F(0)] * (n + 1)
    top = log_weight_table(numer, n) if numer is not None else zero
    bottom = log_weight_table(denom, n) if denom is not None else zero
    return [a - b for a, b in zip(top, bottom)]


def assert_ratio_matches_literal_sum(numer, denom, top):
    prefix = ratio_coefficients(numer, denom, top)
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
    from bellforge import bellpoly

    def no_convolution(*args):
        raise AssertionError("the ratio path convolved two prefixes")

    monkeypatch.setattr(bellpoly, "_convolve", no_convolution)
    numer = spec_from_factors((SupportSet.multiples_of(2), F(2, 3), 2))
    denom = spec_from_factors((ALL, F(-1, 4), 1), (SupportSet.finite([3]), 1, -2))
    values = ratio_coefficients(numer, denom, 15)
    assert values == list(
        expand_product(numer, 15).mul(expand_product(denom, 15).reciprocal()).coeffs
    )
    assert ratio_coefficients(None, None, 4) == [1, 0, 0, 0, 0]
    assert [ratio_coefficient(n, numer, denom) for n in range(16)] == values


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


def test_partition_power_sum_validates_input():
    with pytest.raises(ValueError):
        partition_power_sum(5, [F(0), F(1)])  # missing weights for parts 2..5
