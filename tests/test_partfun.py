import random
from fractions import Fraction

import pytest

import bellforge
from bellforge import (
    FourFactorSpec,
    InconsistencyError,
    chan_product_coefficient,
    count_partitions,
    count_restricted_bruteforce,
    cubic_partition_count,
    four_factor_coefficient,
    kim_product_coefficient,
    overcubic_partition_count,
    partition_function,
    ramanujan_phi_coefficient,
    ramanujan_psi_coefficient,
    restricted_partition_count,
    restricted_recursion_report,
)
from bellforge import partfun
from bellforge.partfun import _as_count


def cubic_by_convolution(n):
    """Independent oracle: partitions times even-part partitions, where the
    even-part count of 2m is the plain partition count of m."""
    return sum(count_partitions(m) * count_partitions(n - 2 * m) for m in range(n // 2 + 1))


def overcubic_by_convolution(n):
    """Independent oracle: cubic counts convolved with partitions into parts
    not divisible by 4."""
    parts = [m for m in range(1, n + 1) if m % 4 != 0]
    total = 0
    for k in range(n + 1):
        rest = n - k
        extra = 1 if rest == 0 else count_restricted_bruteforce(rest, parts)
        total += cubic_by_convolution(k) * extra
    return total


def test_partition_function_examples():
    assert partition_function(0) == 1
    assert partition_function(4) == 5
    assert partition_function(10) == 42


def test_partition_function_routes_agree():
    for n in range(31):
        faa = partition_function(n, method="faa")
        ser = partition_function(n, method="series")
        assert faa == ser == count_partitions(n)


def test_restricted_partition_examples():
    assert restricted_partition_count(5, [1, 2]) == 3
    for n in range(10):
        assert restricted_partition_count(n, [1]) == 1
    assert restricted_partition_count(3, [2]) == 0


def test_restricted_partition_rejects_bool_and_float_parts():
    for parts in ([True, 2], [1.5, 2]):
        for method in ("faa", "series"):
            with pytest.raises(TypeError):
                restricted_partition_count(3, parts, method=method)


def test_restricted_partition_matches_bruteforce():
    rng = random.Random(31)
    for _ in range(12):
        parts = rng.sample(range(1, 9), rng.randint(1, 4))
        for n in range(0, 25, 3):
            want = count_restricted_bruteforce(n, parts)
            assert restricted_partition_count(n, parts, method="faa") == want
            assert restricted_partition_count(n, parts, method="series") == want


def test_cubic_examples():
    assert cubic_partition_count(3) == 4
    assert cubic_partition_count(0) == 1
    # enumeration: 2 in either of two colors, or 1+1
    assert cubic_partition_count(2) == 3


def test_cubic_matches_convolution_oracle():
    for n in range(26):
        want = cubic_by_convolution(n)
        assert cubic_partition_count(n, method="faa") == want
        assert cubic_partition_count(n, method="series") == want


def test_chan_identity_small():
    assert chan_product_coefficient(0) == cubic_partition_count(2) == 3
    assert chan_product_coefficient(1) == cubic_partition_count(5)
    for n in range(13):
        value = chan_product_coefficient(n)
        assert value == cubic_partition_count(3 * n + 2)
        assert value % 3 == 0


def test_overcubic_small_values():
    # forced by the generating quotient: 1/(1-t)^2 alone contributes 2t
    assert overcubic_partition_count(0) == 1
    assert overcubic_partition_count(1) == 2
    assert overcubic_partition_count(2) == overcubic_by_convolution(2) == 6


def test_overcubic_matches_convolution_oracle():
    for n in range(19):
        want = overcubic_by_convolution(n)
        assert overcubic_partition_count(n, method="faa") == want
        assert overcubic_partition_count(n, method="series") == want


def test_kim_identity_small():
    assert kim_product_coefficient(0) == overcubic_partition_count(2) == 6
    assert kim_product_coefficient(1) == overcubic_partition_count(5)
    for n in range(11):
        value = kim_product_coefficient(n)
        assert value == overcubic_partition_count(3 * n + 2)
        assert value % 6 == 0


def test_theta_psi_examples():
    assert ramanujan_psi_coefficient(0) == 1
    assert ramanujan_psi_coefficient(3) == 1
    assert ramanujan_psi_coefficient(4) == 0


def test_theta_psi_is_triangular_indicator():
    triangulars = {k * (k + 1) // 2 for k in range(20)}
    for n in range(61):
        assert ramanujan_psi_coefficient(n) == (1 if n in triangulars else 0)


def test_theta_phi_examples():
    assert ramanujan_phi_coefficient(0) == 1
    assert ramanujan_phi_coefficient(4) == 2
    assert ramanujan_phi_coefficient(3) == 0


def test_theta_phi_is_doubled_square_indicator():
    squares = {k * k for k in range(1, 12)}
    for n in range(61):
        want = 1 if n == 0 else (2 if n in squares else 0)
        assert ramanujan_phi_coefficient(n) == want


def test_theta_routes_agree():
    for n in range(31):
        assert ramanujan_psi_coefficient(n) == ramanujan_psi_coefficient(n, method="faa")
        assert ramanujan_phi_coefficient(n) == ramanujan_phi_coefficient(n, method="faa")


def test_named_functions_integral_and_nonnegative():
    parts = [2, 3, 7]
    for n in range(41):
        for value in (
            partition_function(n, method="series"),
            restricted_partition_count(n, parts, method="series"),
            cubic_partition_count(n, method="series"),
            overcubic_partition_count(n, method="series"),
            ramanujan_psi_coefficient(n),
            ramanujan_phi_coefficient(n),
        ):
            assert isinstance(value, int) and value >= 0


def test_four_factor_psi_reproduction():
    # two multiples-of-2 numerator slots fold to the squared factor
    spec = FourFactorSpec(r1=2, a1=1, r2=2, a2=1, s1=1, b1=1)
    assert four_factor_coefficient(0, spec) == 1
    assert four_factor_coefficient(1, spec) == 1
    folded = FourFactorSpec(r1=2, a1=2, s1=1, b1=1)
    for n in range(21):
        value = four_factor_coefficient(n, spec)
        assert value == ramanujan_psi_coefficient(n)
        assert value == four_factor_coefficient(n, folded)


def test_four_factor_cubic_reproduction():
    spec = FourFactorSpec(s1=1, b1=1, s2=2, b2=1)
    assert four_factor_coefficient(3, spec) == 4
    assert four_factor_coefficient(0, spec) == 1
    for n in range(16):
        assert four_factor_coefficient(n, spec) == cubic_partition_count(n)


def test_four_factor_can_be_rational():
    # a pure numerator never has poles, so try an unbalanced quotient
    spec = FourFactorSpec(r1=1, a1=1, s1=2, b1=3)
    values = [four_factor_coefficient(n, spec) for n in range(10)]
    assert all(isinstance(v, Fraction) for v in values)
    assert values[0] == 1


def test_four_factor_validation():
    with pytest.raises(ValueError):
        FourFactorSpec(r1=0, a1=1)
    with pytest.raises(ValueError):
        FourFactorSpec(s1=2, b1=0)


def test_restricted_recursion_examples():
    report = restricted_recursion_report(5, [1, 2])
    assert report.ok and report.lhs == "3-2=1" and report.rhs == "1"
    assert restricted_recursion_report(0, [3, 5]).ok


def test_restricted_recursion_random():
    rng = random.Random(33)
    for _ in range(25):
        parts = rng.sample(range(1, 7), rng.randint(2, 4))
        assert restricted_recursion_report(rng.randint(0, 30), parts).ok


def test_restricted_recursion_needs_two_parts():
    with pytest.raises(ValueError):
        restricted_recursion_report(5, [2])


def coin_counts(parts, n):
    """Independent oracle: partitions of 0..n into the given parts, by the
    coin-change table."""
    table = [1] + [0] * n
    for d in parts:
        for m in range(d, n + 1):
            table[m] += table[m - d]
    return table


def convolve(u, v):
    return [sum(u[k] * v[m - k] for k in range(m + 1)) for m in range(len(u))]


def test_auto_is_the_closed_sum_at_every_n(monkeypatch):
    top = 200
    parts = [1, 2, 5, 10, 25]
    p = [count_partitions(m) for m in range(top + 1)]
    cubic = convolve(p, coin_counts(range(2, top + 1, 2), top))
    overcubic = convolve(cubic, coin_counts([m for m in range(1, top + 1) if m % 4], top))
    cases = (
        (partition_function, p),
        (cubic_partition_count, cubic),
        (overcubic_partition_count, overcubic),
        (lambda n, **kw: restricted_partition_count(n, parts, **kw), coin_counts(parts, top)),
    )

    def no_series(*args):
        raise AssertionError("auto took the series route")

    assert not hasattr(bellforge, "faa_cap")
    # the removed size switch's environment variable changes nothing
    for cap in ("6", "not-a-number"):
        monkeypatch.setenv("BELLFORGE_FAA_CAP", cap)
        with monkeypatch.context() as patched:
            patched.setattr(partfun, "ratio_series", no_series)
            for fn, want in cases:
                assert fn(100, method="auto") == want[100]
                assert [fn(n) for n in range(top + 1)] == want
    with pytest.raises(ValueError):
        partition_function(1, method="fast")


def test_count_guard_rejects_non_integral():
    with pytest.raises(InconsistencyError):
        _as_count(Fraction(3, 2), "test")
    with pytest.raises(InconsistencyError):
        _as_count(Fraction(-1), "test")
    assert _as_count(Fraction(7), "test") == 7
