from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellforge import factorize, sigma, sigma_via_factorization
from bellforge.supports import SupportSet
from reference import indicator, restricted_divisor_sum


def is_prime(n: int) -> bool:
    """Reference primality check by trial division."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def divisors(n: int) -> list[int]:
    """Reference divisor list by scanning 1..n."""
    return [d for d in range(1, n + 1) if n % d == 0]


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize("n", range(1, 500))
def test_factorize_invariants(n):
    pairs = factorize(n)
    primes = [p for p, _ in pairs]
    assert primes == sorted(primes) and len(set(primes)) == len(primes)
    assert all(is_prime(p) for p in primes)
    assert all(e >= 1 for _, e in pairs)
    product = 1
    for p, e in pairs:
        product *= p**e
    assert product == n


def test_sigma_examples():
    assert sigma(1) == 1
    # independent oracle: explicit divisor enumeration of 6
    assert sigma(6) == 1 + 2 + 3 + 6
    assert sigma(7) == 8
    with pytest.raises(ValueError):
        sigma(0)


def test_sigma_matches_divisor_list():
    for n in range(1, 200):
        assert sigma(n) == sum(divisors(n))


def test_sigma_via_factorization_examples():
    assert sigma_via_factorization([]) == 1
    assert sigma_via_factorization([(2, 2), (3, 1)]) == 28
    assert sigma(12) == 28
    assert sigma_via_factorization([(5, 1)]) == 6


@pytest.mark.parametrize(
    "pairs, error",
    [
        ([(2.0, 1)], TypeError),
        ([(2, 1.0)], TypeError),
        ([(2, True)], TypeError),
        ([(True, 1)], TypeError),
        ([(2, -1)], ValueError),
        ([(2, 0)], ValueError),
        ([(1, 1)], ValueError),
        ([(-3, 1)], ValueError),
        ([(3, 1), (2, 1)], ValueError),
        ([(3, 1), (3, 1)], ValueError),
    ],
)
def test_sigma_via_factorization_rejects_what_it_cannot_compute(pairs, error):
    # a float, a bool, an exponent below 1, a prime below 2 or primes out of order
    with pytest.raises(error):
        sigma_via_factorization(pairs)


def test_sigma_via_factorization_leaves_primality_unchecked():
    # 4 is not prime, and the binomial sum is computed for it all the same
    assert sigma_via_factorization([(4, 1)]) == 5


def test_sigma_formula_agrees_small_range():
    for n in range(1, 2000):
        assert sigma_via_factorization(factorize(n)) == sigma(n)


def test_restricted_divisor_sum_examples():
    assert restricted_divisor_sum(6, SupportSet.all_naturals()) == 12
    assert restricted_divisor_sum(5, SupportSet.multiples_of(2)) == 0
    assert restricted_divisor_sum(4, SupportSet.multiples_of(2)) == 6
    with pytest.raises(ValueError):
        restricted_divisor_sum(0, SupportSet.all_naturals())


def test_restricted_divisor_sum_multiples_closed_form():
    for n in range(1, 300):
        for r in (1, 2, 3, 4):
            got = restricted_divisor_sum(n, SupportSet.multiples_of(r))
            want = r * sigma(n // r) if n % r == 0 else 0
            assert got == want
    for n in range(1, 1001):
        assert restricted_divisor_sum(n, SupportSet.multiples_of(1)) == sigma(n)


def test_restricted_divisor_sum_finite():
    assert restricted_divisor_sum(12, SupportSet.finite([2, 5, 6])) == 8
    assert restricted_divisor_sum(7, SupportSet.finite([2, 4])) == 0


def test_indicator():
    assert indicator(2, 6) == 1
    assert indicator(4, 6) == 0
    for n in (1, 2, 17, 100):
        assert indicator(1, n) == 1
    with pytest.raises(ValueError):
        indicator(0, 3)


nonzero = st.integers(min_value=-10**6, max_value=10**6).filter(bool)
rationals = st.builds(Fraction, st.integers(-10**6, 10**6), nonzero)


@given(rationals, rationals)
def test_fraction_add_sub_roundtrip_is_exact(x, y):
    assert (x + y) - y == x


@given(rationals, rationals)
def test_fraction_results_stay_reduced(x, y):
    for value in (x + y, x - y, x * y):
        assert value.denominator > 0
        assert gcd(value.numerator, value.denominator) == 1
    if y != 0:
        q = x / y
        assert q.denominator > 0 and gcd(q.numerator, q.denominator) == 1
