import random
import sys
import threading
import time
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
from bellforge import bellpoly, partfun
from bellforge.bellpoly import clear_cache, reciprocal_coefficients
from bellforge.partfun import PARTITION_PRODUCT, _as_count, ratio_series
from bellforge.series import expand_ratio
from bellforge.supports import SupportSet, spec_from_factors


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


def test_sequence_is_the_per_n_functions_as_one_prefix():
    parts = [2, 3, 7]
    cases = (
        ("p", {}, partition_function),
        ("w", {"parts": parts}, lambda n, **kw: restricted_partition_count(n, parts, **kw)),
        ("cubic", {}, cubic_partition_count),
        ("overcubic", {}, overcubic_partition_count),
        ("psi-star", {}, ramanujan_psi_coefficient),
        ("phi-star", {}, ramanujan_phi_coefficient),
    )
    for name, extra, fn in cases:
        for method in ("faa", "series"):
            want = [fn(n, method=method) for n in range(41)]
            assert partfun.sequence(name, 40, method, **extra) == want
        assert partfun.sequence(name, 40, **extra) == [fn(n) for n in range(41)]
    with pytest.raises(ValueError):
        partfun.sequence("p", 3, "fast")
    with pytest.raises(KeyError):
        partfun.sequence("q", 3)


def _signal_on_extend(monkeypatch, hook):
    """Patch ``bellpoly.bell_extend`` so that ``hook(n, run)`` wraps each
    call, ``run()`` being the real extension."""
    real = bellpoly.bell_extend

    def wrapped(coeffs, weights, n):
        hook(n, lambda: real(coeffs, weights, n))

    monkeypatch.setattr(bellpoly, "bell_extend", wrapped)


def test_cached_lookup_does_not_wait_on_unrelated_work(monkeypatch):
    clear_cache()
    unrelated = spec_from_factors((SupportSet.multiples_of(2), Fraction(1, 3), 2))
    want = reciprocal_coefficients(unrelated, 30)
    entered = threading.Event()

    def hook(n, run):
        entered.set()
        run()

    _signal_on_extend(monkeypatch, hook)
    worker = threading.Thread(target=reciprocal_coefficients, args=(PARTITION_PRODUCT, 4000))
    worker.start()
    try:
        assert entered.wait(10)
        start = time.perf_counter()
        got = reciprocal_coefficients(unrelated, 30)
        waited = time.perf_counter() - start
        still_computing = worker.is_alive()
    finally:
        worker.join(60)
    assert not worker.is_alive()
    assert got == want
    assert waited < 0.1
    assert still_computing


def test_racing_requests_for_one_key_keep_the_longer_prefix(monkeypatch):
    clear_cache()
    shorter_entered = threading.Event()
    longer_done = threading.Event()
    longer_finished_first = []

    def hook(n, run):
        if n == 2000:
            shorter_entered.set()
        run()
        if n == 2000:
            # publish the shorter prefix only after the longer one is out
            longer_finished_first.append(longer_done.wait(10))

    _signal_on_extend(monkeypatch, hook)
    results = {}

    def ask(n):
        results[n] = reciprocal_coefficients(PARTITION_PRODUCT, n)
        if n == 3000:
            longer_done.set()

    shorter = threading.Thread(target=ask, args=(2000,))
    shorter.start()
    assert shorter_entered.wait(10)
    longer = threading.Thread(target=ask, args=(3000,))
    longer.start()
    longer.join(60)
    shorter.join(60)
    assert not longer.is_alive() and not shorter.is_alive()
    assert longer_finished_first == [True]
    want = [count_partitions(n) for n in range(3001)]
    assert results[3000] == want
    assert results[2000] == want[:2001]

    def no_extension(n, run):
        raise AssertionError(f"the cache recomputed up to {n}")

    _signal_on_extend(monkeypatch, no_extension)
    assert reciprocal_coefficients(PARTITION_PRODUCT, 3000) == want


def test_clear_cache_empties_both_routes(monkeypatch):
    spec = spec_from_factors((SupportSet.finite([1, 4]), Fraction(2, 5), -2))
    before = ratio_series(None, spec, 12)
    reciprocal_coefficients(spec, 12)
    clear_cache()
    after = ratio_series(None, spec, 12)
    assert after is not before and after == before
    extended = []

    def hook(n, run):
        extended.append(n)
        run()

    _signal_on_extend(monkeypatch, hook)
    assert reciprocal_coefficients(spec, 12) == list(after.coeffs)
    assert extended == [12]


def test_cache_under_thread_stress(monkeypatch):
    # more threads than cores, switching often, over both routes and three keys
    clear_cache()
    specs = [spec_from_factors((SupportSet.multiples_of(r), Fraction(1, r + 1), 1)) for r in (1, 2, 3)]
    want = {spec: list(expand_ratio(None, spec, 120).coeffs) for spec in specs}
    requests = []
    errors = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(40):
            spec, n, route = rng.choice(specs), rng.randint(0, 120), rng.choice(("faa", "series"))
            if route == "faa":
                got = reciprocal_coefficients(spec, n)
            else:
                got = list(ratio_series(None, spec, n).coeffs[: n + 1])
            requests.append((route, spec, n))
            if got != want[spec][: n + 1]:
                errors.append((route, spec, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    asked = {}
    for route, spec, n in requests:
        asked[route, spec] = max(asked.get((route, spec), 0), n)

    # a shorter entry published over a longer one would need recomputing here
    def no_work(*args):
        raise AssertionError("the cache lost a longer prefix")

    monkeypatch.setattr(bellpoly, "bell_extend", no_work)
    monkeypatch.setattr(partfun, "expand_ratio", no_work)
    for (route, spec), n in asked.items():
        if route == "faa":
            assert reciprocal_coefficients(spec, n) == want[spec][: n + 1]
        else:
            assert ratio_series(None, spec, n).coeffs[: n + 1] == tuple(want[spec][: n + 1])
