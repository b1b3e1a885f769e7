import random
import sys
import threading
import time
from fractions import Fraction
from math import isqrt

import pytest

import bellforge
from bellforge import InconsistencyError, restricted_recursion_report
from bellforge import bellpoly, series
from bellforge.bellpoly import ratio_coefficients
from bellforge.cli import main
from bellforge.partfun import (
    CHAN_DENOMINATOR,
    CHAN_NUMERATOR,
    KIM_DENOMINATOR,
    KIM_NUMERATOR,
    PARTITION_PRODUCT,
    SEQUENCES,
    as_counts,
    route_prefix,
    sequence,
)
from bellforge.series import expand_ratio
from bellforge.supports import SupportSet, scaled_factors, spec_from_factors, unscale
from bellforge.verify import random_product_spec
from reference import count_restricted_bruteforce, literal_ratio_weights, partition_power_sum


def cubic_by_convolution(n):
    """Independent oracle: partitions times even-part partitions, where the
    even-part count of 2m is the plain partition count of m."""
    p = sequence("p", n, "series")
    return sum(p[m] * p[n - 2 * m] for m in range(n // 2 + 1))


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
    p = sequence("p", 10)
    assert (p[0], p[4], p[10]) == (1, 5, 42)


def test_partition_function_routes_agree():
    p = sequence("p", 30, "series")
    assert sequence("p", 30, "faa") == p and p[30] == 5604
    assert sequence("p", 30) == p


def test_restricted_partition_examples():
    assert sequence("w", 5, parts=[1, 2])[5] == 3
    assert sequence("w", 9, parts=[1]) == [1] * 10
    assert sequence("w", 3, parts=[2])[3] == 0


def test_restricted_partition_rejects_bool_and_float_parts():
    for parts in ([True, 2], [1.5, 2]):
        with pytest.raises(TypeError):
            sequence("w", 3, parts=parts)
        for method in ("faa", "series"):
            with pytest.raises(TypeError):
                sequence("w", 3, method, parts)


def test_restricted_partition_matches_bruteforce():
    rng = random.Random(31)
    for _ in range(12):
        parts = rng.sample(range(1, 9), rng.randint(1, 4))
        faa, ser = (sequence("w", 24, method, parts) for method in ("faa", "series"))
        assert sequence("w", 24, parts=parts) == faa
        for n in range(0, 25, 3):
            want = count_restricted_bruteforce(n, parts)
            assert faa[n] == ser[n] == want


def test_cubic_examples():
    cubic = sequence("cubic", 3)
    assert cubic[3] == 4
    assert cubic[0] == 1
    # enumeration: 2 in either of two colors, or 1+1
    assert cubic[2] == 3


def test_cubic_matches_convolution_oracle():
    want = [cubic_by_convolution(n) for n in range(26)]
    assert sequence("cubic", 25, "faa") == sequence("cubic", 25, "series") == want
    assert sequence("cubic", 25) == want


def test_chan_identity_small():
    cubic = sequence("cubic", 3 * 12 + 2)
    chan = [3 * v for v in unscale(*route_prefix("series", CHAN_NUMERATOR, CHAN_DENOMINATOR, 12))]
    assert chan[0] == cubic[2] == 3
    assert chan[1] == cubic[5]
    for n in range(13):
        assert chan[n] == cubic[3 * n + 2]
        assert chan[n] % 3 == 0


def test_overcubic_small_values():
    # forced by the generating quotient: 1/(1-t)^2 alone contributes 2t
    overcubic = sequence("overcubic", 2)
    assert overcubic[0] == 1
    assert overcubic[1] == 2
    assert overcubic[2] == overcubic_by_convolution(2) == 6


def test_overcubic_matches_convolution_oracle():
    want = [overcubic_by_convolution(n) for n in range(19)]
    assert sequence("overcubic", 18, "faa") == sequence("overcubic", 18, "series") == want
    assert sequence("overcubic", 18) == want


def test_kim_identity_small():
    overcubic = sequence("overcubic", 3 * 10 + 2)
    kim = [6 * v for v in unscale(*route_prefix("series", KIM_NUMERATOR, KIM_DENOMINATOR, 10))]
    assert kim[0] == overcubic[2] == 6
    assert kim[1] == overcubic[5]
    for n in range(11):
        assert kim[n] == overcubic[3 * n + 2]
        assert kim[n] % 6 == 0


def test_theta_psi_examples():
    psi = sequence("psi-star", 4)
    assert psi[0] == 1
    assert psi[3] == 1
    assert psi[4] == 0


def test_theta_psi_is_triangular_indicator():
    triangulars = {k * (k + 1) // 2 for k in range(20)}
    psi = sequence("psi-star", 60)
    for n in range(61):
        assert psi[n] == (1 if n in triangulars else 0)


def test_theta_phi_examples():
    phi = sequence("phi-star", 4)
    assert phi[0] == 1
    assert phi[4] == 2
    assert phi[3] == 0


def test_theta_phi_is_doubled_square_indicator():
    squares = {k * k for k in range(1, 12)}
    phi = sequence("phi-star", 60)
    for n in range(61):
        want = 1 if n == 0 else (2 if n in squares else 0)
        assert phi[n] == want


def test_theta_routes_agree():
    for name in ("psi-star", "phi-star"):
        closed = sequence(name, 30, "faa")
        assert closed == sequence(name, 30, "series")
        assert sequence(name, 30) == closed


def test_named_functions_integral_and_nonnegative():
    parts = [2, 3, 7]
    for name in SEQUENCES:
        for method in ("faa", "series"):
            for value in sequence(name, 40, method, parts if name == "w" else None):
                assert isinstance(value, int) and value >= 0


def multiples(*slots):
    """The product ``prod_m prod (1 - t^{r m})^e`` over ``(r, e)`` slots: one
    side of a quotient of multiples-of products."""
    return spec_from_factors(*((SupportSet.multiples_of(r), 1, e) for r, e in slots))


def test_four_factor_psi_reproduction():
    # two multiples-of-2 numerator factors fold to the squared factor
    numer, denom = multiples((2, 1), (2, 1)), multiples((1, 1))
    values = unscale(*ratio_coefficients(numer, denom, 20))
    assert values[:2] == [1, 1]
    folded = unscale(*ratio_coefficients(multiples((2, 2)), denom, 20))
    psi = sequence("psi-star", 20, "series")
    closed = sequence("psi-star", 20)
    for n in range(21):
        assert values[n] == psi[n] == closed[n]
        assert values[n] == folded[n]


def test_four_factor_cubic_reproduction():
    values = unscale(*ratio_coefficients(None, multiples((1, 1), (2, 1)), 15))
    assert values[3] == 4
    assert values[0] == 1
    assert values == sequence("cubic", 15)


def test_four_factor_can_be_rational():
    # a pure numerator never has poles, so try an unbalanced quotient
    values = unscale(*ratio_coefficients(multiples((1, 1)), multiples((2, 3)), 9))
    assert all(isinstance(v, Fraction) for v in values)
    assert values[0] == 1


def test_routes_return_equal_lists():
    # both routes hand back (ints, scale), ints[n] = scale^n c_n, with the same scale L q^2
    rng = random.Random(16)
    cases = [(random_product_spec(rng, 2), random_product_spec(rng, 2)) for _ in range(6)]
    cases += [(None, None), (PARTITION_PRODUCT, None), (None, PARTITION_PRODUCT)]
    cases += [(multiples((1, 1)), multiples((2, 3)))]
    # p/q exponents and rational z: third/fifth has L = 15 and q = 6, so its scale is 15 * 6^2
    third = spec_from_factors((SupportSet.all_naturals(), Fraction(2, 3), Fraction(1, 2)))
    fifth = spec_from_factors((SupportSet.finite([1, 3]), Fraction(-1, 5), Fraction(-2, 3)))
    cases += [(None, third), (fifth, None), (third, fifth)]
    for numer, denom in cases:
        faa, ser = (route_prefix(method, numer, denom, 12) for method in ("faa", "series"))
        assert type(faa) is type(ser) is tuple and type(faa[0]) is type(ser[0]) is list
        assert all(type(v) is int for v in faa[0] + ser[0] + [faa[1], ser[1]])
        assert faa == ser and len(faa[0]) == 13
        scale, q, _ = scaled_factors(numer, denom)
        assert faa[1] == scale * q * q
        weights = literal_ratio_weights(numer, denom, 8)
        assert unscale(*faa)[:9] == [partition_power_sum(n, weights) for n in range(9)]
    assert faa[1] == 15 * 6**2


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


def test_sequence_takes_the_closed_sum_at_every_n(monkeypatch, capsys):
    top = 200
    parts = [1, 2, 5, 10, 25]
    p = sequence("p", top, "series")
    cubic = convolve(p, coin_counts(range(2, top + 1, 2), top))
    overcubic = convolve(cubic, coin_counts([m for m in range(1, top + 1) if m % 4], top))
    triangulars = {k * (k + 1) // 2 for k in range(21)}
    psi = [int(n in triangulars) for n in range(top + 1)]
    phi = [1] + [2 * (isqrt(n) ** 2 == n) for n in range(1, top + 1)]
    cases = (
        ("p", None, p),
        ("cubic", None, cubic),
        ("overcubic", None, overcubic),
        ("w", parts, coin_counts(parts, top)),
        ("psi-star", None, psi),
        ("phi-star", None, phi),
    )

    def no_series(*args):
        raise AssertionError("the default route took the series oracle")

    assert not hasattr(bellforge, "faa_cap")
    # the removed size switch's environment variable changes nothing
    for cap in ("6", "not-a-number"):
        monkeypatch.setenv("BELLFORGE_FAA_CAP", cap)
        with monkeypatch.context() as patched:
            patched.setattr(series, "expand_ratio", no_series)
            for name, extra, want in cases:
                assert sequence(name, top, parts=extra) == want
                assert [sequence(name, n, parts=extra)[n] for n in range(top + 1)] == want
            numer, denom = multiples((2, 2)), multiples((1, 1))
            assert [unscale(*ratio_coefficients(numer, denom, n))[n] for n in range(top + 1)] == psi
            for name, want in (("psi-star", psi), ("phi-star", phi)):
                assert main(["seq", name, "--max", str(top)]) == 0
                rows = capsys.readouterr().out.splitlines()
                assert rows == ["n,value"] + [f"{n},{v}" for n, v in enumerate(want)]


def test_count_guard_rejects_non_integral():
    # counts are a route's integers at scale 1: 3/2 is (1, 3) at scale 2
    with pytest.raises(InconsistencyError, match=r"test\(0\) evaluated to 1 at scale 2, not a count"):
        as_counts("test", [1, 3], 2)
    with pytest.raises(InconsistencyError, match=r"test\(1\) evaluated to -1 at scale 1, not a count"):
        as_counts("test", [1, -1], 1)
    assert as_counts("test", [7], 1) == [7] and type(as_counts("test", [7], 1)[0]) is int


def test_sequence_checks_its_route_and_parts():
    parts = [2, 3, 7]
    for name in SEQUENCES:
        extra = {"parts": parts} if name == "w" else {}
        want = sequence(name, 40, **extra)
        for method in ("faa", "series"):
            assert sequence(name, 40, method, **extra) == want
        # "auto" was a second spelling of the closed sum; it is gone
        for method in ("auto", "fast", None):
            with pytest.raises(ValueError):
                sequence(name, 3, method, **extra)
    with pytest.raises(ValueError, match="unknown sequence 'q'") as caught:
        sequence("q", 3)
    for name in SEQUENCES:
        assert name in str(caught.value)
    # a parts list belongs to "w" alone, and "w" has none without it
    for name in SEQUENCES:
        if name != "w":
            with pytest.raises(ValueError, match="only to sequence 'w'"):
                sequence(name, 3, parts=[1, 2])
    for method in ("faa", "series", "nope"):
        with pytest.raises(ValueError, match="needs a parts list"):
            sequence("w", 3, method)


def _signal_on_extend(monkeypatch, hook):
    """Patch ``bellpoly.bell_extend`` so that ``hook(n, run)`` wraps each
    call, ``run()`` being the real extension."""
    real = bellpoly.bell_extend

    def wrapped(coeffs, weights, n):
        hook(n, lambda: real(coeffs, weights, n))

    monkeypatch.setattr(bellpoly, "bell_extend", wrapped)


def test_a_request_does_not_wait_on_unrelated_work(monkeypatch):
    unrelated = spec_from_factors((SupportSet.multiples_of(2), Fraction(1, 3), 2))
    want = ratio_coefficients(None, unrelated, 30)
    entered = threading.Event()

    def hook(n, run):
        entered.set()
        run()

    _signal_on_extend(monkeypatch, hook)
    worker = threading.Thread(target=ratio_coefficients, args=(None, PARTITION_PRODUCT, 4000))
    worker.start()
    try:
        assert entered.wait(10)
        start = time.perf_counter()
        got = ratio_coefficients(None, unrelated, 30)
        waited = time.perf_counter() - start
        still_computing = worker.is_alive()
    finally:
        worker.join(60)
    assert not worker.is_alive()
    assert got == want
    assert waited < 0.1
    assert still_computing


def test_each_request_runs_its_own_recurrence(monkeypatch):
    # the closed sum keeps no prefix: an equal request computes it again
    spec = spec_from_factors((SupportSet.finite([1, 4]), Fraction(2, 5), -2))
    want = expand_ratio(None, spec, 12)
    extended = []

    def hook(n, run):
        extended.append(n)
        run()

    _signal_on_extend(monkeypatch, hook)
    first = ratio_coefficients(None, spec, 12)
    assert ratio_coefficients(None, spec, 12) == first == want
    assert extended == [12, 12]


def test_cache_under_thread_stress():
    # more threads than cores, switching often, over both routes and three ratios
    specs = [spec_from_factors((SupportSet.multiples_of(r), Fraction(1, r + 1), 1)) for r in (1, 2, 3)]
    want = {spec: unscale(*expand_ratio(None, spec, 120)) for spec in specs}
    errors = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(40):
            spec, n, route = rng.choice(specs), rng.randint(0, 120), rng.choice(("faa", "series"))
            if route == "faa":
                got = unscale(*ratio_coefficients(None, spec, n))
            else:
                got = unscale(*route_prefix("series", None, spec, n))
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
