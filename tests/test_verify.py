import inspect
import random
from fractions import Fraction

import pytest

from bellforge import errata, verify
from bellforge.bellpoly import InconsistencyError, ratio_coefficients, work_estimate
from bellforge.partfun import SEQUENCES, restricted_product
from bellforge.series import TruncatedSeries
from bellforge.supports import FINITE, MULTIPLES, ProductSpec, scaled_factors
from bellforge.verify import (
    SUITES,
    _convolve,
    _scaled,
    random_product_spec,
    run_suite,
    theta_suite,
)


def test_random_family_stays_in_documented_bounds():
    rng = random.Random(0)
    for _ in range(200):
        spec = random_product_spec(rng)
        assert isinstance(spec, ProductSpec)
        assert 1 <= len(spec.factors) <= 3
        for f in spec.factors:
            assert f.a != 0 and -3 <= f.a <= 3
            assert str(f.z) in {"1", "-1", "1/2", "2"}
            if f.support.kind == MULTIPLES:
                assert 1 <= f.support.r <= 4
            if f.support.kind == FINITE:
                assert set(f.support.members) <= set(range(1, 7))


def test_every_suite_passes_at_reduced_size():
    sizes = {
        "reciprocal": 8,
        "euler": 15,
        "sigma": 200,
        "chan": 6,
        "kim": 5,
        "additivity-index": 8,
        "additivity-set": 8,
        "restricted-recursion": 20,
        "theta": 40,
    }
    for name in SUITES:
        rows = run_suite(name, sizes[name])
        assert rows, name
        assert all(row.ok for row in rows), name


def test_failed_rows_carry_both_sides():
    rows = theta_suite(10)
    for row in rows:
        assert row.lhs != "" and row.rhs != ""


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_default_sizes_live_only_in_default_max():
    # the default --max of each suite is the second entry of its SUITES row
    for name, (suite, _, _) in SUITES.items():
        assert inspect.signature(suite).parameters["max_n"].default is inspect.Parameter.empty, name
        with pytest.raises(TypeError):
            suite()
    suite, default, _ = SUITES["chan"]
    assert run_suite("chan") == suite(default)


def test_suites_are_deterministic():
    first = run_suite("additivity-set", 8)
    second = run_suite("additivity-set", 8)
    assert first == second


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize(
    "max_n, error", [(True, TypeError), (2.0, TypeError), (-1, ValueError)], ids=["bool", "float", "negative"]
)
def test_suites_reject_a_max_that_is_not_a_natural(name, max_n, error):
    with pytest.raises(error, match="must be"):
        run_suite(name, max_n)


@pytest.mark.parametrize("name", [*sorted(SUITES), "errata"])
def test_prices_cover_every_prefix_that_runs(name, monkeypatch):
    # every prefix a suite or the errata report requests, as (route, numer, denom, n)
    requested = []

    def recording_sequence(real):
        def sequence(seq, n, method="faa", parts=None):
            sides = SEQUENCES[seq] if parts is None else (None, restricted_product(parts))
            requested.append((method, *sides, n))
            return real(seq, n, method, parts)

        return sequence

    def route_prefix(numer, denom, n, method, real=verify.route_prefix):
        requested.append((method, numer, denom, n))
        return real(numer, denom, n, method)

    def ratio_coefficients(numer, denom, n, real=verify.ratio_coefficients):
        requested.append(("faa", numer, denom, n))
        return real(numer, denom, n)

    price = errata.report_work if name == "errata" else SUITES[name][2]
    # priced before the wrappers go in: euler's price reads p on the series route
    prices = {n_max: price(n_max) for n_max in (0, 1, 7, 23)}
    for module in (verify, errata):
        monkeypatch.setattr(module, "sequence", recording_sequence(module.sequence))
    monkeypatch.setattr(verify, "route_prefix", route_prefix)
    monkeypatch.setattr(verify, "ratio_coefficients", ratio_coefficients)
    for n_max, work in prices.items():
        requested.clear()
        if name == "errata":
            errata.build_report(n_max)
        else:
            run_suite(name, n_max)
        assert requested or name == "sigma"
        ran = sum(work_estimate(*prefix) for prefix in requested)
        if name == "reciprocal":
            # and one more prefix of each spec for its convolutions
            ran += sum(work_estimate(*prefix) for prefix in requested if prefix[2] is None)
        if name in ("reciprocal", "additivity-index", "additivity-set", "restricted-recursion"):
            # priced on the draws that run, so exactly
            assert ran == work, (name, n_max)
        assert ran <= work, (name, n_max)


def test_integer_convolution_matches_the_fraction_cauchy_product():
    # the identities convolve c_m L^m under the lcm L of both sides' z denominators
    rng = random.Random(24)
    mixed = 0
    for _ in range(50):
        spec_a, spec_b = random_product_spec(rng), random_product_spec(rng)
        n = rng.randint(0, 30)
        u, v = ratio_coefficients(spec_a, None, n), ratio_coefficients(spec_b, None, n)
        scale = scaled_factors(spec_a, spec_b)[0]
        mixed += scaled_factors(spec_a, None)[0] != scaled_factors(spec_b, None)[0]
        want = TruncatedSeries(u).mul(TruncatedSeries(v)).coeffs
        got = [_convolve(_scaled(u, scale), _scaled(v, scale), k) for k in range(n + 1)]
        assert [Fraction(c, scale**k) for k, c in enumerate(got)] == list(want)
    assert mixed >= 10
    # a coefficient whose denominator does not divide L^m is an error, not a floor
    with pytest.raises(InconsistencyError):
        _scaled([Fraction(1), Fraction(1, 3)], 2)
