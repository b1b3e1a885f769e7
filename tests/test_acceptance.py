"""Acceptance suite: one test per criterion, exact tolerances, wall budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.
"""

import random
import time
from fractions import Fraction

from bellforge import (
    expand_ratio,
    factorize,
    iter_partitions,
    ratio_coefficients,
    restricted_recursion_report,
    sequence,
    sigma,
    sigma_via_factorization,
    unscale,
)
from bellforge.errata import build_report
from bellforge.partfun import (
    CHAN_DENOMINATOR,
    CHAN_NUMERATOR,
    KIM_DENOMINATOR,
    KIM_NUMERATOR,
    OVERCUBIC_DENOMINATOR,
    OVERCUBIC_NUMERATOR,
    route_prefix,
)
from bellforge.verify import (
    index_additivity_suite,
    random_product_spec,
    reciprocal_suite,
    set_additivity_suite,
)
from plans import run
from reference import count_restricted_bruteforce


def run_criterion(label, budget_s, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {label}: PASS in {elapsed:.2f}s (budget {budget_s}s)")
    assert elapsed < budget_s, f"{label} took {elapsed:.2f}s, budget {budget_s}s"


def test_c01_closed_sum_matches_series_oracle():
    def body():
        rng = random.Random(101)
        for _ in range(30):
            spec = random_product_spec(rng)
            oracle = unscale(*expand_ratio(spec, None, 15))
            closed = unscale(*ratio_coefficients(spec, None, 15))
            for n in range(16):
                assert closed[n] == oracle[n]

    run_criterion("criterion 01: closed sum == series oracle, 30 specs, n<=15", 10, body)


def test_c02_reciprocal_identity():
    def body():
        rows = run(reciprocal_suite(max_n=20, seed=202))
        assert len(rows) == 30 * 21
        assert all(row.ok for row in rows)

    run_criterion("criterion 02: sum P_k W_(n-k) == [n==0], n<=20", 10, body)


def test_c03_triple_agreement_partition_function():
    def body():
        closed_sums = sequence("p", 60, "faa")
        assert closed_sums[10] == 42
        assert closed_sums[20] == 627
        pents = sequence("p", 60, "series")
        for n in range(61):
            closed = closed_sums[n]
            pent = pents[n]
            iterated = sum(1 for _ in iter_partitions(n))
            assert closed == pent == iterated

    run_criterion("criterion 03: p(n) triple agreement, n<=60", 60, body)


def test_c04_restricted_counts_and_recursion():
    def body():
        rng = random.Random(404)
        for _ in range(30):
            parts = rng.sample(range(1, 9), rng.randint(2, 5))
            closed_sums = sequence("w", 40, "faa", parts)
            assert sequence("w", 40, parts=parts) == closed_sums
            for n in range(41):
                closed = closed_sums[n]
                assert closed == count_restricted_bruteforce(n, parts)
                assert restricted_recursion_report(n, parts).ok

    run_criterion("criterion 04: restricted counts vs brute force + recursion, n<=40", 30, body)


def test_c05_cubic_and_chan():
    def body():
        closed = sequence("cubic", 40)
        assert closed[3] == 4
        p = sequence("p", 40, "series")
        for n in range(41):
            convolution = sum(p[m] * p[n - 2 * m] for m in range(n // 2 + 1))
            assert closed[n] == convolution
        cubic = sequence("cubic", 62, "series")
        chan = unscale(*route_prefix("series", CHAN_NUMERATOR, CHAN_DENOMINATOR, 20))
        for n in range(21):
            value = cubic[3 * n + 2]
            assert value == 3 * chan[n]
            assert value % 3 == 0

    run_criterion("criterion 05: cubic counts, convolution oracle, Chan identity", 20, body)


def test_c06_overcubic_and_kim():
    def body():
        overcubic = sequence("overcubic", 62, "series")
        closed = sequence("overcubic", 62)
        kim = unscale(*route_prefix("series", KIM_NUMERATOR, KIM_DENOMINATOR, 20))
        for n in range(21):
            value = overcubic[3 * n + 2]
            assert value == 6 * kim[n]
            assert value == closed[3 * n + 2]
            assert value % 6 == 0
        # closed-sum route agrees with the series quotient at desk scale
        quotient = unscale(*route_prefix("series", OVERCUBIC_NUMERATOR, OVERCUBIC_DENOMINATOR, 18))
        for n in range(19):
            closed = unscale(*ratio_coefficients(OVERCUBIC_NUMERATOR, OVERCUBIC_DENOMINATOR, n))
            assert closed[n] == quotient[n]

    run_criterion("criterion 06: Kim identity, mod-6 congruence, dual routes", 20, body)


def test_c07_theta_indicators():
    def body():
        triangulars = {k * (k + 1) // 2 for k in range(16)}
        squares = {k * k for k in range(1, 11)}
        psi, phi = sequence("psi-star", 100), sequence("phi-star", 100)
        for n in range(101):
            assert psi[n] == (1 if n in triangulars else 0)
            expected = 1 if n == 0 else (2 if n in squares else 0)
            assert phi[n] == expected

    run_criterion("criterion 07: theta coefficient indicators, n<=100", 10, body)


def test_c08_sigma_formula_full_range():
    def body():
        for n in range(1, 10_001):
            assert sigma_via_factorization(factorize(n)) == sigma(n)

    run_criterion("criterion 08: sigma == factorization formula, n<=10^4", 5, body)


def test_c09_additivity_recursions():
    def body():
        index_rows = run(index_additivity_suite(max_n=12, seed=909))
        set_rows = run(set_additivity_suite(max_n=12, seed=910))
        assert len(index_rows) == len(set_rows) == 20
        assert all(row.ok for row in index_rows)
        assert all(row.ok for row in set_rows)

    run_criterion("criterion 09: exponent/support additivity, 20+20 instances", 10, body)


def test_c10_errata_report():
    def body():
        # ground truth by direct enumeration: 2 in two colors, or 1+1
        assert sequence("cubic", 2)[2] == 3
        report = build_report(max_n=6)
        names = [st["name"] for st in report]
        assert "cubic" in names and len(report) == 6
        cubic = next(st for st in report if st["name"] == "cubic")
        assert cubic["product_form"][2] == "3"
        # the report records the transcription column; its values are data,
        # not assertions
        assert len(cubic["transcription"]) == 7

    run_criterion("criterion 10: transcription status report", 5, body)


def test_c11_closed_sum_partition_function_to_1000():
    def body():
        p = sequence("p", 1000, "series")
        assert sequence("p", 1000, "faa") == p
        assert sequence("p", 1000) == p

    run_criterion("criterion 11: closed sum p(n) == series route, n<=1000", 1, body)


def test_c12_series_route_to_1000():
    def body():
        p = sequence("p", 1000, "series")
        assert p[100] == 190569292 and p[1000] == 24061467864032622473692149727991
        triangulars = {k * (k + 1) // 2 for k in range(25)}
        squares = {k * k for k in range(1, 18)}
        psi, phi = (sequence(name, 300, "series") for name in ("psi-star", "phi-star"))
        for n in range(301):
            assert psi[n] == (1 if n in triangulars else 0)
            want = 1 if n == 0 else (2 if n in squares else 0)
            assert phi[n] == want

    run_criterion("criterion 12: series route p(n) to 1000, theta indicators to 300", 1, body)
