"""Identity suites: every checkable exact identity, as verdict lists.

Each suite returns :class:`IdentityReport` rows (one per checked instance)
so the CLI can print per-``n`` verdicts and the tests can assert them.
Randomized suites draw from a fixed documented family with a fixed default
seed, keeping output byte-stable across runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from .arith import factorize, sigma, sigma_via_factorization
from .bellpoly import (
    IdentityReport,
    index_additivity_report,
    product_coefficients,
    reciprocal_coefficients,
    set_additivity_report,
)
from .partfun import (
    chan_product_coefficient,
    kim_product_coefficient,
    restricted_recursion_report,
    sequence,
)
from .partitions import count_partitions, iter_partitions
from .supports import Factor, ProductSpec, SupportSet

DEFAULT_SEED = 1103

_Z_CHOICES = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))
_A_CHOICES = (-3, -2, -1, 1, 2, 3)


def random_support(rng: random.Random) -> SupportSet:
    kind = rng.randrange(3)
    if kind == 0:
        return SupportSet.all_naturals()
    if kind == 1:
        return SupportSet.multiples_of(rng.randint(1, 4))
    return SupportSet.finite(rng.sample(range(1, 7), rng.randint(1, 3)))


def random_product_spec(rng: random.Random, max_factors: int = 3) -> ProductSpec:
    """A spec from the documented random family: up to ``max_factors``
    factors, supports in {all, multiples r<=4, finite in [1,6]},
    z in {1, -1, 1/2, 2}, exponent in +-[1,3]."""
    count = rng.randint(1, max_factors)
    return ProductSpec(
        tuple(
            Factor(random_support(rng), rng.choice(_Z_CHOICES), rng.choice(_A_CHOICES))
            for _ in range(count)
        )
    )


def reciprocal_suite(max_n: int, spec_count: int = 30, seed: int = DEFAULT_SEED):
    """Convolving product and reciprocal coefficients must give the unit
    sequence: ``sum_k P_k W_{n-k} == [n == 0]``."""
    rng = random.Random(seed)
    rows = []
    for i in range(spec_count):
        spec = random_product_spec(rng)
        prods = product_coefficients(spec, max_n)
        recips = reciprocal_coefficients(spec, max_n)
        for n in range(max_n + 1):
            conv = sum((prods[k] * recips[n - k] for k in range(n + 1)), Fraction(0))
            expected = Fraction(1 if n == 0 else 0)
            rows.append(
                IdentityReport(f"reciprocal#{i:02d}", n, conv == expected, str(conv), str(expected))
            )
    return rows


def euler_suite(max_n: int):
    """Triple agreement for p(n): closed sum, pentagonal recurrence, and
    the cardinality of the partition iterator."""
    rows = []
    for n, closed in enumerate(sequence("p", max_n, "faa")):
        pent = count_partitions(n)
        iterated = sum(1 for _ in iter_partitions(n))
        ok = closed == pent == iterated
        rows.append(
            IdentityReport(
                "euler", n, ok, f"closed={closed};iter={iterated}", f"pentagonal={pent}"
            )
        )
    return rows


def sigma_suite(max_n: int):
    """Divisor enumeration against the prime-factorization formula."""
    rows = []
    for n in range(1, max_n + 1):
        direct = sigma(n)
        formula = sigma_via_factorization(factorize(n))
        rows.append(IdentityReport("sigma", n, direct == formula, str(formula), str(direct)))
    return rows


def chan_suite(max_n: int):
    """a(3n+2) equals Chan's product value and is divisible by 3."""
    cubic = sequence("cubic", 3 * max_n + 2, "series")
    rows = []
    for n in range(max_n + 1):
        lhs = cubic[3 * n + 2]
        rhs = chan_product_coefficient(n)
        ok = lhs == rhs and lhs % 3 == 0
        rows.append(IdentityReport("chan", n, ok, f"a({3 * n + 2})={lhs}", f"3*coeff={rhs}"))
    return rows


def kim_suite(max_n: int):
    """abar(3n+2) equals Kim's product value and is divisible by 6."""
    overcubic = sequence("overcubic", 3 * max_n + 2, "series")
    rows = []
    for n in range(max_n + 1):
        lhs = overcubic[3 * n + 2]
        rhs = kim_product_coefficient(n)
        ok = lhs == rhs and lhs % 6 == 0
        rows.append(IdentityReport("kim", n, ok, f"abar({3 * n + 2})={lhs}", f"6*coeff={rhs}"))
    return rows


def index_additivity_suite(max_n: int, instances: int = 20, seed: int = DEFAULT_SEED):
    """Adding exponent vectors over a fixed factor family must convolve
    the coefficient sequences."""
    rng = random.Random(seed)
    rows = []
    for _ in range(instances):
        size = rng.randint(1, 3)
        base = [(random_support(rng), rng.choice(_Z_CHOICES)) for _ in range(size)]
        a_index = [rng.choice(_A_CHOICES) for _ in range(size)]
        b_index = [rng.choice(_A_CHOICES) for _ in range(size)]
        rows.append(index_additivity_report(rng.randint(0, max_n), base, a_index, b_index))
    return rows


def set_additivity_suite(max_n: int, instances: int = 20, seed: int = DEFAULT_SEED):
    """Merging two factor families must convolve the coefficient sequences."""
    rng = random.Random(seed)
    rows = []
    for _ in range(instances):
        spec_a = random_product_spec(rng)
        spec_b = ProductSpec(
            tuple(
                Factor(
                    SupportSet.finite(rng.sample(range(1, 10), rng.randint(1, 3))),
                    rng.choice(_Z_CHOICES),
                    rng.choice(_A_CHOICES),
                )
                for _ in range(rng.randint(1, 2))
            )
        )
        rows.append(set_additivity_report(rng.randint(0, max_n), spec_a, spec_b))
    return rows


def restricted_recursion_suite(max_n: int, list_count: int = 30, seed: int = DEFAULT_SEED):
    """Dropping the last allowed part: W(n,d) - W(n-last,d) == W(n,d[:-1])."""
    rng = random.Random(seed)
    rows = []
    for _ in range(list_count):
        parts = rng.sample(range(1, 9), rng.randint(2, 5))
        n = rng.randint(0, max_n)
        rows.append(restricted_recursion_report(n, parts))
    return rows


def theta_suite(max_n: int):
    """The two theta quotients must reduce to the triangular-number
    indicator and the doubled square indicator."""
    rows = []
    for n, got in enumerate(sequence("psi-star", max_n)):
        want = 1 if _is_triangular(n) else 0
        rows.append(IdentityReport("theta-psi", n, got == want, str(got), str(want)))
    for n, got in enumerate(sequence("phi-star", max_n)):
        if n == 0:
            want = 1
        else:
            want = 2 if isqrt(n) ** 2 == n else 0
        rows.append(IdentityReport("theta-phi", n, got == want, str(got), str(want)))
    return rows


def _is_triangular(n: int) -> bool:
    # n == k(k+1)/2  iff  8n+1 is an odd perfect square
    root = isqrt(8 * n + 1)
    return root * root == 8 * n + 1


SUITES = {
    "reciprocal": reciprocal_suite,
    "euler": euler_suite,
    "sigma": sigma_suite,
    "chan": chan_suite,
    "kim": kim_suite,
    "additivity-index": index_additivity_suite,
    "additivity-set": set_additivity_suite,
    "restricted-recursion": restricted_recursion_suite,
    "theta": theta_suite,
}

DEFAULT_MAX = {
    "reciprocal": 20,
    "euler": 60,
    "sigma": 10_000,
    "chan": 20,
    "kim": 20,
    "additivity-index": 12,
    "additivity-set": 12,
    "restricted-recursion": 40,
    "theta": 100,
}


def run_suite(name: str, max_n: int | None = None):
    """Run one named suite; ``max_n`` falls back to the suite default."""
    if name not in SUITES:
        raise ValueError(f"unknown identity {name!r}")
    return SUITES[name](max_n=DEFAULT_MAX[name] if max_n is None else max_n)
