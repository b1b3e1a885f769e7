"""Identity suites: every checkable exact identity, as verdict lists.

Each suite returns :class:`IdentityReport` rows (one per checked instance)
so the CLI can print per-``n`` verdicts and the tests can assert them.
Randomized suites draw from a fixed documented family with a fixed default
seed, keeping output byte-stable across runs.  The single-instance checks
(additivity over exponents and over supports, the restricted-count
recursion) live here as well, so a closed-sum request never compiles them.
Each suite has a price of ``--max N`` in
:func:`~bellforge.bellpoly.work_estimate` units, checked before it runs; a
randomized suite's suite and price read one function's draws.  Convolutions
run on the integers ``c_m L^m`` of the routes' scaled outputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from operator import mul

from .arith import require_natural
from .bellpoly import InconsistencyError, ratio_coefficients, work_estimate
from .partfun import (
    CHAN_DENOMINATOR,
    CHAN_NUMERATOR,
    KIM_DENOMINATOR,
    KIM_NUMERATOR,
    PARTITION_PRODUCT,
    SEQUENCES,
    restricted_product,
    route_prefix,
    sequence,
)
from .supports import Factor, ProductSpec, Record, SupportSet, scaled_factors

DEFAULT_SEED = 1103
# instances per randomized suite: random specs, additivity pairs, parts lists
SPEC_COUNT = 30
INSTANCES = 20
LIST_COUNT = 30

_Z_CHOICES = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))
_A_CHOICES = (-3, -2, -1, 1, 2, 3)


class IdentityReport(Record):
    """Outcome of one exact identity check, with both sides' values."""

    _fields = ("check", "n", "ok", "lhs", "rhs")

    def __init__(self, check: str, n: int, ok: bool, lhs: str, rhs: str):
        self._assign(check, n, ok, lhs, rhs)


def index_additivity_report(n, base, a_index, b_index) -> IdentityReport:
    """Check that coefficients for exponent vector ``a + b`` equal the
    convolution of the coefficients for ``a`` and for ``b``, over the same
    (support, z) families.

    ``base`` is a sequence of (support, z) pairs; ``a_index``/``b_index``
    are equal-length vectors of nonzero integers.  Combined exponents that
    cancel to zero simply drop their factor.
    """
    return _additivity_report("additivity-index", n, *_index_specs(base, a_index, b_index))


def set_additivity_report(n, spec_a: ProductSpec, spec_b: ProductSpec) -> IdentityReport:
    """Check that coefficients of the merged factor list equal the
    convolution of the two sides' coefficients."""
    merged = ProductSpec(spec_a.factors + spec_b.factors)
    return _additivity_report("additivity-set", n, merged, spec_a, spec_b)


def _index_specs(base, a_index, b_index):
    """The specs of ``a + b`` (``None`` if every exponent cancels), ``a`` and ``b``."""
    base = list(base)
    if not (len(base) == len(a_index) == len(b_index)):
        raise ValueError("index vectors must match the factor family")
    spec_a = ProductSpec(tuple(Factor(s, z, a) for (s, z), a in zip(base, a_index)))
    spec_b = ProductSpec(tuple(Factor(s, z, b) for (s, z), b in zip(base, b_index)))
    combined = tuple(Factor(s, z, a + b) for (s, z), a, b in zip(base, a_index, b_index) if a + b)
    return ProductSpec(combined) if combined else None, spec_a, spec_b


def _additivity_report(check, n, combined, spec_a, spec_b) -> IdentityReport:
    """Coefficient ``n`` of ``combined`` against the convolution of those of
    ``spec_a`` and ``spec_b``, on the integers ``c_m L^m`` of both sides."""
    require_natural(n)
    lhs = ratio_coefficients(combined, None, n)[n]
    scale = scaled_factors(spec_a, spec_b)[0]
    u, v = (_scaled(ratio_coefficients(spec, None, n), scale) for spec in (spec_a, spec_b))
    rhs = Fraction(_convolve(u, v, n), scale**n)
    return IdentityReport(check, n, lhs == rhs, str(lhs), str(rhs))


def restricted_recursion_report(n: int, parts) -> IdentityReport:
    """Check ``W(n, parts) - W(n - last, parts) == W(n, parts-without-last)``
    exactly, counting ``W`` at negative arguments as 0."""
    require_natural(n)
    parts = list(parts)
    if len(parts) < 2:
        raise ValueError("the recursion needs at least two parts")
    last = parts[-1]
    counts = sequence("w", n, "series", parts)
    full, shifted = counts[n], counts[n - last] if n >= last else 0
    rhs = sequence("w", n, "series", parts[:-1])[n]
    lhs = full - shifted
    return IdentityReport(
        "restricted-recursion", n, lhs == rhs, f"{full}-{shifted}={lhs}", str(rhs)
    )


def _convolve(u: list[int], v: list[int], n: int) -> int:
    """Coefficient ``n`` of the Cauchy product of two integer prefixes."""
    return sum(map(mul, u[: n + 1], v[n::-1]))


def _scaled(prefix, scale: int) -> list[int]:
    """The integers ``c_m L^m`` of a route's coefficients ``c_m``, ``L = scale``."""
    scaled = [c * scale**m for m, c in enumerate(prefix)]
    if any(c.denominator != 1 for c in scaled):
        raise InconsistencyError(f"a coefficient is not an integer over {scale}^m")
    return [c.numerator for c in scaled]


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
    return ProductSpec(tuple(_random_factor(rng, random_support(rng)) for _ in range(count)))


def _random_factor(rng: random.Random, support: SupportSet) -> Factor:
    return Factor(support, rng.choice(_Z_CHOICES), rng.choice(_A_CHOICES))


def reciprocal_suite(max_n: int, seed: int = DEFAULT_SEED):
    """Convolving product and reciprocal coefficients must give the unit
    sequence: ``sum_k P_k W_{n-k} == [n == 0]``."""
    rows = []
    for i, (top, (spec,)) in enumerate(_reciprocal_draws(max_n, seed)):
        scale = scaled_factors(spec, None)[0]
        prods = _scaled(ratio_coefficients(spec, None, top), scale)
        recips = _scaled(ratio_coefficients(None, spec, top), scale)
        for n in range(top + 1):
            conv = Fraction(_convolve(prods, recips, n), scale**n)
            expected = Fraction(1 if n == 0 else 0)
            rows.append(
                IdentityReport(f"reciprocal#{i:02d}", n, conv == expected, str(conv), str(expected))
            )
    return rows


def _reciprocal_draws(max_n: int, seed: int = DEFAULT_SEED):
    """``(max_n, (spec,))`` for each of the suite's ``SPEC_COUNT`` random specs."""
    require_natural(max_n, "max_n")
    rng = random.Random(seed)
    return [(max_n, (random_product_spec(rng),)) for _ in range(SPEC_COUNT)]


def euler_suite(max_n: int):
    """Triple agreement for p(n): closed sum, series route (on p, Euler's
    pentagonal recurrence) and a count of the partition iterator's output.
    The iterator runs once, on ``N = max_n``: adding ``N - n`` ones maps the
    partitions of ``n`` onto those of ``N`` with at least ``N - n`` ones, so
    ``p(n)`` is a running sum of the histogram of ``k_1`` over those of ``N``."""
    # the only suite that uses the partition iterator
    from .partitions import iter_partitions

    require_natural(max_n, "max_n")
    ones = [0] * (max_n + 1)
    for ks in iter_partitions(max_n):
        ones[ks[0] if ks else 0] += 1
    closed_sums, pentagonal = (sequence("p", max_n, route) for route in ("faa", "series"))
    columns = zip(closed_sums, pentagonal, accumulate(reversed(ones)))
    rows = []
    for n, (closed, pent, iterated) in enumerate(columns):
        ok = closed == pent == iterated
        rows.append(
            IdentityReport(
                "euler", n, ok, f"closed={closed};iter={iterated}", f"pentagonal={pent}"
            )
        )
    return rows


def sigma_suite(max_n: int):
    """Divisor enumeration against the prime-factorization formula."""
    # the only suite that uses the divisor sums
    from .divisors import factorize, sigma, sigma_via_factorization

    require_natural(max_n, "max_n")
    rows = []
    for n in range(1, max_n + 1):
        direct = sigma(n)
        formula = sigma_via_factorization(factorize(n))
        rows.append(IdentityReport("sigma", n, direct == formula, str(formula), str(direct)))
    return rows


def chan_suite(max_n: int):
    """a(3n+2) equals Chan's product value and is divisible by 3."""
    return _progression_suite("chan", "cubic", "a", CHAN_NUMERATOR, CHAN_DENOMINATOR, 3, max_n)


def kim_suite(max_n: int):
    """abar(3n+2) equals Kim's product value and is divisible by 6."""
    return _progression_suite("kim", "overcubic", "abar", KIM_NUMERATOR, KIM_DENOMINATOR, 6, max_n)


def _progression_suite(check, name, label, numer, denom, multiple, max_n):
    """``name(3n+2)`` equals ``multiple`` times the ``t^n`` coefficient of
    numer/denom and is divisible by ``multiple``; both sides on the series
    route, each from one prefix."""
    counts = sequence(name, 3 * max_n + 2, "series")
    quotient = route_prefix(numer, denom, max_n, "series")
    rows = []
    for n in range(max_n + 1):
        lhs, rhs = counts[3 * n + 2], multiple * quotient[n]
        ok = lhs == rhs and lhs % multiple == 0
        rows.append(
            IdentityReport(check, n, ok, f"{label}({3 * n + 2})={lhs}", f"{multiple}*coeff={rhs}")
        )
    return rows


def index_additivity_suite(max_n: int, seed: int = DEFAULT_SEED):
    """Adding exponent vectors over a fixed factor family must convolve
    the coefficient sequences."""
    draws = _index_draws(max_n, seed)
    return [_additivity_report("additivity-index", n, *specs) for n, specs in draws]


def _index_draws(max_n: int, seed: int = DEFAULT_SEED):
    """``(n, (a + b, a, b))`` for each of ``INSTANCES`` random exponent-vector pairs."""
    require_natural(max_n, "max_n")
    rng = random.Random(seed)
    for _ in range(INSTANCES):
        size = rng.randint(1, 3)
        base = [(random_support(rng), rng.choice(_Z_CHOICES)) for _ in range(size)]
        a_index = [rng.choice(_A_CHOICES) for _ in range(size)]
        b_index = [rng.choice(_A_CHOICES) for _ in range(size)]
        yield rng.randint(0, max_n), _index_specs(base, a_index, b_index)


def set_additivity_suite(max_n: int, seed: int = DEFAULT_SEED):
    """Merging two factor families must convolve the coefficient sequences."""
    draws = _set_draws(max_n, seed)
    return [_additivity_report("additivity-set", n, *specs) for n, specs in draws]


def _set_draws(max_n: int, seed: int = DEFAULT_SEED):
    """``(n, (a and b merged, a, b))`` for each of ``INSTANCES`` random spec
    pairs, ``b`` on finite supports in 1..9."""
    require_natural(max_n, "max_n")
    rng = random.Random(seed)
    for _ in range(INSTANCES):
        spec_a = random_product_spec(rng)
        count = rng.randint(1, 2)
        # a generator, so that each support is drawn just before its z and a
        finite = (rng.sample(range(1, 10), rng.randint(1, 3)) for _ in range(count))
        spec_b = ProductSpec(tuple(_random_factor(rng, SupportSet.finite(m)) for m in finite))
        merged = ProductSpec(spec_a.factors + spec_b.factors)
        yield rng.randint(0, max_n), (merged, spec_a, spec_b)


def restricted_recursion_suite(max_n: int, seed: int = DEFAULT_SEED):
    """Dropping the last allowed part: W(n,d) - W(n-last,d) == W(n,d[:-1])."""
    return [restricted_recursion_report(n, parts) for n, parts in _restricted_draws(max_n, seed)]


def _restricted_draws(max_n: int, seed: int = DEFAULT_SEED):
    """``(n, parts)`` for each of ``LIST_COUNT`` random parts lists inside 1..8."""
    require_natural(max_n, "max_n")
    rng = random.Random(seed)
    for _ in range(LIST_COUNT):
        parts = rng.sample(range(1, 9), rng.randint(2, 5))
        yield rng.randint(0, max_n), parts


def theta_suite(max_n: int):
    """The two theta quotients, expanded on the series route, must reduce to
    the triangular-number indicator and the doubled square indicator."""
    rows = []
    for n, got in enumerate(sequence("psi-star", max_n, "series")):
        want = 1 if _is_triangular(n) else 0
        rows.append(IdentityReport("theta-psi", n, got == want, str(got), str(want)))
    for n, got in enumerate(sequence("phi-star", max_n, "series")):
        want = 1 if n == 0 else 2 if isqrt(n) ** 2 == n else 0
        rows.append(IdentityReport("theta-phi", n, got == want, str(got), str(want)))
    return rows


def _is_triangular(n: int) -> bool:
    # n == k(k+1)/2  iff  8n+1 is an odd perfect square
    root = isqrt(8 * n + 1)
    return root * root == 8 * n + 1


def _euler_work(max_n: int) -> int:
    """p(N) partition vectors of N + 1 units each, plus the two routes' prefixes
    of p.  p increases, so doubling the series-route prefix stops at the first
    length whose enumeration is past the budget."""
    from .cli import WORK_BUDGET

    top, work = 0, max_n + 1
    while work <= WORK_BUDGET and top < max_n:
        top = min(2 * top + 1, max_n)
        work = sequence("p", top, "series")[-1] * (max_n + 1)
    return work + sum(work_estimate(r, None, PARTITION_PRODUCT, max_n) for r in ("faa", "series"))


def _closed_sum_work(draws, copies: int = 1):
    """The price of ``copies`` closed-sum prefixes of each spec of ``draws(--max)``."""
    return lambda max_n: copies * sum(
        work_estimate("faa", spec, None, n) for n, specs in draws(max_n) for spec in specs
    )


def _restricted_work(max_n: int) -> int:
    """Two series-route prefixes per drawn parts list: with and without its last part."""
    drawn = ((n, p) for n, parts in _restricted_draws(max_n) for p in (parts, parts[:-1]))
    return sum(work_estimate("series", None, restricted_product(p), n) for n, p in drawn)


def _progression_work(name: str, numer, denom):
    """The price of :func:`_progression_suite`'s two series-route prefixes."""
    return lambda n: (
        work_estimate("series", *SEQUENCES[name], 3 * n + 2)
        + work_estimate("series", numer, denom, n)
    )


def _theta_work(n: int) -> int:
    """The price of :func:`theta_suite`'s two series-route prefixes."""
    return sum(work_estimate("series", *SEQUENCES[name], n) for name in ("psi-star", "phi-star"))


# units of one divisor trial in sigma, priced at N isqrt(N) trials: 119-205 ns a
# trial against a median 9.7 ns a unit on seven named prefixes (2-vCPU Xeon)
SIGMA_TRIAL_UNITS = 16

# name -> (suite, default --max, price of --max N).  A randomized suite is priced
# on its own draws: the prefixes each drawn n expands, and for reciprocal a third
# prefix per spec for the n (n + 1) / 2 products of its convolutions.
SUITES = {
    "reciprocal": (reciprocal_suite, 20, _closed_sum_work(_reciprocal_draws, 3)),
    "euler": (euler_suite, 60, _euler_work),
    "sigma": (sigma_suite, 10_000, lambda n: SIGMA_TRIAL_UNITS * n * isqrt(n)),
    "chan": (chan_suite, 20, _progression_work("cubic", CHAN_NUMERATOR, CHAN_DENOMINATOR)),
    "kim": (kim_suite, 20, _progression_work("overcubic", KIM_NUMERATOR, KIM_DENOMINATOR)),
    "additivity-index": (index_additivity_suite, 12, _closed_sum_work(_index_draws)),
    "additivity-set": (set_additivity_suite, 12, _closed_sum_work(_set_draws)),
    "restricted-recursion": (restricted_recursion_suite, 40, _restricted_work),
    "theta": (theta_suite, 100, _theta_work),
}


def run_suite(name: str, max_n: int | None = None):
    """Run one named suite; ``max_n`` falls back to the suite default."""
    if name not in SUITES:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(SUITES)}")
    suite, default, _ = SUITES[name]
    return suite(max_n=default if max_n is None else max_n)


def cmd_verify(args) -> int:
    """The ``verify`` command: one line per check, then a summary line; exit 2
    before any work when the suite's price is over the budget."""
    from .cli import UsageError, check_work

    name = args["identity"]
    _, default, price = SUITES[name]
    max_n = default if args["max"] is None else args["max"]
    check_work(f"verify {name} --max {max_n}", price(max_n))
    rows = run_suite(name, max_n)
    if not rows:
        raise UsageError(f"--max {max_n} leaves the {name} suite with no checks")
    failures = 0
    for row in rows:
        status = "pass" if row.ok else "fail"
        print(f"{row.check} n={row.n} {status} lhs={row.lhs} rhs={row.rhs}")
        failures += not row.ok
    print(f"# {name}: {len(rows) - failures}/{len(rows)} checks passed (max {max_n})")
    return 1 if failures else 0
