"""Identity suites: every checkable exact identity, as verdict lists.

Each suite returns :class:`IdentityReport` rows (one per checked instance)
so the CLI can print per-``n`` verdicts and the tests can assert them.
Randomized suites draw from a fixed documented family with a fixed default
seed, keeping output byte-stable across runs.  The single-instance checks
(additivity over exponents and over supports, the restricted-count
recursion) live here as well, so a closed-sum request never compiles them.
Each suite is its plan at ``--max N`` (:func:`_plan`): :func:`run_suite`, like
the CLI after pricing it, evaluates its requests and hands the prefixes to its
check.  Convolutions run on the routes' integers ``c_m S^m``, each at its scale ``S``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import isqrt
from operator import mul

from .arith import require_natural
from .partfun import (
    CHAN_DENOMINATOR,
    CHAN_NUMERATOR,
    KIM_DENOMINATOR,
    KIM_NUMERATOR,
    PARTITION_PRODUCT,
    SEQUENCES,
    prefixes,
    restricted_product,
    sequence,
)
from .supports import Factor, ProductSpec, Record, SupportSet, unscale

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


def _plan(instances, extra: int = 0):
    """The plan ``(requests, copies, extra, check)`` of ``instances``, pairs ``(requests, rows)``:
    their requests, each priced once, and a check handing each ``rows`` its own prefixes."""
    instances = list(instances)
    requests = [request for own, _ in instances for request in own]
    def check(*columns):
        it = iter(columns)
        return [row for own, rows in instances for row in rows(*(next(it) for _ in own))]
    return requests, [1] * len(requests), extra, check


def index_additivity_report(n, base, a_index, b_index) -> IdentityReport:
    """Check that coefficients for exponent vector ``a + b`` equal the
    convolution of the coefficients for ``a`` and for ``b``, over the same
    (support, z) families.

    ``base`` is a sequence of (support, z) pairs; ``a_index``/``b_index``
    are equal-length vectors of exponents, each a nonzero ``int`` or
    ``Fraction``.  Combined exponents that cancel to zero simply drop their
    factor.
    """
    requests, rows = _additivity("additivity-index", n, *_index_specs(base, a_index, b_index))
    return rows(*prefixes(requests))[0]


def set_additivity_report(n, spec_a: ProductSpec, spec_b: ProductSpec) -> IdentityReport:
    """Check that coefficients of the merged factor list equal the
    convolution of the two sides' coefficients."""
    for name, spec in (("spec_a", spec_a), ("spec_b", spec_b)):
        if not isinstance(spec, ProductSpec):
            raise TypeError(f"{name} must be a ProductSpec, got {spec!r}")
    merged = ProductSpec(spec_a.factors + spec_b.factors)
    requests, rows = _additivity("additivity-set", n, merged, spec_a, spec_b)
    return rows(*prefixes(requests))[0]


def _index_specs(base, a_index, b_index):
    """The specs of ``a + b`` (``None`` if every exponent cancels), ``a`` and ``b``."""
    base = list(base)
    if not (len(base) == len(a_index) == len(b_index)):
        raise ValueError("index vectors must match the factor family")
    spec_a = ProductSpec(tuple(Factor(s, z, a) for (s, z), a in zip(base, a_index)))
    spec_b = ProductSpec(tuple(Factor(s, z, b) for (s, z), b in zip(base, b_index)))
    combined = tuple(Factor(s, z, a + b) for (s, z), a, b in zip(base, a_index, b_index) if a + b)
    return ProductSpec(combined) if combined else None, spec_a, spec_b


def _additivity(check, n, combined, spec_a, spec_b):
    """Coefficient ``n`` of ``combined`` against the convolution of those of ``spec_a``
    and ``spec_b``, from their integers ``u_k = s^k a_k`` and ``v_k = t^k b_k`` as
    ``sum_k u_k t^k v_(n-k) s^(n-k) / (s t)^n``: the row compares the values that it prints."""
    require_natural(n)
    def rows(whole, u, v):
        (whole, r), (u, s), (v, t) = whole, u, v
        conv = sum(u[k] * t**k * v[n - k] * s ** (n - k) for k in range(n + 1))
        lhs, rhs = Fraction(whole[n], r**n), Fraction(conv, (s * t) ** n)
        return [IdentityReport(check, n, lhs == rhs, str(lhs), str(rhs))]
    return [("faa", spec, None, n) for spec in (combined, spec_a, spec_b)], rows


def restricted_recursion_report(n: int, parts) -> IdentityReport:
    """Check ``W(n, parts) - W(n - last, parts) == W(n, parts-without-last)``
    exactly, counting ``W`` at negative arguments as 0."""
    require_natural(n)
    parts = list(parts)
    if len(parts) < 2:
        raise ValueError("the recursion needs at least two parts")
    requests, rows = _restricted(n, parts)
    return rows(*prefixes(requests))[0]


def _restricted(n: int, parts: list[int]):
    """``W`` with and without the last part, both on the series route."""
    def rows(counts, rest):
        (counts, _), (rest, _) = counts, rest
        full, shifted = counts[n], counts[n - parts[-1]] if n >= parts[-1] else 0
        lhs, rhs = full - shifted, rest[n]
        check = "restricted-recursion"
        return [IdentityReport(check, n, lhs == rhs, f"{full}-{shifted}={lhs}", str(rhs))]
    return [("series", None, restricted_product(p), n) for p in (parts, parts[:-1])], rows


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
    sequence: ``sum_k P_k W_{n-k} == [n == 0]``, for each of ``SPEC_COUNT``
    random specs.  Each product prefix is priced twice: once more for the
    ``n (n + 1) / 2`` products of its convolutions."""
    require_natural(max_n, "max_n")
    rng = random.Random(seed)
    specs = [random_product_spec(rng) for _ in range(SPEC_COUNT)]
    instances = [_reciprocal(f"reciprocal#{i:02d}", spec, max_n) for i, spec in enumerate(specs)]
    requests, _, extra, check = _plan(instances)
    return requests, [2, 1] * SPEC_COUNT, extra, check


def _reciprocal(check: str, spec: ProductSpec, top: int):
    def rows(prods, recips):
        # f and 1/f scale by the same L q^2, so their integers convolve as they are
        (prods, scale), (recips, _) = prods, recips
        convs = [sum(map(mul, prods[: n + 1], recips[n::-1])) for n in range(top + 1)]
        pairs = enumerate(zip(unscale(convs, scale), [1] + [0] * top))
        return [IdentityReport(check, n, c == u, str(c), str(u)) for n, (c, u) in pairs]
    return [("faa", spec, None, top), ("faa", None, spec, top)], rows


def euler_suite(max_n: int):
    """Triple agreement for p(n): closed sum, series route (on p, Cauchy's
    Durfee-square sum; its column keeps the label ``pentagonal=`` so that the
    output stays byte-stable) and a count of the partition iterator's output.
    The iterator runs once, on ``N = max_n``: adding ``N - n`` ones maps the
    partitions of ``n`` onto those of ``N`` with at least ``N - n`` ones, so
    ``p(n)`` is a running sum of the histogram of ``k_1`` over those of ``N``.
    It yields ``p(N)`` vectors of ``N + 1`` units each; as p increases, the price
    doubles a series-route prefix of p up to the first length past the budget."""
    from .cli import WORK_BUDGET

    require_natural(max_n, "max_n")
    top, enumeration = 0, max_n + 1
    while enumeration <= WORK_BUDGET and top < max_n:
        top = min(2 * top + 1, max_n)
        enumeration = sequence("p", top, "series")[-1] * (max_n + 1)
    def rows(closed_sums, series):
        (closed_sums, _), (series, _) = closed_sums, series
        # the only suite that uses the partition iterator
        from .partitions import iter_partitions

        ones = [0] * (max_n + 1)
        for ks in iter_partitions(max_n):
            ones[ks[0] if ks else 0] += 1
        return [
            IdentityReport("euler", n, c == s == i, f"closed={c};iter={i}", f"pentagonal={s}")
            for n, (c, s, i) in enumerate(zip(closed_sums, series, accumulate(reversed(ones))))
        ]
    routes = [(route, None, PARTITION_PRODUCT, max_n) for route in ("faa", "series")]
    return _plan([(routes, rows)], enumeration)


# units of one divisor trial in sigma, priced at N isqrt(N) trials: 119-205 ns a
# trial against a median 9.7 ns a unit on seven named prefixes (2-vCPU Xeon)
SIGMA_TRIAL_UNITS = 16


def sigma_suite(max_n: int):
    """Divisor enumeration against the prime-factorization formula."""
    require_natural(max_n, "max_n")
    def rows():
        # the only suite that uses the divisor sums
        from .divisors import factorize, sigma, sigma_via_factorization

        checks = ((n, sigma(n), sigma_via_factorization(factorize(n))) for n in range(1, max_n + 1))
        return [IdentityReport("sigma", n, d == f, str(f), str(d)) for n, d, f in checks]
    return _plan([([], rows)], SIGMA_TRIAL_UNITS * max_n * isqrt(max_n))


def _progression(check, name, label, numer, denom, multiple, max_n):
    """``name(3n+2)`` equals ``multiple`` times the ``t^n`` coefficient of
    numer/denom and is divisible by ``multiple``; both sides on the series
    route, each from one prefix."""
    require_natural(max_n, "max_n")
    def rows(counts, quotient):
        (counts, _), (quotient, _) = counts, quotient
        rows = []
        for n in range(max_n + 1):
            lhs, rhs = counts[3 * n + 2], multiple * quotient[n]
            ok = lhs == rhs and lhs % multiple == 0
            shown = f"{label}({3 * n + 2})={lhs}", f"{multiple}*coeff={rhs}"
            rows.append(IdentityReport(check, n, ok, *shown))
        return rows
    requests = [("series", *SEQUENCES[name], 3 * max_n + 2), ("series", numer, denom, max_n)]
    return _plan([(requests, rows)])


def index_additivity_suite(max_n: int, seed: int = DEFAULT_SEED):
    """Adding exponent vectors over a fixed factor family must convolve
    the coefficient sequences: ``INSTANCES`` random pairs, each at a drawn ``n``."""
    require_natural(max_n, "max_n")
    rng = random.Random(seed)
    instances = []
    for _ in range(INSTANCES):
        size = rng.randint(1, 3)
        base = [(random_support(rng), rng.choice(_Z_CHOICES)) for _ in range(size)]
        a_index = [rng.choice(_A_CHOICES) for _ in range(size)]
        b_index = [rng.choice(_A_CHOICES) for _ in range(size)]
        specs = _index_specs(base, a_index, b_index)
        instances.append(_additivity("additivity-index", rng.randint(0, max_n), *specs))
    return _plan(instances)


def set_additivity_suite(max_n: int, seed: int = DEFAULT_SEED):
    """Merging two factor families must convolve the coefficient sequences:
    ``INSTANCES`` random pairs, ``b`` on finite supports in 1..9, each at a drawn ``n``."""
    require_natural(max_n, "max_n")
    rng = random.Random(seed)
    instances = []
    for _ in range(INSTANCES):
        spec_a = random_product_spec(rng)
        count = rng.randint(1, 2)
        # a generator, so that each support is drawn just before its z and a
        finite = (rng.sample(range(1, 10), rng.randint(1, 3)) for _ in range(count))
        spec_b = ProductSpec(tuple(_random_factor(rng, SupportSet.finite(m)) for m in finite))
        merged = ProductSpec(spec_a.factors + spec_b.factors)
        n = rng.randint(0, max_n)
        instances.append(_additivity("additivity-set", n, merged, spec_a, spec_b))
    return _plan(instances)


def restricted_recursion_suite(max_n: int, seed: int = DEFAULT_SEED):
    """Dropping the last allowed part: W(n,d) - W(n-last,d) == W(n,d[:-1]),
    for ``LIST_COUNT`` random parts lists inside 1..8, each at a drawn ``n``."""
    require_natural(max_n, "max_n")
    rng = random.Random(seed)
    instances = []
    for _ in range(LIST_COUNT):
        parts = rng.sample(range(1, 9), rng.randint(2, 5))
        instances.append(_restricted(rng.randint(0, max_n), parts))
    return _plan(instances)


def theta_suite(max_n: int):
    """The two theta quotients, expanded on the series route, must reduce to
    the triangular-number indicator and the doubled square indicator."""
    require_natural(max_n, "max_n")
    def rows(psi, phi):
        (psi, _), (phi, _) = psi, phi
        rows = []
        for n, got in enumerate(psi):
            want = 1 if _is_triangular(n) else 0
            rows.append(IdentityReport("theta-psi", n, got == want, str(got), str(want)))
        for n, got in enumerate(phi):
            want = 1 if n == 0 else 2 if isqrt(n) ** 2 == n else 0
            rows.append(IdentityReport("theta-phi", n, got == want, str(got), str(want)))
        return rows
    requests = [("series", *SEQUENCES[name], max_n) for name in ("psi-star", "phi-star")]
    return _plan([(requests, rows)])


def _is_triangular(n: int) -> bool:
    # n == k(k+1)/2  iff  8n+1 is an odd perfect square
    root = isqrt(8 * n + 1)
    return root * root == 8 * n + 1


# name -> (suite, default --max)
SUITES = {
    "reciprocal": (reciprocal_suite, 20),
    "euler": (euler_suite, 60),
    "sigma": (sigma_suite, 10_000),
    # a(3n+2) equals 3 times Chan's quotient and is divisible by 3; abar(3n+2)
    # equals 6 times Kim's quotient and is divisible by 6
    "chan": (partial(_progression, "chan", "cubic", "a", CHAN_NUMERATOR, CHAN_DENOMINATOR, 3), 20),
    "kim": (partial(_progression, "kim", "overcubic", "abar", KIM_NUMERATOR, KIM_DENOMINATOR, 6), 20),
    "additivity-index": (index_additivity_suite, 12),
    "additivity-set": (set_additivity_suite, 12),
    "restricted-recursion": (restricted_recursion_suite, 40),
    "theta": (theta_suite, 100),
}


def run_suite(name: str, max_n: int | None = None):
    """Run one named suite; ``max_n`` falls back to the suite default."""
    if name not in SUITES:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(SUITES)}")
    suite, default = SUITES[name]
    requests, _, _, check = suite(default if max_n is None else max_n)
    return check(*prefixes(requests))


def plan_verify(args):
    """The ``verify`` command: its suite's plan, reported as one line per check and a summary."""
    from .cli import UsageError

    name = args["identity"]
    suite, default = SUITES[name]
    max_n = default if args["max"] is None else args["max"]
    requests, copies, extra, check = suite(max_n)
    def report(*columns) -> int:
        rows = check(*columns)
        if not rows:
            raise UsageError(f"--max {max_n} leaves the {name} suite with no checks")
        failures = 0
        for row in rows:
            status = "pass" if row.ok else "fail"
            print(f"{row.check} n={row.n} {status} lhs={row.lhs} rhs={row.rhs}")
            failures += not row.ok
        print(f"# {name}: {len(rows) - failures}/{len(rows)} checks passed (max {max_n})")
        return 1 if failures else 0
    return f"verify {name} --max {max_n}", requests, copies, extra, report
