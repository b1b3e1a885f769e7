"""Identity suites: every checkable exact identity, as verdict lists.

Each suite returns :class:`IdentityReport` rows (one per checked instance)
so the CLI can print per-``n`` verdicts and the tests can assert them.
Randomized suites draw from a fixed documented family with a fixed default
seed, keeping output byte-stable across runs.  The single-instance checks
(additivity over exponents and over supports, the restricted-count
recursion) live here as well, so a closed-sum request never compiles them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate
from math import isqrt

from .arith import require_natural
from .bellpoly import ratio_coefficients
from .divisors import factorize, sigma, sigma_via_factorization
from .partfun import (
    CHAN_DENOMINATOR,
    CHAN_NUMERATOR,
    KIM_DENOMINATOR,
    KIM_NUMERATOR,
    route_prefix,
    sequence,
)
from .supports import Factor, ProductSpec, Record, SupportSet

DEFAULT_SEED = 1103
# instances per randomized suite: random specs, additivity pairs, parts lists
SPEC_COUNT = 30
INSTANCES = 20
LIST_COUNT = 30

_ZERO = Fraction(0)
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
    require_natural(n)
    base = list(base)
    if not (len(base) == len(a_index) == len(b_index)):
        raise ValueError("index vectors must match the factor family")
    spec_a = ProductSpec(tuple(Factor(s, z, a) for (s, z), a in zip(base, a_index)))
    spec_b = ProductSpec(tuple(Factor(s, z, b) for (s, z), b in zip(base, b_index)))
    combined = tuple(
        Factor(s, z, a + b)
        for (s, z), a, b in zip(base, a_index, b_index)
        if a + b != 0
    )
    lhs = ratio_coefficients(ProductSpec(combined) if combined else None, None, n)[n]
    rhs = _convolve(ratio_coefficients(spec_a, None, n), ratio_coefficients(spec_b, None, n), n)
    return IdentityReport("additivity-index", n, lhs == rhs, str(lhs), str(rhs))


def set_additivity_report(n, spec_a: ProductSpec, spec_b: ProductSpec) -> IdentityReport:
    """Check that coefficients of the merged factor list equal the
    convolution of the two sides' coefficients."""
    require_natural(n)
    lhs = ratio_coefficients(ProductSpec(spec_a.factors + spec_b.factors), None, n)[n]
    rhs = _convolve(ratio_coefficients(spec_a, None, n), ratio_coefficients(spec_b, None, n), n)
    return IdentityReport("additivity-set", n, lhs == rhs, str(lhs), str(rhs))


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
        "restricted-recursion",
        n,
        lhs == rhs,
        f"{full}-{shifted}={lhs}",
        str(rhs),
    )


def _convolve(u, v, n) -> Fraction:
    """Coefficient ``n`` of the Cauchy product of two prefixes."""
    return sum((u[j] * v[n - j] for j in range(n + 1) if u[j]), _ZERO)


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


def reciprocal_suite(max_n: int, seed: int = DEFAULT_SEED):
    """Convolving product and reciprocal coefficients must give the unit
    sequence: ``sum_k P_k W_{n-k} == [n == 0]``."""
    rng = random.Random(seed)
    rows = []
    for i in range(SPEC_COUNT):
        spec = random_product_spec(rng)
        prods = ratio_coefficients(spec, None, max_n)
        recips = ratio_coefficients(None, spec, max_n)
        for n in range(max_n + 1):
            conv = _convolve(prods, recips, n)
            expected = Fraction(1 if n == 0 else 0)
            rows.append(
                IdentityReport(f"reciprocal#{i:02d}", n, conv == expected, str(conv), str(expected))
            )
    return rows


def euler_suite(max_n: int):
    """Triple agreement for p(n): closed sum, pentagonal recurrence, and
    a count of the partition iterator's output.  The iterator runs once, on
    ``N = max_n``: adding ``N - n`` ones maps the partitions of ``n`` onto
    those of ``N`` with at least ``N - n`` ones, so ``p(n)`` is a running
    sum of the histogram of ``k_1`` over the partitions of ``N``."""
    # the only suite that uses the partition iterator
    from .partitions import iter_partitions, pentagonal_values

    closed_sums = sequence("p", max_n, "faa")
    ones = [0] * (max_n + 1)
    for ks in iter_partitions(max_n):
        ones[ks[0] if ks else 0] += 1
    columns = zip(closed_sums, pentagonal_values(max_n), accumulate(reversed(ones)))
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
    require_natural(max_n, "max_n")
    rng = random.Random(seed)
    rows = []
    for _ in range(INSTANCES):
        size = rng.randint(1, 3)
        base = [(random_support(rng), rng.choice(_Z_CHOICES)) for _ in range(size)]
        a_index = [rng.choice(_A_CHOICES) for _ in range(size)]
        b_index = [rng.choice(_A_CHOICES) for _ in range(size)]
        rows.append(index_additivity_report(rng.randint(0, max_n), base, a_index, b_index))
    return rows


def set_additivity_suite(max_n: int, seed: int = DEFAULT_SEED):
    """Merging two factor families must convolve the coefficient sequences."""
    require_natural(max_n, "max_n")
    rng = random.Random(seed)
    rows = []
    for _ in range(INSTANCES):
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


def restricted_recursion_suite(max_n: int, seed: int = DEFAULT_SEED):
    """Dropping the last allowed part: W(n,d) - W(n-last,d) == W(n,d[:-1])."""
    require_natural(max_n, "max_n")
    rng = random.Random(seed)
    rows = []
    for _ in range(LIST_COUNT):
        parts = rng.sample(range(1, 9), rng.randint(2, 5))
        n = rng.randint(0, max_n)
        rows.append(restricted_recursion_report(n, parts))
    return rows


def theta_suite(max_n: int):
    """The two theta quotients, expanded on the series route, must reduce to
    the triangular-number indicator and the doubled square indicator."""
    rows = []
    for n, got in enumerate(sequence("psi-star", max_n, "series")):
        want = 1 if _is_triangular(n) else 0
        rows.append(IdentityReport("theta-psi", n, got == want, str(got), str(want)))
    for n, got in enumerate(sequence("phi-star", max_n, "series")):
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


# name -> (suite, default --max)
SUITES = {
    "reciprocal": (reciprocal_suite, 20),
    "euler": (euler_suite, 60),
    "sigma": (sigma_suite, 10_000),
    "chan": (chan_suite, 20),
    "kim": (kim_suite, 20),
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
    return suite(max_n=default if max_n is None else max_n)


def cmd_verify(args) -> int:
    """The ``verify`` command: one line per check, then a summary line."""
    from .cli import WORK_BUDGET, UsageError, check_work

    name, max_n = args["identity"], args["max"]
    if max_n is None:
        max_n = SUITES[name][1]
    if name == "euler":
        from .partitions import _pentagonal_step

        # p(N) partition vectors of N + 1 units each; p increases, so the walk
        # up the table stops at the first entry past the budget
        table = [1]
        while len(table) <= max_n and table[-1] * (max_n + 1) <= WORK_BUDGET:
            table.append(_pentagonal_step(table))
        check_work(f"verify euler --max {max_n}", table[-1] * (max_n + 1))
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
