import random
import time
from fractions import Fraction

import pytest

from bellforge import expand_ratio, spec_from_factors
from bellforge import bellpoly, partfun
from bellforge import series as series_module
from bellforge.partfun import kernel_size, work_estimate
from bellforge.series import TruncatedSeries
from bellforge.supports import Factor, ProductSpec, SupportSet, ratio, scaled_factors, unscale
from bellforge.verify import CHAN_QUOTIENT, KIM_QUOTIENT, random_product_spec, random_support
from reference import exp_log_expand, log_weight_table, negated, partition_power_sum
from test_errata import errata_specs

F = Fraction


def series(*coeffs):
    return TruncatedSeries([F(c) for c in coeffs])


def test_mul_examples():
    assert series(1, 1, 0, 0).mul(series(1, -1, 0, 0)) == series(1, 0, -1, 0)
    zero = TruncatedSeries.constant(0, 3)
    assert series(1, 2, 3, 4).mul(zero) == zero
    assert series(1, 1, 1).mul(series(1, 1, 0)) == series(1, 2, 2)


def test_mul_rejects_order_mismatch():
    with pytest.raises(ValueError):
        series(1, 2).mul(series(1, 2, 3))


def test_reciprocal_examples():
    assert series(1, -1, 0, 0, 0, 0).reciprocal() == series(1, 1, 1, 1, 1, 1)
    assert TruncatedSeries.constant(2, 3).reciprocal() == TruncatedSeries.constant(F(1, 2), 3)
    # (1-t)(1-t^2) truncated at 4, reciprocal: counts of partitions into parts 1, 2
    product = series(1, -1, -1, 1, 0)
    assert product.reciprocal() == series(1, 1, 2, 2, 3)
    with pytest.raises(ValueError):
        series(0, 1).reciprocal()


def test_log_examples():
    assert TruncatedSeries.constant(1, 4).log() == TruncatedSeries.constant(0, 4)
    geometric = series(1, -1, 0, 0, 0).reciprocal()
    assert geometric.log() == series(0, 1, F(1, 2), F(1, 3), F(1, 4))
    assert series(1, -1, 0, 0).log() == series(0, -1, F(-1, 2), F(-1, 3))
    with pytest.raises(ValueError):
        series(2, 1).log()


def test_exp_examples():
    assert TruncatedSeries.constant(0, 3).exp() == TruncatedSeries.constant(1, 3)
    assert series(0, 1, 0, 0).exp() == series(1, 1, F(1, 2), F(1, 6))
    with pytest.raises(ValueError):
        series(1, 0).exp()


def test_exp_log_roundtrips():
    rng = random.Random(7)
    for _ in range(25):
        order = rng.randint(0, 12)
        u = TruncatedSeries(
            [F(1)] + [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order)]
        )
        assert u.log().exp() == u
        v = TruncatedSeries(
            [F(0)] + [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order)]
        )
        assert v.exp().log() == v


def test_int_pow_examples():
    u = series(1, 2, 3, 4)
    assert u.int_pow(0) == TruncatedSeries.constant(1, 3)
    one_minus_t = series(1, -1, 0, 0)
    assert one_minus_t.int_pow(-2) == series(1, 2, 3, 4)
    assert one_minus_t.int_pow(3) == series(1, -3, 3, -1)
    with pytest.raises(ValueError):
        series(0, 1).int_pow(-1)


def test_mul_commutative_associative_random():
    rng = random.Random(11)
    for _ in range(20):
        order = rng.randint(0, 10)
        mk = lambda: TruncatedSeries(
            [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order + 1)]
        )
        u, v, w = mk(), mk(), mk()
        assert u.mul(v) == v.mul(u)
        assert u.mul(v).mul(w) == u.mul(v.mul(w))


def test_reciprocal_inverts_random():
    rng = random.Random(13)
    one = TruncatedSeries.constant(1, 16)
    for _ in range(15):
        u = TruncatedSeries(
            [F(rng.choice([1, 2, -1, 3]))]
            + [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(16)]
        )
        assert u.mul(u.reciprocal()) == one


def test_expand_product_examples():
    all_nat = SupportSet.all_naturals()
    euler = unscale(*expand_ratio(spec_from_factors((all_nat, 1, 1)), 7))
    assert euler == [1, -1, -1, 0, 0, 1, 0, 1]
    inv = unscale(*expand_ratio(spec_from_factors((all_nat, 1, -1)), 5))
    assert inv == [1, 1, 2, 3, 5, 7]
    single = unscale(*expand_ratio(spec_from_factors((SupportSet.finite([2]), 1, 1)), 4))
    assert single == [1, 0, -1, 0, 0]
    assert all(isinstance(c, Fraction) for c in euler + inv + single)


def test_expand_product_skips_large_support_members():
    spec = spec_from_factors((SupportSet.finite([3, 9]), 1, 1))
    assert unscale(*expand_ratio(spec, 4)) == [1, 0, 0, -1, 0]


def test_expand_matches_exp_log_route():
    rng = random.Random(17)
    kinds = ["all", "multiples", "finite"]
    for _ in range(15):
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(kinds)
            if kind == "all":
                support = SupportSet.all_naturals()
            elif kind == "multiples":
                support = SupportSet.multiples_of(rng.randint(1, 4))
            else:
                support = SupportSet.finite(rng.sample(range(1, 7), rng.randint(1, 3)))
            z = rng.choice([F(1), F(-1), F(1, 2), F(2)])
            a = rng.choice([-3, -2, -1, 1, 2, 3])
            factors.append(Factor(support, z, a))
        spec = ProductSpec(tuple(factors))
        order = rng.randint(0, 14)
        assert unscale(*expand_ratio(spec, order)) == list(exp_log_expand(spec, order).coeffs)


def test_immutability():
    u = series(1, 2)
    with pytest.raises(AttributeError):
        u.coeffs = ()


def test_series_keeps_the_route_and_the_traced_methods_only():
    # the benchmark's tracer wraps mul, reciprocal, log, exp and int_pow by name (its METHODS)
    public = {name for name in dir(series(1)) if not name.startswith("_")}
    assert public == {"coeffs", "order", "constant", "mul", "reciprocal", "log", "exp", "int_pow"}
    defined = {
        name for name, value in vars(series_module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == series_module.__name__
    }
    assert defined == {"TruncatedSeries", "expand_ratio", "kernel_steps"}


# --- integer kernel against the Fraction methods ---------------------------

KERNEL_ORDER = 25


def fraction_product(spec, order):
    """The product by ``TruncatedSeries`` arithmetic alone: one binomial per
    support member, raised with ``int_pow`` (``reciprocal`` for a < 0)."""
    total = TruncatedSeries.constant(1, order)
    for factor in spec.factors:
        for m in factor.support.members_up_to(order):
            binom = [F(1)] + [F(0)] * order
            binom[m] = -factor.z
            total = total.mul(TruncatedSeries(binom).int_pow(factor.a))
    return total


def fraction_ratio(numer, denom, order):
    out = TruncatedSeries.constant(1, order)
    if denom is not None:
        out = fraction_product(denom, order).reciprocal()
    if numer is not None:
        out = fraction_product(numer, order).mul(out)
    return out


def kernel_specs():
    rng = random.Random(2311)
    specs = [random_product_spec(rng) for _ in range(30)]
    assert any(f.a < 0 for spec in specs for f in spec.factors)
    for z in (F(2, 3), F(-2, 5), F(3, 2)):
        specs.append(spec_from_factors((SupportSet.all_naturals(), z, 1)))
        specs.append(spec_from_factors((SupportSet.multiples_of(2), z, -2)))
    specs.append(
        spec_from_factors(
            (SupportSet.all_naturals(), F(2, 3), 1),
            (SupportSet.finite([1, 3]), F(-2, 5), -1),
            (SupportSet.multiples_of(3), F(3, 2), 2),
        )
    )
    return specs


def test_expand_product_matches_fraction_paths():
    for spec in kernel_specs():
        got = TruncatedSeries(unscale(*expand_ratio(spec, KERNEL_ORDER)))
        assert got == fraction_product(spec, KERNEL_ORDER)
        assert got == exp_log_expand(spec, KERNEL_ORDER)


def test_expand_ratio_matches_fraction_path():
    specs = kernel_specs()
    pairs = list(zip(specs[::2], specs[1::2]))
    pairs += [(specs[0], None), (None, specs[1]), (specs[-1], None), (None, specs[-1])]
    for numer, denom in pairs:
        for order in (0, 1, 7, KERNEL_ORDER):
            want = fraction_ratio(numer, denom, order)
            assert unscale(*expand_ratio(ratio(numer, denom), order)) == list(want.coeffs)
            if denom is not None:
                inverse = exp_log_expand(negated(denom), order)
                top = TruncatedSeries.constant(1, order)
                if numer is not None:
                    top = exp_log_expand(numer, order)
                assert want == top.mul(inverse)
    for order in (0, 5):
        assert unscale(*expand_ratio(None, order)) == [1] + [0] * order


def test_ratio_series_matches_fraction_path():
    specs = kernel_specs()
    for numer, denom in ((specs[-1], specs[30]), (specs[-1], None), (None, specs[-1])):
        series = unscale(*expand_ratio(ratio(numer, denom), KERNEL_ORDER))
        assert series == list(fraction_ratio(numer, denom, KERNEL_ORDER).coeffs)
    # one merged fold against the reciprocal and Cauchy product of the two sides
    rng = random.Random(1931)
    for _ in range(200):
        numer = random_product_spec(rng) if rng.randrange(4) else None
        denom = random_product_spec(rng) if rng.randrange(4) else None
        order = rng.randint(0, 30)
        want = fraction_ratio(numer, denom, order)
        got = unscale(*expand_ratio(ratio(numer, denom), order))
        assert got == list(want.coeffs), (numer, denom, order)


def dense_ratio(numer, denom, order):
    """``expand_ratio`` with every factor on ``_fold_binomial``, one fold per
    support member: the reference for the q-series pass."""
    from bellforge import series

    scale, _, factors = scaled_factors(ratio(numer, denom))
    cs = [1] + [0] * order
    for support, z, a in factors:
        for m in support.members_up_to(order):
            series._fold_binomial(cs, z * scale ** (m - 1), m, a)
    return unscale(cs, scale)


FAMILY_Z = (1, -1, 2, -3, F(1, 2), F(-5, 3), F(7, 2))


def family_ratio(rng, order):
    """One to three families on the multiples of ``r`` (``r > order`` one time in
    five), ``z`` from :data:`FAMILY_Z` and both signs of ``a``, spread over the two
    sides, beside a random factor one time in two."""
    sides = [[], []]
    for _ in range(rng.randint(1, 3)):
        r = rng.randint(order + 1, order + 3) if rng.randrange(5) == 0 else rng.randint(1, 6)
        factor = Factor(SupportSet.multiples_of(r), rng.choice(FAMILY_Z), rng.choice((-4, -2, -1, 1, 2, 3)))
        sides[rng.randrange(2)].append(factor)
    if rng.randrange(2):
        z = rng.choice((F(2, 3), F(-1, 2), F(3, 5), F(-4, 7)))
        sides[rng.randrange(2)].append(Factor(random_support(rng), z, rng.choice((-2, -1, 1, 2))))
    return tuple(ProductSpec(tuple(side)) if side else None for side in sides)


def test_q_series_pass_matches_the_binomial_folds():
    # Euler's (a > 0) and Cauchy's (a < 0) sums against one binomial fold per member:
    # every z of FAMILY_Z, r > order too, up to order 300
    rng = random.Random(2207)
    for case in range(60):
        order = 300 if case < 4 else rng.randint(0, 120)
        numer, denom = family_ratio(rng, order)
        got = unscale(*expand_ratio(ratio(numer, denom), order))
        assert got == dense_ratio(numer, denom, order), case
    for z in FAMILY_Z:
        for a in (1, -1):
            family = spec_from_factors((SupportSet.all_naturals(), z, a))
            assert unscale(*expand_ratio(family, 200)) == dense_ratio(family, None, 200), (z, a)


class CountingList(list):
    """A coefficient list that counts the fold loop's visits (writes) and the
    term products behind them (reads, less the one ``+=`` read per write)."""

    def __init__(self, values):
        super().__init__(values)
        self.reads = self.writes = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __setitem__(self, i, value):
        self.writes += 1
        super().__setitem__(i, value)


class CountingInt(int):
    """An integer that counts the products it takes part in, and whose sums
    and products are again counting integers."""

    products = 0

    def __mul__(self, other):
        CountingInt.products += 1
        return CountingInt(int(self) * other)

    __rmul__ = __mul__

    def __add__(self, other):
        return CountingInt(int(self) + other)

    __radd__ = __add__


def q_series_products(r, a, n):
    """Products of one q-series pass to order ``n``, term by term: ``T_k`` starts
    at ``s^e`` and has ``n - e + 1`` coefficients, each taking one product for
    its monomial and one for each of the one (``a > 0``) or two divisions by
    ``1 - c s^(rk)`` that reaches it."""
    total, e = 0, 0
    for k in range(1, n // r + 1):
        e += r * k if a > 0 else r * (2 * k - 1)
        if e > n:
            break
        total += (n - e + 1) + (1 if a > 0 else 2) * max(0, n - e + 1 - r * k)
    return total


def test_kernel_size_counts_the_fold_passes_that_run(monkeypatch):
    from bellforge import series

    folded = []
    fold, family = series._fold_binomial, series._fold_family

    def counting_fold(cs, k, m, a):
        # a pass reads cs[i - m] once on each i >= m and multiplies it in
        counted = CountingList(cs)
        fold(counted, k, m, a)
        cs[:] = counted
        assert counted.reads - counted.writes == abs(a) * (len(cs) - m)
        folded.append(counted.reads - counted.writes)

    def counting_family(cs, scale, r, z, a):
        # every product of a coefficient, in the monomials and in the divisions
        counted = [CountingInt(c) for c in cs]
        CountingInt.products = 0
        family(counted, scale, r, z, a)
        cs[:] = map(int, counted)
        assert CountingInt.products == (abs(a) * q_series_products(r, a, len(cs) - 1) if z else 0)
        folded.append(CountingInt.products)

    def counting_root(g, q):
        # one product per term of q n F_n = sum_{k=1..n} ..., for n = 1..order
        folded.append(len(g) * (len(g) - 1) // 2)
        return root(g, q)

    root = series._root
    monkeypatch.setattr(series, "_fold_binomial", counting_fold)
    monkeypatch.setattr(series, "_fold_family", counting_family)
    monkeypatch.setattr(series, "_root", counting_root)
    specs = kernel_specs()
    pairs = [(specs[0], specs[1]), (specs[2], None), (None, specs[3]), (None, None)]
    pairs += [(specs[-1], specs[30]), (None, spec_from_factors((SupportSet.multiples_of(7), 1, 3)))]
    pairs += [(KIM_QUOTIENT, None), (partfun.SEQUENCES["p"], None)]
    pairs += [(spec_from_factors((SupportSet.multiples_of(3), 1, -2)), specs[-1])]
    pairs += [(None, spec_from_factors((SupportSet.multiples_of(r), 1, a))) for r in (13, 40) for a in (-2, 5)]
    pairs += [family_ratio(random.Random(seed), 40) for seed in range(8)]
    # a z = 0 factor is 1: it runs nothing and costs nothing
    pairs += [(spec_from_factors((SupportSet.all_naturals(), 0, 3), (SupportSet.finite([1, 2]), 0, -2)), None)]
    # rational exponents: |q a| passes per factor and the root's products
    pairs += [(rational_spec(random.Random(seed)), rational_spec(random.Random(seed + 1))) for seed in (5, 9)]
    pairs += [(errata_spec, None) for errata_spec in errata_specs()[6:8]]
    for numer, denom in pairs:
        for order in (0, 1, 6, 13, 40, 117):
            folded.clear()
            expand_ratio(ratio(numer, denom), order)
            assert kernel_size("series", ratio(numer, denom), order)[0] == sum(folded)


def test_a_family_with_no_term_up_to_the_order_does_nothing():
    # r > n or z = 0: no pass runs, however large |a|, and none is priced
    families = [
        spec_from_factors((SupportSet.multiples_of(2000), 1, 10**8)),
        spec_from_factors((SupportSet.all_naturals(), 0, 10**8)),
        spec_from_factors((SupportSet.multiples_of(1001), F(-5, 3), 10**8)),
    ]
    for family in families:
        for numer, denom in ((None, family), (family, None)):
            start = time.perf_counter()
            assert unscale(*expand_ratio(ratio(numer, denom), 1000)) == [1] + [0] * 1000
            assert time.perf_counter() - start < 1.0
            assert kernel_size("series", ratio(numer, denom), 1000)[0] == 0


def test_kernel_size_is_closed_form_for_infinite_supports():
    # the q-series pass, term by term, whatever z is: O(sqrt(n / r)) terms
    for r, order in ((1, 10**10), (7, 10**11), (5, 10**9 + 3)):
        for z, a in ((1, -3), (-1, -3), (F(2, 3), 2), (-5, 1)):
            family = spec_from_factors((SupportSet.multiples_of(r), z, a))
            want = abs(a) * q_series_products(r, a, order)
            assert kernel_size("series", family, order)[0] == want
    spec = spec_from_factors((SupportSet.all_naturals(), -1, -3), (SupportSet.multiples_of(5), 2, 1))
    order = 10**12
    assert kernel_size("faa", spec, order)[0] >= order * (order + 1) // 2
    assert work_estimate("faa", spec, order) > work_estimate("faa", spec, order - 1)
    with pytest.raises(ValueError):
        kernel_size("dfs", spec, 3)


def test_prices_are_pinned_to_exact_units():
    # each route's closed forms, to the unit, on both routes: q = 1 and q > 1 (an errata
    # spec, a 1/7 root), orders 0, 1, 60 and 10^12, a z = 0 family and one with r > n at
    # a = 10^8, a finite support and a 98-digit z denominator
    every, P = SupportSet.all_naturals(), partfun.SEQUENCES["p"]
    KIM, ERRATA = KIM_QUOTIENT, errata_specs()[6]
    ROOT = spec_from_factors((every, F(-5, 3), F(1, 7)))
    ZERO = spec_from_factors((every, 0, 10**8))
    FAR = spec_from_factors((SupportSet.multiples_of(2000), 1, 10**8))
    FIN = spec_from_factors((SupportSet.finite([1, 3, 7]), F(-2, 3), -5))
    WIDE = spec_from_factors((every, F(1, 10**98 - 1), 1))
    assert scaled_factors(ERRATA)[1] == 2
    pins = [
        ("faa", P, 0, 1),
        ("series", P, 0, 1),
        ("faa", P, 1, 4),
        ("series", P, 60, 1563),
        ("faa", P, 10**12, 6978672984394521672706485499161),
        ("series", P, 10**12, 27918017527720236855947750),
        ("faa", KIM, 60, 13753),
        ("series", KIM, 2000, 114782448),
        ("faa", ERRATA, 60, 30800),
        ("series", ERRATA, 60, 134433),
        ("faa", ratio(None, ROOT), 1, 6),
        ("series", ratio(None, ROOT), 10**12, 21838767487536572365666927091906480653780),
        ("faa", ZERO, 10**12, 6978481474402062891833711997325585938),
        ("series", ZERO, 10**12, 336037598888421976227794335938),
        ("series", ratio(None, FAR), 1000, 175631721),
        ("faa", ratio(None, FAR), 1000, 4466356636),
        ("faa", FIN, 60, 13761),
        ("series", ratio(None, FIN), 60, 6601),
        ("faa", ratio(None, WIDE), 60, 17499681),
        ("series", ratio(None, WIDE), 1, 92),
    ]
    for route, spec, n, units in pins:
        assert work_estimate(route, spec, n) == units, (route, spec, n)


def probe_pairs():
    """Ratios to check the estimate on, with the largest order to check: the
    kernel specs paired up, the named products and large-operand probes
    (rational z of the benchmark's shape, a 98-digit z denominator, z = 10^6
    and z = 10^4000)."""
    specs = kernel_specs()
    pairs = list(zip(specs[::2], specs[1::2])) + [(None, s) for s in specs[:30:3]]
    pairs += [(s, None) for s in specs[1:30:3]]
    pairs += [(spec, None) for spec in partfun.SEQUENCES.values() if spec is not None]
    pairs += [(CHAN_QUOTIENT, None), (KIM_QUOTIENT, None)]
    rational_z = spec_from_factors(
        (SupportSet.all_naturals(), F(2, 3), 2), (SupportSet.multiples_of(2), F(-2, 5), 1)
    )
    pairs.append((spec_from_factors((SupportSet.multiples_of(2), F(3, 4), 2)), rational_z))
    pairs = [(numer, denom, 30) for numer, denom in pairs]
    for z, top in ((F(1, 10**98 - 1), 30), (F(10**6), 30), (F(10**4000), 7)):
        pairs.append((None, spec_from_factors((SupportSet.all_naturals(), z, 1)), top))
        pairs.append((None, spec_from_factors((SupportSet.finite([1]), z, 1)), top))
    return pairs


def test_kernel_size_bounds_the_closed_sum_terms(monkeypatch):
    terms = []
    extend = bellpoly.bell_extend

    def counting_extend(coeffs, weights, n):
        terms.append(sum(range(len(coeffs), n + 1)))
        extend(coeffs, weights, n)

    monkeypatch.setattr(bellpoly, "bell_extend", counting_extend)
    for numer, denom, top in probe_pairs():
        for order in (0, 1, 2, 7, top):
            terms.clear()
            bellpoly.ratio_coefficients(ratio(numer, denom), order)
            assert sum(terms) == order * (order + 1) // 2
            assert kernel_size("faa", ratio(numer, denom), order)[0] >= sum(terms)


def test_kernel_size_bounds_the_bits_of_every_integer(monkeypatch):
    from bellforge import series

    seen = []
    fold, divide = series._fold_binomial, series._divide
    extend = bellpoly.bell_extend

    def record(values):
        seen.append(max(abs(v) for v in values).bit_length())
        return values

    def recording_fold(cs, k, m, a):
        fold(cs, k, m, a)
        record(cs + [k])

    monkeypatch.setattr(series, "_fold_binomial", recording_fold)

    def recording_divide(cs, b, d):
        # each T_k of the q-series pass as its monomial leaves it, and divided
        record(cs + [b])
        divide(cs, b, d)
        record(cs)

    monkeypatch.setattr(series, "_divide", recording_divide)

    class RunningSums(list):
        # the pass adds each T_k into the coefficient list by one slice assignment
        def __setitem__(self, i, values):
            super().__setitem__(i, record(list(values)))

    def recording_family(cs, scale, r, z, a):
        sums = RunningSums(cs)
        family(sums, scale, r, z, a)
        cs[:] = sums

    family = series._fold_family
    monkeypatch.setattr(series, "_fold_family", recording_family)

    def recording_extend(coeffs, weights, n):
        extend(coeffs, weights, n)
        record(weights + coeffs)

    monkeypatch.setattr(bellpoly, "bell_extend", recording_extend)

    def recording_root(g, q):
        # every partial sum of q n F_n = sum_{k=1..n} ((q+1)k - q n) q^(2k) g_k F_(n-k)
        f = root(g, q)
        h = [0] + [q ** (2 * k) * g[k] for k in range(1, len(g))]
        for n in range(1, len(g)):
            partial = 0
            for k in range(1, n + 1):
                partial += ((q + 1) * k - q * n) * h[k] * f[n - k]
                record([partial, h[k]])
        return record(f)

    root = series._root
    monkeypatch.setattr(series, "_root", recording_root)
    for numer, denom, top in probe_pairs() + large_size_pairs() + rational_pairs() + family_pairs():
        # the series route folds one pass per unit of |a|
        size = sum(abs(f.a) for side in (numer, denom) if side is not None for f in side.factors)
        for order in (0, 1, 2, 7, top):
            bits = kernel_size("faa", ratio(numer, denom), order)[1]
            assert bits == kernel_size("series", ratio(numer, denom), order)[1]
            seen.clear()
            if size <= 1000:
                expand_ratio(ratio(numer, denom), order)
            bellpoly.ratio_coefficients(ratio(numer, denom), order)
            assert max(seen) <= bits, (numer, denom, order)


def family_pairs():
    """Seeded ratios of families with every z of :data:`FAMILY_Z`, to order 60."""
    rng = random.Random(2719)
    return [(*family_ratio(rng, 60), 60) for _ in range(40)]


def rational_pairs():
    """Ratios with rational exponents: seeded draws, large ``z``, a large ``S``,
    and the errata table's eleven specs, with the largest order to check."""
    rng = random.Random(4133)
    pairs = [(rational_spec(rng), rational_spec(rng) if rng.randrange(2) else None, 30) for _ in range(12)]
    for z in (F(1, 10**30 - 1), F(10**6), F(-5, 3)):
        pairs.append((None, spec_from_factors((SupportSet.all_naturals(), z, F(1, 7))), 30))
        pairs.append((spec_from_factors((SupportSet.finite([1, 2]), z, F(-5, 2))), None, 30))
    pairs.append((spec_from_factors((SupportSet.finite([1]), 1, F(2 * 10**5 + 1, 2))), None, 50))
    for a in (F(1, 8), F(-1, 9), F(5, 12)):
        pairs.append((spec_from_factors((SupportSet.all_naturals(), F(-7, 12), a)), None, 60))
        two = spec_from_factors((SupportSet.finite([1, 3]), F(3, 8), -a), (SupportSet.multiples_of(2), 2, a))
        pairs.append((None, two, 60))
    return pairs + [(spec, None, 60) for spec in errata_specs()]


def large_size_pairs():
    """Ratios whose ``S = sum |a|`` is large against the order (up to 10^8 at
    order 50), where ``B`` takes ``n log2 S + 3.71 sqrt n`` for the count."""
    pairs = []
    for a in (10**3, -(10**3), 10**5, 10**8, -(10**8)):
        for support, z in (
            (SupportSet.finite([1]), F(1)),
            (SupportSet.finite([1, 3]), F(-2, 3)),
            (SupportSet.all_naturals(), F(1)),
        ):
            spec = spec_from_factors((support, z, a))
            pairs += [(spec, None, 50), (None, spec, 50)]
    big = spec_from_factors((SupportSet.finite([1]), 1, 10**8))
    pairs.append((big, spec_from_factors((SupportSet.multiples_of(2), F(1, 2), 10**5)), 50))
    return pairs


# 1/8, -1/9 and 5/12 put prime powers p^e, e >= 2, into q; 1/2 leaves the scale the
# least room, as binom(1/2, j) 4^j has only as many factors 2 as j has binary ones
RATIONAL_EXPONENTS = (
    F(1, 2), F(-1, 2), F(-3, 4), F(2, 3), F(-5, 2), F(1, 7), F(1, 8), F(-1, 9), F(5, 12), 1, -1, 2, -3
)
RATIONAL_Z = (1, -1, F(1, 2), 2, F(-5, 3), F(3, 8), F(-2, 9), F(7, 12))


def rational_spec(rng):
    """Up to three factors on all, multiples and finite supports, with z from
    :data:`RATIONAL_Z` and exponents from :data:`RATIONAL_EXPONENTS`."""
    return ProductSpec(tuple(
        Factor(random_support(rng), rng.choice(RATIONAL_Z), rng.choice(RATIONAL_EXPONENTS))
        for _ in range(rng.randint(1, 3))
    ))


def test_rational_exponents_agree_on_both_routes_and_the_literal_sum():
    # expand_ratio's q-th root, the closed sum on (L q^2)^n and exp_log_expand's Fraction
    # logarithms agree; up to n = 12 all three are the literal partition sum
    rng = random.Random(2611)
    for case in range(100):
        numer = rational_spec(rng) if rng.randrange(4) else None
        denom = rational_spec(rng) if rng.randrange(4) else None
        order = rng.randint(*((0, 12) if case < 40 else (13, 30) if case < 80 else (31, 120)))
        pair = expand_ratio(ratio(numer, denom), order)
        assert bellpoly.ratio_coefficients(ratio(numer, denom), order) == pair, (numer, denom, order)
        got = unscale(*pair)
        factors = (numer.factors if numer else ()) + (negated(denom).factors if denom else ())
        if factors:
            assert list(exp_log_expand(ProductSpec(factors), order).coeffs) == got
        if order <= 12 and factors:
            weights = log_weight_table(ProductSpec(factors), order)
            assert got == [partition_power_sum(n, weights) for n in range(order + 1)]
    half = spec_from_factors((SupportSet.finite([1]), 1, F(1, 2)))
    sqrt_1_minus_t = [1, F(-1, 2), F(-1, 8), F(-1, 16), F(-5, 128), F(-7, 256), F(-21, 1024)]
    assert expand_ratio(half, 6) == bellpoly.ratio_coefficients(half, 6)
    assert unscale(*expand_ratio(half, 6)) == sqrt_1_minus_t


def test_floats_and_bools_are_rejected_not_coerced():
    u = series(1, 2)
    for call in (
        lambda: TruncatedSeries([0.5]),
        lambda: TruncatedSeries([1, 0.5]),
        lambda: TruncatedSeries([True]),
        lambda: TruncatedSeries.constant(0.5, 2),
        lambda: TruncatedSeries.constant(False, 2),
        lambda: u.int_pow(True),
        lambda: u.int_pow(2.0),
    ):
        with pytest.raises(TypeError):
            call()
    assert TruncatedSeries([1, F(1, 2)]) == series(1, F(1, 2))
    assert u.int_pow(1) == u
