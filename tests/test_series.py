import random
from fractions import Fraction

import pytest

from bellforge import TruncatedSeries, exp_log_expand, expand_ratio, spec_from_factors
from bellforge import bellpoly, partfun
from bellforge.bellpoly import kernel_size, work_estimate
from bellforge.supports import Factor, ProductSpec, SupportSet
from bellforge.verify import random_product_spec

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
    euler = expand_ratio(spec_from_factors((all_nat, 1, 1)), None, 7)
    assert euler == [1, -1, -1, 0, 0, 1, 0, 1]
    inv = expand_ratio(spec_from_factors((all_nat, 1, -1)), None, 5)
    assert inv == [1, 1, 2, 3, 5, 7]
    single = expand_ratio(spec_from_factors((SupportSet.finite([2]), 1, 1)), None, 4)
    assert single == [1, 0, -1, 0, 0]
    assert all(isinstance(c, Fraction) for c in euler + inv + single)


def test_expand_product_skips_large_support_members():
    spec = spec_from_factors((SupportSet.finite([3, 9]), 1, 1))
    assert expand_ratio(spec, None, 4) == [1, 0, 0, -1, 0]


def test_coefficient_accessor():
    geometric = series(1, -1).reciprocal()
    assert TruncatedSeries.constant(1, 0).coefficient(0) == 1
    long_geo = TruncatedSeries([F(1), F(-1)] + [F(0)] * 8).reciprocal()
    assert long_geo.coefficient(9) == 1
    with pytest.raises(ValueError):
        geometric.coefficient(2)


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
        assert expand_ratio(spec, None, order) == list(exp_log_expand(spec, order).coeffs)


def test_truncate():
    u = series(1, 2, 3, 4)
    assert u.truncate(1) == series(1, 2)
    with pytest.raises(ValueError):
        u.truncate(9)


def test_immutability():
    u = series(1, 2)
    with pytest.raises(AttributeError):
        u.coeffs = ()


# --- integer kernel against the Fraction methods ---------------------------

KERNEL_ORDER = 25


def fraction_product(spec, order):
    """The product by ``TruncatedSeries`` arithmetic alone: one binomial per
    support member, raised with ``int_pow`` (``reciprocal`` for a < 0)."""
    total = TruncatedSeries.constant(1, order)
    for factor in spec.factors:
        for m in factor.support.members_up_to(order):
            binom = TruncatedSeries.from_dict({0: 1, m: -factor.z}, order)
            total = total.mul(binom.int_pow(factor.a))
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
        got = TruncatedSeries(expand_ratio(spec, None, KERNEL_ORDER))
        assert got == fraction_product(spec, KERNEL_ORDER)
        assert got == exp_log_expand(spec, KERNEL_ORDER)


def test_expand_ratio_matches_fraction_path():
    specs = kernel_specs()
    pairs = list(zip(specs[::2], specs[1::2]))
    pairs += [(specs[0], None), (None, specs[1]), (specs[-1], None), (None, specs[-1])]
    for numer, denom in pairs:
        for order in (0, 1, 7, KERNEL_ORDER):
            want = fraction_ratio(numer, denom, order)
            assert expand_ratio(numer, denom, order) == list(want.coeffs)
            if denom is not None:
                inverse = exp_log_expand(denom.negated(), order)
                top = TruncatedSeries.constant(1, order)
                if numer is not None:
                    top = exp_log_expand(numer, order)
                assert want == top.mul(inverse)
    for order in (0, 5):
        assert expand_ratio(None, None, order) == [1] + [0] * order


def test_ratio_series_matches_fraction_path():
    specs = kernel_specs()
    for numer, denom in ((specs[-1], specs[30]), (specs[-1], None), (None, specs[-1])):
        series = expand_ratio(numer, denom, KERNEL_ORDER)
        assert series == list(fraction_ratio(numer, denom, KERNEL_ORDER).coeffs)
    # one merged fold against the reciprocal and Cauchy product of the two sides
    rng = random.Random(1931)
    for _ in range(200):
        numer = random_product_spec(rng) if rng.randrange(4) else None
        denom = random_product_spec(rng) if rng.randrange(4) else None
        order = rng.randint(0, 30)
        want = fraction_ratio(numer, denom, order)
        assert expand_ratio(numer, denom, order) == list(want.coeffs), (numer, denom, order)


def test_kernel_size_counts_the_fold_passes_that_run(monkeypatch):
    from bellforge import series

    folded = []
    fold = series._fold_binomial

    def counting_fold(cs, k, m, a):
        folded.append(abs(a) * (len(cs) - m))
        fold(cs, k, m, a)

    monkeypatch.setattr(series, "_fold_binomial", counting_fold)
    specs = kernel_specs()
    pairs = [(specs[0], specs[1]), (specs[2], None), (None, specs[3]), (None, None)]
    pairs += [(specs[-1], specs[30]), (None, spec_from_factors((SupportSet.multiples_of(7), 1, 3)))]
    for numer, denom in pairs:
        for order in (0, 1, 6, 13, 40):
            folded.clear()
            expand_ratio(numer, denom, order)
            assert kernel_size("series", numer, denom, order)[0] == sum(folded)


def test_kernel_size_is_closed_form_for_infinite_supports():
    spec = spec_from_factors((SupportSet.all_naturals(), 1, -3), (SupportSet.multiples_of(5), 2, 1))
    order = 10**12
    k = order // 5
    want = 3 * order * (order + 1) // 2 + (k * (order + 1) - 5 * k * (k + 1) // 2)
    assert kernel_size("series", spec, None, order)[0] == want
    assert kernel_size("faa", spec, None, order)[0] >= order * (order + 1) // 2
    assert work_estimate("faa", spec, None, order) > work_estimate("faa", spec, None, order - 1)
    with pytest.raises(ValueError):
        kernel_size("dfs", spec, None, 3)


def probe_pairs():
    """Ratios to check the estimate on, with the largest order to check: the
    kernel specs paired up, the named products and large-operand probes
    (rational z of the benchmark's shape, a 98-digit z denominator, z = 10^6
    and z = 10^4000)."""
    specs = kernel_specs()
    pairs = list(zip(specs[::2], specs[1::2])) + [(None, s) for s in specs[:30:3]]
    pairs += [(s, None) for s in specs[1:30:3]]
    pairs += [(numer, denom) for numer, denom in partfun.SEQUENCES.values() if denom is not None]
    pairs += [(partfun.CHAN_NUMERATOR, partfun.CHAN_DENOMINATOR)]
    pairs += [(partfun.KIM_NUMERATOR, partfun.KIM_DENOMINATOR)]
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
            bellpoly.ratio_coefficients(numer, denom, order)
            assert sum(terms) == order * (order + 1) // 2
            assert kernel_size("faa", numer, denom, order)[0] >= sum(terms)


def test_kernel_size_bounds_the_bits_of_every_integer(monkeypatch):
    from bellforge import series

    seen = []
    fold = series._fold_binomial
    extend = bellpoly.bell_extend

    def record(values):
        seen.append(max(abs(v) for v in values).bit_length())
        return values

    def recording_fold(cs, k, m, a):
        fold(cs, k, m, a)
        record(cs + [k])

    monkeypatch.setattr(series, "_fold_binomial", recording_fold)

    def recording_extend(coeffs, weights, n):
        extend(coeffs, weights, n)
        record(weights + coeffs)

    monkeypatch.setattr(bellpoly, "bell_extend", recording_extend)
    for numer, denom, top in probe_pairs() + large_size_pairs():
        # the series route folds one pass per unit of |a|
        size = sum(abs(f.a) for side in (numer, denom) if side is not None for f in side.factors)
        for order in (0, 1, 2, 7, top):
            bits = kernel_size("faa", numer, denom, order)[1]
            assert bits == kernel_size("series", numer, denom, order)[1]
            seen.clear()
            if size <= 1000:
                expand_ratio(numer, denom, order)
            bellpoly.ratio_coefficients(numer, denom, order)
            assert max(seen) <= bits, (numer, denom, order)


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


def test_floats_and_bools_are_rejected_not_coerced():
    u = series(1, 2)
    for call in (
        lambda: TruncatedSeries([0.5]),
        lambda: TruncatedSeries([1, 0.5]),
        lambda: TruncatedSeries([True]),
        lambda: TruncatedSeries.constant(0.5, 2),
        lambda: TruncatedSeries.constant(False, 2),
        lambda: TruncatedSeries.from_dict({1: 0.5}, 2),
        lambda: u.scale(0.5),
        lambda: u.scale(True),
        lambda: u.int_pow(True),
        lambda: u.int_pow(2.0),
    ):
        with pytest.raises(TypeError):
            call()
    assert TruncatedSeries([1, F(1, 2)]) == series(1, F(1, 2))
    assert u.scale(F(1, 2)) == series(F(1, 2), 1)
    assert u.int_pow(1) == u
