import random
from fractions import Fraction

import pytest

from bellforge import TruncatedSeries, exp_log_expand, expand_product, spec_from_factors
from bellforge.partfun import ratio_series
from bellforge.series import expand_ratio
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
    euler = expand_product(spec_from_factors((all_nat, 1, 1)), 7)
    assert [int(c) for c in euler.coeffs] == [1, -1, -1, 0, 0, 1, 0, 1]
    inv = expand_product(spec_from_factors((all_nat, 1, -1)), 5)
    assert [int(c) for c in inv.coeffs] == [1, 1, 2, 3, 5, 7]
    single = expand_product(spec_from_factors((SupportSet.finite([2]), 1, 1)), 4)
    assert single == series(1, 0, -1, 0, 0)


def test_expand_product_skips_large_support_members():
    spec = spec_from_factors((SupportSet.finite([3, 9]), 1, 1))
    assert expand_product(spec, 4) == series(1, 0, 0, -1, 0)


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
        assert expand_product(spec, order) == exp_log_expand(spec, order)


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
        out = expand_product(denom, order).reciprocal()
    if numer is not None:
        out = expand_product(numer, order).mul(out)
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
        got = expand_product(spec, KERNEL_ORDER)
        assert got == fraction_product(spec, KERNEL_ORDER)
        assert got == exp_log_expand(spec, KERNEL_ORDER)


def test_expand_ratio_matches_fraction_path():
    specs = kernel_specs()
    pairs = list(zip(specs[::2], specs[1::2]))
    pairs += [(specs[0], None), (None, specs[1]), (specs[-1], None), (None, specs[-1])]
    for numer, denom in pairs:
        for order in (0, 1, 7, KERNEL_ORDER):
            want = fraction_ratio(numer, denom, order)
            assert expand_ratio(numer, denom, order) == want
            if denom is not None:
                inverse = exp_log_expand(denom.negated(), order)
                top = TruncatedSeries.constant(1, order)
                if numer is not None:
                    top = exp_log_expand(numer, order)
                assert want == top.mul(inverse)
    for order in (0, 5):
        assert expand_ratio(None, None, order) == TruncatedSeries.constant(1, order)


def test_ratio_series_matches_fraction_path():
    specs = kernel_specs()
    for numer, denom in ((specs[-1], specs[30]), (specs[-1], None), (None, specs[-1])):
        series = ratio_series(numer, denom, KERNEL_ORDER)
        assert series.truncate(KERNEL_ORDER) == fraction_ratio(numer, denom, KERNEL_ORDER)


def test_ratio_series_regrows_geometrically():
    # a spec no other test uses, so the cache starts empty for it
    numer = spec_from_factors((SupportSet.finite([2, 3]), F(5, 7), 2))
    denom = spec_from_factors((SupportSet.all_naturals(), F(-7, 3), 1))
    first = ratio_series(numer, denom, 5)
    assert first.order == 5
    assert ratio_series(numer, denom, 3) is first
    regrown = ratio_series(numer, denom, 7)
    assert regrown.order == 10
    assert regrown == expand_ratio(numer, denom, 10)
    assert regrown.truncate(7) == expand_ratio(numer, denom, 7)
    assert regrown.truncate(7) == fraction_ratio(numer, denom, 7)
    assert ratio_series(numer, denom, 10) is regrown
    assert ratio_series(numer, denom, 31).order == 31
