import json
from fractions import Fraction

import pytest

from bellforge.specfile import ratio_from_json, spec_to_json, support_from_json, support_to_json
from bellforge.supports import (
    Factor,
    ProductSpec,
    SupportSet,
    ratio,
    scaled_factors,
    spec_from_factors,
    unscale,
)
from reference import negated


def test_support_validation():
    with pytest.raises(ValueError):
        SupportSet.multiples_of(0)
    with pytest.raises(ValueError):
        SupportSet.finite([])
    with pytest.raises(ValueError):
        SupportSet.finite([1, 1])
    with pytest.raises(ValueError):
        SupportSet.finite([0, 3])
    with pytest.raises(ValueError):
        SupportSet("weird")


def test_finite_members_sorted():
    s = SupportSet.finite([5, 2, 9])
    assert s.members == (2, 5, 9)
    assert list(s.members_up_to(6)) == [2, 5]


def test_members_up_to():
    assert list(SupportSet.all_naturals().members_up_to(4)) == [1, 2, 3, 4]
    assert list(SupportSet.multiples_of(3).members_up_to(10)) == [3, 6, 9]


def test_divisors_in():
    assert SupportSet.all_naturals().divisors_in(12) == [1, 2, 3, 4, 6, 12]
    assert SupportSet.multiples_of(2).divisors_in(12) == [2, 4, 6, 12]
    assert SupportSet.finite([3, 5]).divisors_in(12) == [3]


def test_membership_queries_reject_floats_bools_and_out_of_range_bounds():
    naturals, finite = SupportSet.all_naturals(), SupportSet.finite([1, 2])
    for support in (naturals, SupportSet.multiples_of(2), finite):
        for call in (
            lambda: support.divisors_in(4.0),
            lambda: support.divisors_in(True),
            lambda: support.members_up_to(2.5),
            lambda: support.members_up_to(False),
        ):
            with pytest.raises(TypeError):
                call()
        for call in (lambda: support.divisors_in(0), lambda: support.members_up_to(-1)):
            with pytest.raises(ValueError):
                call()
        assert list(support.members_up_to(0)) == []
    assert naturals.divisors_in(4) == [1, 2, 4] and finite.members_up_to(2) == [1, 2]


def test_factor_validation_and_normalization():
    for a in (0, Fraction(0)):
        with pytest.raises(ValueError):
            Factor(SupportSet.all_naturals(), Fraction(1), a)
    f = Factor(SupportSet.all_naturals(), 2, 1)
    assert f.z == Fraction(2)
    assert negated(ProductSpec((f,))) == ProductSpec((Factor(f.support, 2, -1),))


def test_ratio_is_the_numerator_then_the_negated_denominator():
    numer = spec_from_factors((SupportSet.multiples_of(2), Fraction(1, 3), 2))
    denom = spec_from_factors(
        (SupportSet.all_naturals(), 1, Fraction(-3, 4)), (SupportSet.finite([2]), 5, 1)
    )
    assert ratio(numer, denom) == ProductSpec(numer.factors + negated(denom).factors)
    assert ratio(numer, None) == numer and ratio(None, denom) == negated(denom)
    assert ratio(None, None) is None
    # a cancelling ratio keeps both factors: its coefficients are those of 1
    assert len(ratio(numer, numer).factors) == 2


def test_product_spec_needs_factors():
    with pytest.raises(ValueError):
        ProductSpec(())


def test_spec_is_hashable_and_equal_by_value():
    a = spec_from_factors((SupportSet.multiples_of(2), Fraction(1, 2), -1))
    b = spec_from_factors((SupportSet.multiples_of(2), Fraction(1, 2), -1))
    assert a == b and hash(a) == hash(b)


def test_json_roundtrip():
    spec = spec_from_factors(
        (SupportSet.all_naturals(), 1, 2),
        (SupportSet.multiples_of(3), Fraction(-1, 2), -1),
        (SupportSet.finite([1, 4]), 2, 1),
    )
    text = json.dumps({"numerator": spec_to_json(spec), "denominator": []})
    assert ratio_from_json(text) == ratio(spec, None) == spec


def test_ratio_from_json_errors():
    with pytest.raises(ValueError):
        ratio_from_json("[1, 2]")
    with pytest.raises(ValueError):
        ratio_from_json('{"numerator": "x"}')
    with pytest.raises(ValueError):
        ratio_from_json('{"extra": []}')
    with pytest.raises(ValueError):
        ratio_from_json('{"denominator": [{"support": {"kind": "odd"}, "z": "1", "a": 1}]}')
    with pytest.raises(ValueError):
        ratio_from_json('{"denominator": [{"support": {"kind": "all"}, "z": "1/0", "a": 1}]}')
    with pytest.raises(ValueError):
        ratio_from_json('{"denominator": [{"support": {"kind": "all"}, "z": "abc", "a": 1}]}')
    with pytest.raises(ValueError):
        ratio_from_json('{"denominator": [{"support": {"kind": "all"}, "z": "1", "a": true}]}')
    with pytest.raises(ValueError):
        ratio_from_json('{"denominator": [{"support": {"kind": [1]}, "z": "1", "a": 1}]}')
    with pytest.raises(ValueError, match="nested too deeply"):
        ratio_from_json("[" * 100_000)


@pytest.mark.parametrize(
    "factor",
    [
        {"support": {"kind": "all"}, "zz": "1/2", "a": 1},
        {"support": {"kind": "all"}, "z": "1", "a": 1, "b": 2},
        {"support": {"kind": "all", "r": 2}, "z": "1", "a": 1},
        {"support": {"kind": "multiples", "r": 2, "set": [1]}, "z": "1", "a": 1},
        {"support": {"kind": "finite", "set": [1], "r": 1}, "z": "1", "a": 1},
        {"support": {"kind": "finite", "set": [1], "members": [2]}, "z": "1", "a": 1},
    ],
)
def test_ratio_from_json_rejects_unknown_factor_and_support_keys(factor):
    with pytest.raises(ValueError, match="unknown"):
        ratio_from_json(json.dumps({"denominator": [factor]}))


def test_ratio_from_json_rejects_boolean_z():
    for z in ("true", "false"):
        text = '{"numerator": [{"support": {"kind": "all"}, "z": %s, "a": 1}]}' % z
        with pytest.raises(ValueError):
            ratio_from_json(text)


def test_ratio_from_json_accepts_integer_z():
    spec = ratio_from_json(
        '{"numerator": [{"support": {"kind": "finite", "set": [2]}, "z": 2, "a": 1}]}'
    )
    assert spec.factors[0].z == Fraction(2) and spec.factors[0].a == 1


def test_support_rejects_bool_and_float():
    with pytest.raises(TypeError):
        SupportSet.finite([1.5])
    with pytest.raises(TypeError):
        SupportSet.finite([True, 2])
    with pytest.raises(TypeError):
        SupportSet.multiples_of(True)
    with pytest.raises(TypeError):
        SupportSet.multiples_of(2.0)


def test_factor_rejects_bool_and_float():
    support = SupportSet.all_naturals()
    for a in (True, 1.0, 0.5):
        with pytest.raises(TypeError):
            Factor(support, Fraction(1), a)
    for z in (0.1, 1.0, True, "1/2"):
        with pytest.raises(TypeError):
            Factor(support, z, 1)
    assert Factor(support, -3, 1).z == Fraction(-3)


def test_factor_takes_a_fraction_exponent():
    support = SupportSet.multiples_of(2)
    assert Factor(support, 1, Fraction(-3, 4)).a == Fraction(-3, 4)
    # an integral Fraction is stored as its int: one representation per factor
    whole = Factor(support, 1, Fraction(2))
    assert type(whole.a) is int and whole == Factor(support, 1, 2)
    assert hash(whole) == hash(Factor(support, 1, 2))


def test_spec_from_factors_leaves_z_to_factor():
    with pytest.raises(TypeError):
        spec_from_factors((SupportSet.all_naturals(), 0.1, 1))
    spec = spec_from_factors((SupportSet.all_naturals(), Fraction(2, 3), 1))
    assert spec.factors[0].z == Fraction(2, 3)


def test_scaled_factors_take_one_lcm_and_negate_the_denominator():
    numer = spec_from_factors(
        (SupportSet.all_naturals(), Fraction(2, 3), 1),
        (SupportSet.multiples_of(2), Fraction(-2, 5), -1),
    )
    denom = spec_from_factors((SupportSet.finite([1]), 4, 2))
    # L = lcm(3, 5, 1) = 15; each z becomes z L, the denominator's a becomes -a
    assert scaled_factors(ratio(numer, denom)) == (
        15,
        1,
        [
            (SupportSet.all_naturals(), 10, 1),
            (SupportSet.multiples_of(2), -6, -1),
            (SupportSet.finite([1]), 60, -2),
        ],
    )
    assert scaled_factors(ratio(None, denom)) == (1, 1, [(SupportSet.finite([1]), 4, -2)])
    assert scaled_factors(None) == scaled_factors(ratio(None, None)) == (1, 1, [])
    # q = lcm(2, 3) = 6 of the exponent denominators; each a becomes the integer q a
    rational = spec_from_factors(
        (SupportSet.all_naturals(), 1, Fraction(1, 2)), (SupportSet.finite([1]), 4, Fraction(-2, 3))
    )
    assert scaled_factors(ratio(rational, denom)) == (
        1,
        6,
        [
            (SupportSet.all_naturals(), 1, 3),
            (SupportSet.finite([1]), 4, -4),
            (SupportSet.finite([1]), 4, -12),
        ],
    )
    assert all(type(a) is int for _, _, a in scaled_factors(ratio(rational, denom))[2])
    for name, bad in (("denom", (numer, 1)), ("numer", ("x", None)), ("denom", (None, [denom]))):
        with pytest.raises(TypeError, match=f"^{name} must be a ProductSpec or None"):
            ratio(*bad)
    # an old caller's (numer, denom) pair is no spec
    for bad in ((numer, denom), (None, denom), denom.factors[0], "x", 1):
        with pytest.raises(TypeError, match="^spec must be a ProductSpec or None"):
            scaled_factors(bad)
    # c_n = s^n coefficient / L^n
    assert unscale([3, 10, 450], 15) == [Fraction(3), Fraction(2, 3), Fraction(2)]
    assert unscale([], 15) == []


def test_multiples_of_one_is_all_naturals():
    from bellforge import bellpoly

    everything = SupportSet.all_naturals()
    spellings = (
        SupportSet.multiples_of(1),
        SupportSet("multiples"),
        support_from_json({"kind": "multiples", "r": 1}),
    )
    for support in spellings:
        assert support == everything and hash(support) == hash(everything)
        assert support_to_json(support) == {"kind": "all"}
    text = '{"denominator": [{"support": %s, "z": "1", "a": 1}]}'
    multiples = ratio_from_json(text % '{"kind": "multiples", "r": 1}')
    assert multiples == ratio_from_json(text % '{"kind": "all"}')
    # both spellings of prod (1 - t^m) are one product
    one, other = (
        bellpoly.ratio_coefficients(spec_from_factors((support, 1, -1)), 20)
        for support in (SupportSet.multiples_of(1), everything)
    )
    assert one == other
