"""The immutable value records: construction, equality, hashing, repr and
immutability, as the frozen dataclasses they replace behaved."""

import copy
import pickle
from fractions import Fraction

import pytest

from bellforge import (
    Factor,
    IdentityReport,
    ProductSpec,
    SupportSet,
    expand_ratio,
    ratio,
    ratio_coefficients,
    set_additivity_report,
    unscale,
    work_estimate,
)
from bellforge.series import TruncatedSeries


def samples():
    """Pairs of equal records built two ways, one pair per class."""
    finite = SupportSet.finite([5, 2])
    factor = Factor(finite, Fraction(2, 3), -2)
    return [
        (SupportSet("all"), SupportSet.all_naturals()),
        (SupportSet("multiples", 3), SupportSet(kind="multiples", r=3)),
        (finite, SupportSet("finite", members=(2, 5))),
        (factor, Factor(a=-2, z=Fraction(2, 3), support=SupportSet.finite([2, 5]))),
        (ProductSpec((factor,)), ProductSpec(factors=[factor])),
        (IdentityReport("x", 3, True, "1", "1"), IdentityReport(check="x", n=3, ok=True, lhs="1", rhs="1")),
        (
            TruncatedSeries([1, Fraction(1, 2)]),
            TruncatedSeries(coeffs=iter([Fraction(2, 2), Fraction(2, 4)])),
        ),
    ]



def test_equal_fields_give_equal_records_and_hashes():
    for left, right in samples():
        assert left is not right
        assert left == right and not (left != right)
        assert hash(left) == hash(right)
        assert len({left, right}) == 1


def test_different_fields_give_unequal_records():
    unequal = [
        (SupportSet.multiples_of(2), SupportSet.multiples_of(3)),
        (Factor(SupportSet.all_naturals(), 1, 1), Factor(SupportSet.all_naturals(), 1, 2)),
        (IdentityReport("x", 3, True, "1", "1"), IdentityReport("x", 3, False, "1", "1")),
    ]
    for left, right in unequal:
        assert left != right and not (left == right)


def test_records_of_different_classes_are_never_equal():
    class Narrower(SupportSet):
        pass

    assert SupportSet("all") != Narrower("all")
    assert Narrower("all") != SupportSet("all")
    assert Narrower("all") == Narrower("all")
    assert SupportSet("all") != ("all", 1, ())
    assert SupportSet("all") != IdentityReport("x", 0, True, "", "")
    assert ProductSpec((Factor(SupportSet("all"), 1, 1),)) != (Factor(SupportSet("all"), 1, 1),)


def test_repr_text():
    finite = SupportSet.finite([5, 2])
    assert repr(SupportSet("all")) == "SupportSet(kind='all', r=1, members=())"
    assert repr(SupportSet.multiples_of(3)) == "SupportSet(kind='multiples', r=3, members=())"
    assert repr(finite) == "SupportSet(kind='finite', r=1, members=(2, 5))"
    factor = Factor(finite, 4, 1)
    assert repr(factor) == (
        "Factor(support=SupportSet(kind='finite', r=1, members=(2, 5)), z=4, a=1)"
    )
    assert repr(ProductSpec((factor,))) == f"ProductSpec(factors=({factor!r},))"
    assert repr(IdentityReport("x", 3, True, "1", "1")) == (
        "IdentityReport(check='x', n=3, ok=True, lhs='1', rhs='1')"
    )


def test_keyword_construction_and_defaults():
    s = SupportSet(kind="all")
    assert (s.kind, s.r, s.members) == ("all", 1, ())
    f = Factor(support=s, z=Fraction(1, 2), a=3)
    assert (f.support, f.z, f.a) == (s, Fraction(1, 2), 3)
    assert ProductSpec(factors=[f]).factors == (f,)
    r = IdentityReport(check="c", n=1, ok=False, lhs="2", rhs="3")
    assert (r.check, r.n, r.ok, r.lhs, r.rhs) == ("c", 1, False, "2", "3")
    with pytest.raises(TypeError):
        SupportSet()
    with pytest.raises(TypeError):
        Factor(s, 1)
    with pytest.raises(TypeError):
        IdentityReport("c", 1, True, "2")


def test_records_are_immutable():
    for record, _ in samples():
        for name in record._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, record._fields[0])


def test_records_survive_copy_and_pickle():
    for record, _ in samples():
        hash(record)
        # a record's state is its fields alone: no hash, which differs between processes, travels
        assert set(vars(record)) == set(record._fields)
        for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert copied == record and hash(copied) == hash(record)


def test_constructor_validation():
    support = SupportSet.all_naturals()
    factor = Factor(support, 1, 1)
    spec = ProductSpec((factor,))
    cases = [
        (ValueError, lambda: SupportSet("weird")),
        (ValueError, lambda: SupportSet("multiples", r=0)),
        (TypeError, lambda: SupportSet("multiples", r=2.0)),
        (ValueError, lambda: SupportSet("finite", members=())),
        (ValueError, lambda: SupportSet("finite", members=(1, 1))),
        (ValueError, lambda: SupportSet("finite", members=(0, 2))),
        (TypeError, lambda: SupportSet("finite", members=(True,))),
        (ValueError, lambda: SupportSet("all", r=5)),
        (ValueError, lambda: SupportSet("all", r=2.5)),
        (ValueError, lambda: SupportSet("all", members=(1,))),
        (ValueError, lambda: SupportSet("finite", r=0, members=(1, 2))),
        (ValueError, lambda: SupportSet("multiples", r=2, members=(2,))),
        (ValueError, lambda: Factor(support, 1, 0)),
        (TypeError, lambda: Factor(support, 1, True)),
        (TypeError, lambda: Factor(support, 0.5, 1)),
        (ValueError, lambda: ProductSpec(())),
        (TypeError, lambda: Factor("all", 1, 1)),
        (TypeError, lambda: Factor(spec, 1, 1)),
        (TypeError, lambda: ProductSpec(("x",))),
        (TypeError, lambda: ProductSpec((factor, support))),
        (TypeError, lambda: ProductSpec((spec,))),
        # each side of an additivity check is a ProductSpec
        (TypeError, lambda: set_additivity_report(4, None, spec)),
        (TypeError, lambda: set_additivity_report(4, spec, "x")),
        # a route's scale is a positive int: no bool read as 1, no zero or negative power
        (TypeError, lambda: unscale([1, 2], True)),
        (ValueError, lambda: unscale([1, 2], 0)),
        (ValueError, lambda: unscale([1, 2], -2)),
    ]
    # a spec is a ProductSpec or None on both routes and in the price, and so is each
    # side of the one function that takes two; an old caller's (numer, denom) pair is no spec
    named = []
    for bad in ("x", factor, (factor,), support, 1, (spec, None)):
        named += [("numer", lambda b=bad: ratio(b, None)), ("denom", lambda b=bad: ratio(spec, b))]
        named += [("spec", lambda e=e, b=bad: e(b, 3)) for e in (ratio_coefficients, expand_ratio)]
        named.append(("spec", lambda b=bad: work_estimate("faa", b, 3)))
    for error, build in cases:
        with pytest.raises(error):
            build()
    for name, build in named:
        with pytest.raises(TypeError, match=f"^{name} must be a ProductSpec or None, got "):
            build()
    assert Factor(support, 2, 1).z == Fraction(2) and type(Factor(support, Fraction(2), 1).z) is int
    assert SupportSet.finite([9, 4]).members == (4, 9)
