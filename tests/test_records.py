"""The immutable value records: construction, equality, hashing, repr and
immutability, as the frozen dataclasses they replace behaved."""

import copy
import pickle
from fractions import Fraction

import pytest

from bellforge import Factor, FourFactorSpec, IdentityReport, ProductSpec, SupportSet
from bellforge.errata import FormulaStatus
from bellforge.supports import Record


def formula_status(**changes):
    fields = dict(
        name="cubic",
        description="a(n)",
        checked_n=(0, 1),
        product_form=("1", "1"),
        transcription=("1", "-1"),
        agrees=False,
        first_mismatch=1,
    )
    fields.update(changes)
    return FormulaStatus(**fields)


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
        (FourFactorSpec(2, 1, None, 1, 1), FourFactorSpec(r1=2, s1=1)),
        (FourFactorSpec(a1=3), FourFactorSpec()),
        (FourFactorSpec(r1=2, a2=4, b2=5), FourFactorSpec(r1=2)),
        (formula_status(), formula_status()),
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
        (FourFactorSpec(r1=2), FourFactorSpec(r2=2)),
        (FourFactorSpec(r1=2, a1=3), FourFactorSpec(r1=2)),
        (formula_status(), formula_status(first_mismatch=None)),
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
    assert FourFactorSpec() != IdentityReport("x", 0, True, "", "")
    assert ProductSpec((Factor(SupportSet("all"), 1, 1),)) != (Factor(SupportSet("all"), 1, 1),)


def test_repr_text():
    finite = SupportSet.finite([5, 2])
    assert repr(SupportSet("all")) == "SupportSet(kind='all', r=1, members=())"
    assert repr(SupportSet.multiples_of(3)) == "SupportSet(kind='multiples', r=3, members=())"
    assert repr(finite) == "SupportSet(kind='finite', r=1, members=(2, 5))"
    factor = Factor(finite, 4, 1)
    assert repr(factor) == (
        "Factor(support=SupportSet(kind='finite', r=1, members=(2, 5)), z=Fraction(4, 1), a=1)"
    )
    assert repr(ProductSpec((factor,))) == f"ProductSpec(factors=({factor!r},))"
    assert repr(IdentityReport("x", 3, True, "1", "1")) == (
        "IdentityReport(check='x', n=3, ok=True, lhs='1', rhs='1')"
    )
    assert repr(FourFactorSpec(r1=2, a1=3, s1=1)) == (
        "FourFactorSpec(r1=2, a1=3, r2=None, a2=1, s1=1, b1=1, s2=None, b2=1)"
    )
    assert repr(formula_status()) == (
        "FormulaStatus(name='cubic', description='a(n)', checked_n=(0, 1), "
        "product_form=('1', '1'), transcription=('1', '-1'), agrees=False, first_mismatch=1)"
    )


def test_keyword_construction_and_defaults():
    s = SupportSet(kind="all")
    assert (s.kind, s.r, s.members) == ("all", 1, ())
    f = Factor(support=s, z=Fraction(1, 2), a=3)
    assert (f.support, f.z, f.a) == (s, Fraction(1, 2), 3)
    assert ProductSpec(factors=[f]).factors == (f,)
    r = IdentityReport(check="c", n=1, ok=False, lhs="2", rhs="3")
    assert (r.check, r.n, r.ok, r.lhs, r.rhs) == ("c", 1, False, "2", "3")
    spec = FourFactorSpec(s2=4)
    assert (spec.r1, spec.a1, spec.r2, spec.a2, spec.s1, spec.b1, spec.s2, spec.b2) == (
        None, 1, None, 1, None, 1, 4, 1,
    )
    assert formula_status(agrees=True).agrees is True
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
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_a_record_is_hashed_once(monkeypatch):
    # records key the prefix cache, so a lookup must not rehash nested fields
    calls = []
    values = Record._values

    def counting(self):
        calls.append(type(self))
        return values(self)

    monkeypatch.setattr(Record, "_values", counting)
    for record, _ in samples():
        cls = type(record)
        first = hash(record)
        assert hash(record) == first
        assert calls.count(cls) == 1
        # a pickled copy hashes afresh: string hashes differ between processes
        copied = pickle.loads(pickle.dumps(record))
        calls.clear()
        assert hash(copied) == first
        assert calls.count(cls) == 1
        calls.clear()


def test_constructor_validation():
    support = SupportSet.all_naturals()
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
        (ValueError, lambda: FourFactorSpec(r1=0)),
        (ValueError, lambda: FourFactorSpec(s2=3, b2=0)),
        (TypeError, lambda: FourFactorSpec(r1=True)),
        (TypeError, lambda: FourFactorSpec(r1=2.0)),
        (TypeError, lambda: FourFactorSpec(r1=2, a1=2.5)),
        (TypeError, lambda: FourFactorSpec(r2=2, a2=False)),
        (TypeError, lambda: FourFactorSpec(s1=1.0, b1=1)),
        (TypeError, lambda: FourFactorSpec(s2=4, b2=True)),
        (TypeError, lambda: FourFactorSpec(a1=2.5)),
        (TypeError, lambda: FourFactorSpec(b1=True)),
        (ValueError, lambda: FourFactorSpec(b2=0)),
        (ValueError, lambda: FourFactorSpec(a2=-1)),
    ]
    for error, build in cases:
        with pytest.raises(error):
            build()
    assert Factor(support, 2, 1).z == Fraction(2)
    assert SupportSet.finite([9, 4]).members == (4, 9)
