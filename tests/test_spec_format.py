"""Property tests of the JSON ratio spec format that ``eval`` reads."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellforge.cli import main
from bellforge.specfile import ratio_from_json, spec_to_json
from bellforge.supports import Factor, ProductSpec, SupportSet, ratio

supports = st.one_of(
    st.just(SupportSet.all_naturals()),
    st.integers(1, 10**6).map(SupportSet.multiples_of),
    st.lists(st.integers(1, 10**6), min_size=1, max_size=6, unique=True).map(SupportSet.finite),
)
exact_z = st.one_of(st.integers(-(10**30), 10**30), st.fractions(max_denominator=10**30))
exponents = st.one_of(st.integers(-(10**12), 10**12), st.fractions(max_denominator=10**12)).filter(bool)
factors = st.builds(Factor, supports, exact_z, exponents)
sides = st.one_of(st.none(), st.lists(factors, min_size=1, max_size=4).map(ProductSpec))


def document(numer, denom) -> dict:
    return {
        "numerator": [] if numer is None else spec_to_json(numer),
        "denominator": [] if denom is None else spec_to_json(denom),
    }


@given(sides, sides)
def test_valid_specs_survive_a_round_trip(numer, denom):
    assert ratio_from_json(json.dumps(document(numer, denom))) == ratio(numer, denom)


def test_rational_exponents_survive_a_round_trip():
    # a rational a is written as a "p/q" string, the grammar of z, and an integral one as an int
    half = ProductSpec((Factor(SupportSet.all_naturals(), 1, Fraction(-3, 2)),))
    assert spec_to_json(half) == [{"support": {"kind": "all"}, "z": "1", "a": "-3/2"}]
    assert ratio_from_json(json.dumps({"denominator": spec_to_json(half)})) == ratio(None, half)
    whole = ProductSpec((Factor(SupportSet.all_naturals(), 1, Fraction(-2)),))
    assert spec_to_json(whole) == [{"support": {"kind": "all"}, "z": "1", "a": -2}]
    text = json.dumps({"numerator": [{"support": {"kind": "all"}, "z": 1, "a": "+6/4"}]})
    assert ratio_from_json(text).factors[0].a == Fraction(3, 2)


NOT_AN_OBJECT = (None, True, False, 0, 1.5, "x", [], [1])
# (where, replacement): the field of the first factor to spoil, and with what
SPOILERS = (
    [("support", {"kind": bad}) for bad in (None, True, 1, 1.5, [], {}, "odd", "ALL")]
    + [("support", {"kind": "multiples", "r": bad}) for bad in (None, True, 0, -2, 1.5, "2", [2])]
    + [("support", {"kind": "multiples"})]
    + [
        ("support", {"kind": "finite", "set": bad})
        for bad in (None, True, 1, "1,2", [], [0], [1, 1], [True], [1.5], ["1"], [[1]], {"1": 1})
    ]
    + [("support", {"kind": "all", "r": 1}), ("support", {"kind": "finite", "set": [1], "r": 1})]
    + [("support", bad) for bad in NOT_AN_OBJECT]
    + [("z", bad) for bad in (None, True, False, 1.5, [], {}, "abc", "1/0", "", "1/2/3")]
    # only [+-]digits[/digits] in ASCII: Fraction would expand "1e-20000000" for seconds
    + [("z", bad) for bad in ("0.5", "1e3", "1e-20000000", "1_000", " 1/2 ", "1/ 2", "1/-2", "+-1", "\u0661", "0x10")]
    + [("a", bad) for bad in (None, True, False, 0, 1.5, [], {}, "0", "-0/3", "1/0", "0.5", "1e3", "abc", "", "true")]
    + [("extra", 1)]
)


@given(sides.filter(bool), sides, st.sampled_from(SPOILERS), st.booleans())
def test_spoiled_factors_are_rejected(spec_path, numer, denom, spoiler, on_numerator):
    doc = document(numer, denom)
    if on_numerator or not doc["denominator"]:
        factor = doc["numerator"][0]
    else:
        factor = doc["denominator"][0]
    where, replacement = spoiler
    factor[where] = replacement
    assert_rejected(spec_path, json.dumps(doc))


@pytest.mark.parametrize(
    "doc",
    [*NOT_AN_OBJECT, {"numerator": [], "extra": []}]
    + [{"numerator": bad} for bad in (None, True, 1, "x", {})]
    + [{"denominator": [bad]} for bad in NOT_AN_OBJECT],
)
def test_malformed_documents_are_rejected(spec_path, doc):
    assert_rejected(spec_path, json.dumps(doc))


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("spec") / "spec.json"


def assert_rejected(path, text: str) -> None:
    """``text`` is refused by the parser, and by ``eval`` with exit 2, one
    line on stderr and nothing on stdout."""
    with pytest.raises(ValueError):
        ratio_from_json(text)
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["eval", "--spec", str(path), "--max", "3", "--method", "both"])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("bellforge: error: bad spec file")
    assert len(err.getvalue().splitlines()) == 1



@pytest.mark.parametrize("z", ["0.5", "1e3", "1e-20000000", "1_000", " 1/2 ", "١"])
def test_z_strings_outside_the_documented_forms_are_rejected(spec_path, z):
    assert_rejected(spec_path, json.dumps({"denominator": [{"support": {"kind": "all"}, "z": z, "a": 1}]}))


@pytest.mark.parametrize("z, value", [("-3", -3), ("+1/2", Fraction(1, 2)), ("007/0014", Fraction(1, 2))])
def test_z_strings_in_the_documented_forms_are_exact(z, value):
    text = json.dumps({"numerator": [{"support": {"kind": "all"}, "z": z, "a": 1}]})
    assert ratio_from_json(text).factors[0].z == value


def test_eval_compares_the_routes_on_an_errata_spec(spec_path):
    # overcubic-progression's double sum L R, with exponents -8, -3/2, 2 and 3/4
    from bellforge.errata import _FORMULAS, transcription_spec

    _, right, _, left = _FORMULAS["overcubic-progression"][3]
    spec = transcription_spec(right, left)
    assert {f.a.denominator for f in spec.factors if isinstance(f.a, Fraction)} == {2, 4}
    spec_path.write_text(json.dumps({"numerator": spec_to_json(spec)}), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["eval", "--spec", str(spec_path), "--max", "30", "--method", "both"])
    rows = out.getvalue().splitlines()
    assert code == 0 and rows[0] == "n,faa,series,agree" and len(rows) == 32
    assert all(row.endswith(",true") for row in rows[1:])
