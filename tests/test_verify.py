import inspect
import random

import pytest

from bellforge.supports import FINITE, MULTIPLES, ProductSpec
from bellforge.verify import (
    SUITES,
    random_product_spec,
    run_suite,
    theta_suite,
)


def test_random_family_stays_in_documented_bounds():
    rng = random.Random(0)
    for _ in range(200):
        spec = random_product_spec(rng)
        assert isinstance(spec, ProductSpec)
        assert 1 <= len(spec.factors) <= 3
        for f in spec.factors:
            assert f.a != 0 and -3 <= f.a <= 3
            assert str(f.z) in {"1", "-1", "1/2", "2"}
            if f.support.kind == MULTIPLES:
                assert 1 <= f.support.r <= 4
            if f.support.kind == FINITE:
                assert set(f.support.members) <= set(range(1, 7))


def test_every_suite_passes_at_reduced_size():
    sizes = {
        "reciprocal": 8,
        "euler": 15,
        "sigma": 200,
        "chan": 6,
        "kim": 5,
        "additivity-index": 8,
        "additivity-set": 8,
        "restricted-recursion": 20,
        "theta": 40,
    }
    for name in SUITES:
        rows = run_suite(name, sizes[name])
        assert rows, name
        assert all(row.ok for row in rows), name


def test_failed_rows_carry_both_sides():
    rows = theta_suite(10)
    for row in rows:
        assert row.lhs != "" and row.rhs != ""


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_default_sizes_live_only_in_default_max():
    # the default --max of each suite is the second entry of its SUITES row
    for name, (suite, _) in SUITES.items():
        assert inspect.signature(suite).parameters["max_n"].default is inspect.Parameter.empty, name
        with pytest.raises(TypeError):
            suite()
    suite, default = SUITES["chan"]
    assert run_suite("chan") == suite(default)


def test_suites_are_deterministic():
    first = run_suite("additivity-set", 8)
    second = run_suite("additivity-set", 8)
    assert first == second


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize(
    "max_n, error", [(True, TypeError), (2.0, TypeError), (-1, ValueError)], ids=["bool", "float", "negative"]
)
def test_suites_reject_a_max_that_is_not_a_natural(name, max_n, error):
    with pytest.raises(error, match="must be"):
        run_suite(name, max_n)
