import inspect
import json
import random
from math import isqrt

import pytest

from bellforge import cli
from bellforge.bellpoly import ratio_coefficients
from bellforge.cli import main
from bellforge.partfun import SEQUENCES, prefixes, sequence
from bellforge.series import TruncatedSeries
from bellforge.supports import FINITE, MULTIPLES, ProductSpec, ratio, unscale
from bellforge.verify import (
    SUITES,
    _reciprocal,
    random_product_spec,
    run_suite,
    set_additivity_report,
    theta_suite,
)
from plans import CI_RATIO, plan, plan_price, record_runs, run


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
    rows = run(theta_suite(10))
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
    assert run_suite("chan") == run(suite(default))


def test_suites_are_deterministic():
    first = run_suite("additivity-set", 8)
    second = run_suite("additivity-set", 8)
    assert first == second


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize(
    "max_n, error", [(True, TypeError), (2.0, TypeError), (-1, ValueError)], ids=["bool", "float", "negative"]
)
def test_suites_reject_a_max_that_is_not_a_natural(name, max_n, error):
    with pytest.raises(error, match="max_n must be"):
        run_suite(name, max_n)


REQUESTS = {
    **{name: ("verify", name) for name in sorted(SUITES)},
    "errata": ("errata",),
    **{f"seq-{name}": ("seq", name) for name in SEQUENCES if name != "w"},
    "seq-w": ("seq", "w", "--parts", "1,2,5"),
    **{f"eval-{m}": ("eval", "--spec", "SPEC", "--method", m) for m in ("faa", "series", "both")},
    "bench": ("bench", "--repeat", "2"),
}


@pytest.mark.parametrize("name", list(REQUESTS))
def test_prices_cover_every_prefix_that_runs(name, monkeypatch, tmp_path, capsys):
    # the plan that cli.main prices is what runs: after the plan is made, the prefixes
    # evaluated through either route are exactly its requests, in order, its report
    # receives exactly those prefixes and runs no route itself (but bench's timed loop),
    # and main refuses the request at one unit below the plan's price and runs it at the price
    spec = tmp_path / "ratio.json"
    spec.write_text(json.dumps(CI_RATIO))
    base = [str(spec) if arg == "SPEC" else arg for arg in REQUESTS[name]]
    for n_max in (0, 1, 7, 23):
        argv = [*base, "--max", str(n_max)]
        label, requests, copies, extra, _ = plan(*argv)
        work = plan_price(requests, copies, extra)
        assert requests or name == "sigma"
        # every request is priced once, but for reciprocal's product prefixes, priced again for
        # their convolutions, and bench's, once for its agree column and once per timed run; the
        # other units are euler's p(N) (N + 1) enumerated vectors and sigma's N isqrt(N) divisor trials
        runs = (len(range(10, n_max, 10)) + 1) * 2
        if name == "reciprocal":
            # each product prefix is followed by its reciprocal's
            products = [spec for _, spec, _ in requests[::2]]
            assert [spec for _, spec, _ in requests[1::2]] == [ratio(None, s) for s in products]
        assert copies == {
            "reciprocal": [2, 1] * (len(requests) // 2),
            "bench": [runs + 1, runs + 1],
        }.get(name, [1] * len(requests))
        assert extra == {
            "euler": sequence("p", n_max)[-1] * (n_max + 1),
            "sigma": 16 * n_max * isqrt(n_max),
        }.get(name, 0)
        want = prefixes(requests)
        made, ran, reports = record_runs(monkeypatch, argv[0])
        monkeypatch.setattr(cli, "WORK_BUDGET", work - 1)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"bellforge: error: {label} needs more work than the budget of {work - 1:.0e} units\n"
        )
        assert len(made) == 1 and ran == reports == []
        made.clear()
        monkeypatch.setattr(cli, "WORK_BUDGET", work)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 0 or (name, n_max, code) == ("sigma", 0, 2) and "no checks" in err, (code, err)
        assert made[0][1:4] == (requests, copies, extra), (name, n_max)
        assert reports == [(len(requests), tuple(want))], (name, n_max)
        assert ran[: len(requests)] == requests, (name, n_max)
        timed = ran[len(requests) :]
        if name == "bench":
            # each bucket times one prefix per route at or below --max, runs times in all
            for route, spec, top in requests:
                mine = [r for r in timed if r[0] == route]
                assert len(mine) == runs and all(r[1] == spec and r[2] <= top for r in mine)
            assert len(timed) == 2 * runs
        else:
            assert timed == [], (name, n_max)
        monkeypatch.undo()


def test_integer_convolution_matches_the_fraction_cauchy_product():
    # additivity convolves each side's integers c_m S^m on its own scale S, and reciprocal
    # convolves those of f and 1/f, whose scales are equal
    rng = random.Random(24)
    mixed = 0
    for _ in range(50):
        spec_a, spec_b = random_product_spec(rng), random_product_spec(rng)
        n = rng.randint(0, 30)
        (u, s), (v, t) = ratio_coefficients(spec_a, n), ratio_coefficients(spec_b, n)
        mixed += s != t
        want = TruncatedSeries(unscale(u, s)).mul(TruncatedSeries(unscale(v, t))).coeffs
        report = set_additivity_report(n, spec_a, spec_b)
        assert report.ok and report.rhs == str(want[n]) == report.lhs
        requests, rows = _reciprocal("reciprocal", spec_a, n)
        recips = ratio_coefficients(ratio(None, spec_a), n)
        assert recips[1] == s and [row.lhs for row in rows(*prefixes(requests))] == ["1"] + ["0"] * n
    assert mixed >= 10
