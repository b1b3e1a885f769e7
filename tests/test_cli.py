import itertools
import json
import sys
import time
from math import comb, isqrt

import pytest

from bellforge import bellpoly, verify
from bellforge.cli import SUITE_NAMES, WORK_BUDGET, main
from bellforge.partfun import (
    KIM_DENOMINATOR,
    KIM_NUMERATOR,
    PARTITION_PRODUCT,
    SEQUENCES,
    route_prefix,
    sequence,
    work_estimate,
)
from bellforge.specfile import ratio_from_json, spec_to_json
from bellforge.supports import unscale
from plans import CI_RATIO, price, record_runs, report_work
from reference import exp_log_expand, negated


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_p_csv(capsys):
    code, out, _ = run_cli(capsys, "seq", "p", "--max", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1", "1,1", "2,2", "3,3", "4,5", "5,7"]


def test_seq_psi_star(capsys):
    code, out, _ = run_cli(capsys, "seq", "psi-star", "--max", "6")
    assert code == 0
    values = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert values == ["1", "1", "0", "1", "0", "0", "1"]


def test_seq_theta_golden_300(capsys):
    triangular = [0] * 301
    for k in range(25):
        triangular[k * (k + 1) // 2] = 1
    square = [1] + [2 if isqrt(n) ** 2 == n else 0 for n in range(1, 301)]
    for name, want in (("psi-star", triangular), ("phi-star", square)):
        code, out, _ = run_cli(capsys, "seq", name, "--max", "300")
        assert code == 0
        assert out == "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(want))


def test_seq_w_with_parts(capsys):
    code, out, _ = run_cli(capsys, "seq", "w", "--parts", "1,2", "--max", "4")
    assert code == 0
    values = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert values == ["1", "1", "2", "2", "3"]


def test_seq_w_requires_parts(capsys):
    code, _, err = run_cli(capsys, "seq", "w", "--max", "4")
    assert code == 2
    assert "parts" in err


def test_seq_rejects_malformed_parts(capsys):
    for bad in ("1,x", "0,2", "2,2", ""):
        code, _, err = run_cli(capsys, "seq", "w", "--parts", bad, "--max", "3")
        assert code == 2
    # int() reads each of these, but a parts list is ASCII digits and commas only
    for bad in ("1_0,٢", "1,٢", "+1,2", " 1,2", "1, 2"):
        code, out, err = run_cli(capsys, "seq", "w", "--parts", bad, "--max", "3")
        assert (code, out) == (2, "")
        assert "bad parts list" in err


def test_seq_empty_parts_is_a_given_option(capsys):
    # "" on w is a malformed list, and on any other name a misplaced option
    code, out, err = run_cli(capsys, "seq", "w", "--parts", "", "--max", "2")
    assert (code, out) == (2, "")
    assert "bad parts list ''" in err
    for name in ("p", "cubic"):
        code, out, err = run_cli(capsys, "seq", name, "--parts", "", "--max", "2")
        assert (code, out) == (2, "")
        assert "--parts only applies to function w" in err


def test_seq_unknown_function_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seq", "nope", "--max", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_seq_json_report_shape(capsys):
    code, out, _ = run_cli(capsys, "seq", "w", "--parts", "2,3", "--max", "6", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["name"] == "w"
    assert report["params"] == {"max": 6, "parts": [2, 3]}
    assert report["values"] == [
        [0, "1"], [1, "0"], [2, "1"], [3, "1"], [4, "1"], [5, "1"], [6, "2"],
    ]
    assert report["verdicts"] == []
    ns = [n for n, _ in report["values"]]
    assert ns == sorted(ns)


def test_seq_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "seq", "cubic", "--max", "12")
    _, second, _ = run_cli(capsys, "seq", "cubic", "--max", "12")
    assert first == second


def spec_file(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_eval_both_methods_agree(capsys, tmp_path):
    path = spec_file(
        tmp_path,
        {"numerator": [], "denominator": [{"support": {"kind": "all"}, "z": "1", "a": 1}]},
    )
    code, out, _ = run_cli(capsys, "eval", "--spec", path, "--max", "10", "--method", "both")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,faa,series,agree"
    assert lines[-1] == "10,42,42,true"
    assert all(line.endswith("true") for line in lines[1:])


def test_eval_rejects_zero_exponent(capsys, tmp_path):
    path = spec_file(
        tmp_path,
        {"denominator": [{"support": {"kind": "all"}, "z": "1", "a": 0}]},
    )
    code, _, err = run_cli(capsys, "eval", "--spec", path, "--max", "4")
    assert code == 2
    assert "spec" in err


def test_eval_geometric_in_z(capsys, tmp_path):
    path = spec_file(
        tmp_path,
        {
            "numerator": [],
            "denominator": [
                {"support": {"kind": "finite", "set": [1]}, "z": "1/2", "a": 1}
            ],
        },
    )
    code, out, _ = run_cli(capsys, "eval", "--spec", path, "--max", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "1,1/2", "2,1/4", "3,1/8"]


GOLDEN_RATIONAL_Z = {
    "numerator": [
        {"support": {"kind": "multiples", "r": 2}, "z": "2/3", "a": 2},
        {"support": {"kind": "finite", "set": [1, 4]}, "z": "-2/5", "a": -1},
    ],
    "denominator": [{"support": {"kind": "all"}, "z": "3/2", "a": 1}],
}
# the ratio spec of the CI step that runs eval --method both --max 60
EULER = {"denominator": [{"support": {"kind": "all"}, "z": "1", "a": 1}]}
HUGE_Z = {
    "denominator": [{"support": {"kind": "finite", "set": [1]}, "z": "1" + "0" * 4000, "a": 1}]
}


def test_eval_series_golden_rational_z(capsys, tmp_path):
    payload = GOLDEN_RATIONAL_Z
    path = spec_file(tmp_path, payload)
    code, out, _ = run_cli(capsys, "eval", "--spec", path, "--max", "60", "--method", "series")
    assert code == 0
    numer, denom = ratio_from_json(json.dumps(payload))
    want = exp_log_expand(numer, 60).mul(exp_log_expand(negated(denom), 60))
    assert want.coeffs[60].denominator > 1
    assert out == "n,value\n" + "".join(f"{n},{c}\n" for n, c in enumerate(want.coeffs))


def test_eval_series_root_remainder_is_an_inconsistency(capsys, tmp_path, monkeypatch):
    # a rational exponent takes the q-th root; a remainder there breaks the route's contract
    from bellforge import series

    monkeypatch.setattr(series, "divmod", lambda a, b: (a // b, 1), raising=False)
    payload = {"denominator": [{"support": {"kind": "all"}, "z": "1", "a": "1/2"}]}
    code, out, err = run_cli(capsys, "eval", "--spec", spec_file(tmp_path, payload), "--max", "5", "--method", "series")
    assert code == 1
    assert out == ""
    assert err == "bellforge: inconsistency: q-th root: inexact division by 2\n"


def test_eval_boolean_z_exits_2(capsys, tmp_path):
    path = spec_file(
        tmp_path,
        {"numerator": [{"support": {"kind": "all"}, "z": True, "a": 1}]},
    )
    code, out, err = run_cli(capsys, "eval", "--spec", path, "--max", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("bellforge: error: bad spec file")
    assert len(err.splitlines()) == 1


HUGE_EXPONENT = {"denominator": [{"support": {"kind": "finite", "set": [1]}, "z": "1", "a": 100000000}]}
# z with a 98-digit denominator L: few steps, but every integer has about n log2(L) bits
LARGE_L = {"denominator": [{"support": {"kind": "all"}, "z": "1/" + "9" * 98, "a": 1}]}


@pytest.mark.parametrize("method", ["series", "both"])
def test_eval_huge_exponent_exits_2_before_work(capsys, tmp_path, method):
    path = spec_file(tmp_path, HUGE_EXPONENT)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--spec", path, "--max", "5", "--method", method)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        "bellforge: error: --max 5 on this spec needs more work than the budget of 1e+09 units\n"
    )


def test_eval_series_euler_family_above_the_order_exits_0_at_once(capsys, tmp_path):
    # no multiple of 2000 is <= 1000, so E(s^2000)^(10^8) has no term to fold in
    spec = {"denominator": [{"support": {"kind": "multiples", "r": 2000}, "z": "1", "a": 10**8}]}
    path = spec_file(tmp_path, spec)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--spec", path, "--max", "1000", "--method", "series")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert len(rows) == 1002
    assert rows[1:3] == ["0,1", "1,0"] and rows[-1] == "1000,0"


def test_eval_huge_exponent_runs_on_the_closed_sum(capsys, tmp_path):
    # the closed sum needs n(n+1)/2 steps on integers of about n log2(a) bits
    path = spec_file(tmp_path, HUGE_EXPONENT)
    code, out, err = run_cli(capsys, "eval", "--spec", path, "--max", "50", "--method", "faa")
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert len(rows) == 52
    assert rows[-1] == f"50,{comb(10**8 + 49, 50)}"


@pytest.mark.parametrize("method", ["faa", "series", "both"])
def test_eval_large_operands_exit_2_before_work(capsys, tmp_path, method):
    # 360,600 series steps, but on integers of about 195,000 bits
    path = spec_file(tmp_path, LARGE_L)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--spec", path, "--max", "600", "--method", method)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("bellforge: error: --max 600 on this spec needs more work")
    assert len(err.splitlines()) == 1


def test_eval_huge_order_exits_2_before_work(capsys, tmp_path):
    # one factor, but its fold alone is order^2 / 2 steps
    path = spec_file(
        tmp_path,
        {"denominator": [{"support": {"kind": "all"}, "z": "1", "a": 1}]},
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--spec", path, "--max", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "needs more work than the budget" in err


def test_eval_finite_denominator_runs_at_a_large_order(capsys, tmp_path):
    # 1 / (1 - t): one forward fold pass, order steps, and no triangle behind it
    path = spec_file(
        tmp_path,
        {"denominator": [{"support": {"kind": "finite", "set": [1]}, "z": "1", "a": 1}]},
    )
    code, out, err = run_cli(capsys, "eval", "--spec", path, "--max", "100000")
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert len(rows) == 100002
    assert rows[-1] == "100000,1"


# the int-to-str digit limit as collected, before any command has run
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize("method", ["faa", "series"])
def test_eval_prints_values_past_the_digit_limit(capsys, tmp_path, method):
    path = spec_file(tmp_path, HUGE_Z)
    code, out, err = run_cli(capsys, "eval", "--spec", path, "--max", "2", "--method", method)
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert len(rows) == 4  # header and n = 0, 1, 2
    assert rows[-1] == "2,1" + "0" * 8000
    # the lifted limit does not outlive the command
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == DIGIT_LIMIT


def largest_documented_evals():
    """(method, numer, denom, n) of the largest eval shape in the tests, CI and
    each benchmark template: every z and |a| a template draws, at its largest
    support and order."""
    shapes = [
        ("both", None, PARTITION_PRODUCT, 1000),  # the Euler spec, here and in CI
        ("both", *ratio_from_json(json.dumps(CI_RATIO)), 60),
        ("series", *ratio_from_json(json.dumps(GOLDEN_RATIONAL_Z)), 60),
        ("both", *ratio_from_json(json.dumps(HUGE_Z)), 2),
    ]
    series_z = ("1/2", "2/3", "-1/3", "3/2", "-2/5", "3/4")
    for z1, z2, z3 in itertools.product(series_z, repeat=3):
        numer, denom = ratio_from_json(
            json.dumps(
                {
                    "numerator": [{"support": {"kind": "multiples", "r": 2}, "z": z1, "a": 2}],
                    "denominator": [
                        {"support": {"kind": "all"}, "z": z2, "a": 2},
                        {"support": {"kind": "multiples", "r": 2}, "z": z3, "a": 1},
                    ],
                }
            )
        )
        shapes.append(("series", numer, denom, 140))
    for zs in itertools.product(("1", "-1", "2", "1/2", "-1/2"), repeat=3):
        for signs in itertools.product((1, 2, -1), repeat=3):
            factors = [{"support": {"kind": "all"}, "z": z, "a": a} for z, a in zip(zs, signs)]
            numer, denom = ratio_from_json(
                json.dumps({"numerator": factors[:1], "denominator": factors[1:]})
            )
            shapes += [("faa", numer, denom, 34), ("both", numer, denom, 32)]
    return shapes


def test_series_budget_leaves_room_for_the_largest_documented_eval():
    # both routes: the budget is 100 times the largest eval shape of the tests and benchmark
    for method, numer, denom, n in largest_documented_evals():
        routes = ("faa", "series") if method == "both" else (method,)
        work = sum(work_estimate(route, numer, denom, n) for route in routes)
        assert 100 * work <= WORK_BUDGET, (method, numer, denom, n)


def test_every_request_ci_runs_is_within_the_budget():
    # CI runs requests up to the budget, without the headroom above: errata at 934 takes
    # 99.7 % of it, p to 10000 on both routes 93.7 % and the ratio spec's series route at
    # 1500 58.9 %; a price drift that would refuse one of them fails here
    euler, ratio = (ratio_from_json(json.dumps(spec)) for spec in (EULER, CI_RATIO))
    kim, faa, series, both = (KIM_NUMERATOR, KIM_DENOMINATOR), ("faa",), ("series",), ("faa", "series")
    evals = [(euler, both, 10000), (euler, faa, 1000), (euler, faa, 3), (kim, series, 2000)]
    evals += [(ratio, series, 1500), (ratio, both, 700), (ratio, both, 60)]
    prices = {
        ("eval", routes, n): sum(work_estimate(route, *sides, n) for route in routes)
        for sides, routes, n in evals
    }
    seqs = [("p", 1000), ("overcubic", 2000)]
    prices |= {("seq", name, n): work_estimate("faa", *SEQUENCES[name], n) for name, n in seqs}
    suites = [(name, default) for name, (_, default) in verify.SUITES.items()]
    suites += [("reciprocal", 474), ("theta", 300)]
    prices |= {("verify", name, n): price("verify", name, "--max", n) for name, n in suites}
    prices |= {("errata", n): report_work(n) for n in (60, 934)}
    assert {request: price for request, price in prices.items() if price > WORK_BUDGET} == {}


def test_eval_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "eval", "--spec", str(tmp_path / "nope.json"), "--max", "3")
    assert code == 2


def test_eval_bad_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "eval", "--spec", str(path), "--max", "3")
    assert code == 2


def test_eval_non_utf8_spec_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"numerator": [], "z": "\xe9"}'.encode("latin-1"))
    code, out, err = run_cli(capsys, "eval", "--spec", str(path), "--max", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("bellforge: error: cannot read spec file")
    assert len(err.splitlines()) == 1


def test_eval_series_takes_kims_quotient_to_2000(capsys, tmp_path):
    # each of its z = 1 families folds by one q-series pass per unit of |a|, inside the budget
    payload = {"numerator": spec_to_json(KIM_NUMERATOR), "denominator": spec_to_json(KIM_DENOMINATOR)}
    path = spec_file(tmp_path, payload)
    code, out, err = run_cli(capsys, "eval", "--spec", path, "--max", "2000", "--method", "series")
    assert (code, err) == (0, "")
    want = unscale(*route_prefix("faa", KIM_NUMERATOR, KIM_DENOMINATOR, 2000))
    assert out == "n,value\n" + "".join(f"{n},{c}\n" for n, c in enumerate(want))


def test_eval_faa_bound_is_fixed(capsys, tmp_path, monkeypatch):
    # the closed sum takes any --max within the one work budget
    path = spec_file(tmp_path, EULER)
    p = sequence("p", 1000, "series")
    # the removed BELLFORGE_FAA_CAP variable changes nothing
    for cap in (None, "8", "100", "not-a-number"):
        if cap is not None:
            monkeypatch.setenv("BELLFORGE_FAA_CAP", cap)
        for top, method in itertools.product((61, 1000), ("faa", "both")):
            argv = ("eval", "--spec", path, "--max", str(top), "--method", method)
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            header = "n,value" if method == "faa" else "n,faa,series,agree"
            both = method == "both"
            rows = [f"{n},{p[n]}" + (f",{p[n]},true" if both else "") for n in range(top + 1)]
            assert out.splitlines() == [header, *rows]


def test_eval_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "eval", "--spec", str(path), "--max", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("bellforge: error: bad spec file")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "factor",
    [
        {"support": {"kind": "all"}, "zz": "1/2", "a": 1},
        {"support": {"kind": "multiples", "r": 2, "set": [1]}, "z": "1", "a": 1},
    ],
)
def test_eval_unknown_spec_keys_exit_2(capsys, tmp_path, factor):
    path = spec_file(tmp_path, {"denominator": [factor]})
    code, out, err = run_cli(capsys, "eval", "--spec", path, "--max", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("bellforge: error: bad spec file: unknown")
    assert len(err.splitlines()) == 1


def test_eval_multiples_support(capsys, tmp_path):
    path = spec_file(
        tmp_path,
        {
            "numerator": [{"support": {"kind": "multiples", "r": 2}, "z": "1", "a": 2}],
            "denominator": [{"support": {"kind": "all"}, "z": "1", "a": 1}],
        },
    )
    code, out, _ = run_cli(capsys, "eval", "--spec", path, "--max", "7", "--method", "both")
    assert code == 0
    values = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert values == ["1", "1", "0", "1", "0", "0", "1", "0"]


def test_verify_unknown_identity_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_suite_names_match_the_suites():
    assert list(SUITE_NAMES) == sorted(verify.SUITES)


def test_verify_theta(capsys):
    code, out, _ = run_cli(capsys, "verify", "theta", "--max", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("# theta:")
    assert all(" pass " in line for line in lines[:-1])


def test_verify_sigma_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "sigma", "--max", "50")
    assert code == 0
    assert len(out.splitlines()) == 51  # 50 verdicts + summary


def test_verify_empty_suite_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "sigma", "--max", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("bellforge: error:") and "no checks" in err
    assert len(err.splitlines()) == 1


def test_verify_euler_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "euler", "--max", "12")
    assert code == 0
    assert "closed=77" in out  # p(12)


def test_verify_euler_enumerates_the_partitions_of_max_once(capsys, monkeypatch):
    from bellforge import partitions

    calls = []
    iterate = partitions.iter_partitions

    def counting_iter(n):
        calls.append(n)
        return iterate(n)

    monkeypatch.setattr(partitions, "iter_partitions", counting_iter)
    code, out, _ = run_cli(capsys, "verify", "euler")
    assert code == 0
    assert calls == [60]
    assert out.splitlines()[-1] == "# euler: 61/61 checks passed (max 60)"
    assert "closed=966467;iter=966467" in out  # p(60)


@pytest.mark.parametrize("n_max", ["80", "1000000000000"])
def test_verify_euler_beyond_the_budget_exits_2_before_work(capsys, n_max):
    # p(N) (N + 1) units: N = 78 is 9.6e8, N = 79 is 1.1e9
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "euler", "--max", n_max)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        f"bellforge: error: verify euler --max {n_max} needs more work than the budget of 1e+09 units\n"
    )


@pytest.mark.parametrize(
    "name, n_max", [("p", "1000000"), ("cubic", "10000"), ("overcubic", "10000")]
)
def test_seq_beyond_the_budget_exits_2_before_work(capsys, name, n_max):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "seq", name, "--max", n_max)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        f"bellforge: error: seq --max {n_max} needs more work than the budget of 1e+09 units\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "sigma", "--max", "100000000"),
        ("verify", "sigma", "--max", "1000000000000"),
        *(
            ("verify", name, "--max", "100000")
            for name in "reciprocal additivity-index additivity-set restricted-recursion chan kim".split()
        ),
        ("verify", "theta", "--max", "1000000"),
        ("errata", "--max", "20000"),
        ("errata", "--max", "1000000000000"),
    ],
    ids=" ".join,
)
def test_verify_and_errata_beyond_the_budget_exit_2_before_work(capsys, argv):
    # each of these ran unpriced, past any timeout, before the suites and errata had a price
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        f"bellforge: error: {' '.join(argv)} needs more work than the budget of 1e+09 units\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "p", "--max", "1000000"),
        ("eval", "--spec", "SPEC", "--method", "faa", "--max", "1500"),
        ("verify", "euler", "--max", "80"),
        ("verify", "sigma", "--max", "100000000"),
        *(
            ("verify", name, "--max", "100000")
            for name in "reciprocal additivity-index additivity-set restricted-recursion chan kim".split()
        ),
        ("verify", "theta", "--max", "1000000"),
        ("errata", "--max", "935"),
        ("bench", "--max", "100000"),
        ("bench", "--max", "0", "--repeat", "1000000000"),
    ],
    ids=lambda argv: " ".join(arg for arg in argv if arg != "SPEC"),
)
def test_every_command_is_refused_before_any_prefix_runs(capsys, monkeypatch, tmp_path, argv):
    # one plan per request, priced and refused by cli.main alone: after the plan is made,
    # no prefix runs, and the refusal is one stderr line
    spec = tmp_path / "ratio.json"
    spec.write_text(json.dumps(CI_RATIO))
    argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
    made, ran, _ = record_runs(monkeypatch, argv[0])
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, len(made), ran) == (2, "", 1, [])
    assert err == f"bellforge: error: {made[0][0]} needs more work than the budget of 1e+09 units\n"


def test_documented_verify_and_errata_sizes_stay_within_the_budget():
    # the defaults, CI's theta at 300 and the benchmark templates' largest sizes
    documented = [(name, default) for name, (_, default) in verify.SUITES.items()]
    documented += [("theta", 300), ("euler", 34), ("reciprocal", 7), ("chan", 20), ("kim", 16)]
    documented += [("theta", 30), ("additivity-index", 20), ("additivity-set", 20)]
    for name, n_max in documented:
        assert price("verify", name, "--max", n_max) <= WORK_BUDGET, (name, n_max)
    # errata's default, CI's 60, the benchmark's 10 and README's 200
    assert all(report_work(n_max) <= WORK_BUDGET for n_max in (8, 10, 60, 200))


def test_seq_p_to_10000_stays_within_the_budget():
    # the largest documented seq request; the budget refuses cubic at the same --max
    assert work_estimate("faa", None, PARTITION_PRODUCT, 10000) <= WORK_BUDGET


@pytest.mark.parametrize("name", ["additivity-index", "reciprocal"])
def test_verify_at_519_runs_every_check(capsys, name):
    # both were refused at 519 while they were priced on the family's costliest spec
    code, out, err = run_cli(capsys, "verify", name, "--max", "519")
    assert (code, err) == (0, "")
    *rows, summary = out.splitlines()
    assert all(" pass " in row for row in rows)
    assert summary == f"# {name}: {len(rows)}/{len(rows)} checks passed (max 519)"


def test_verify_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "verify", "additivity-index", "--max", "8")
    _, second, _ = run_cli(capsys, "verify", "additivity-index", "--max", "8")
    assert first == second


def test_bench_zero(capsys):
    code, out, _ = run_cli(capsys, "bench", "--max", "0", "--repeat", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n_max,method,seconds,agree"
    assert len(lines) == 3
    assert all(line.endswith("true") for line in lines[1:])


def test_bench_small(capsys):
    code, out, _ = run_cli(capsys, "bench", "--max", "15", "--repeat", "1")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert {row[1] for row in rows} == {"closed-sum", "series"}
    assert all(row[3] == "true" for row in rows)


def test_bench_rejects_max_beyond_bound(capsys):
    for argv in (("--max", "100000"), ("--max", "0", "--repeat", str(10**9))):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bench", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("bellforge: error: bench --max") and "budget" in err
        assert len(err.splitlines()) == 1
    # a run well inside the budget still agrees
    code, out, _ = run_cli(capsys, "bench", "--max", "200", "--repeat", "1")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2 * 20
    assert all(row.endswith(",true") for row in rows)


def test_bench_times_the_closed_sum_cold(capsys, monkeypatch):
    extended = []
    real = bellpoly.bell_extend

    def recording(coeffs, weights, n):
        start = len(coeffs)
        real(coeffs, weights, n)
        extended.append((start, len(coeffs) - 1))

    monkeypatch.setattr(bellpoly, "bell_extend", recording)
    run_cli(capsys, "seq", "p", "--max", "20")  # warm the cache first
    extended.clear()
    code, _, _ = run_cli(capsys, "bench", "--max", "20", "--repeat", "3")
    assert code == 0
    # main's check run first, then each repeat of each bucket extends the whole prefix 1..hi from scratch
    assert extended == [(1, 20)] + [(1, 10)] * 3 + [(1, 20)] * 3


def test_errata_json(capsys):
    code, out, _ = run_cli(capsys, "errata", "--max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 6
    assert {entry["name"] for entry in payload} >= {"cubic", "overcubic"}


def test_negative_max_rejected(capsys):
    code, _, err = run_cli(capsys, "seq", "p", "--max", "-1")
    assert code == 2
