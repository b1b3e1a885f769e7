import json
import time
from math import isqrt

import pytest

from bellforge import verify
from bellforge.cli import SERIES_STEP_BUDGET, SUITE_NAMES, main
from bellforge.series import exp_log_expand, expand_steps
from bellforge.supports import ratio_from_json


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


def test_eval_series_golden_rational_z(capsys, tmp_path):
    payload = {
        "numerator": [
            {"support": {"kind": "multiples", "r": 2}, "z": "2/3", "a": 2},
            {"support": {"kind": "finite", "set": [1, 4]}, "z": "-2/5", "a": -1},
        ],
        "denominator": [{"support": {"kind": "all"}, "z": "3/2", "a": 1}],
    }
    path = spec_file(tmp_path, payload)
    code, out, _ = run_cli(capsys, "eval", "--spec", path, "--max", "60", "--method", "series")
    assert code == 0
    numer, denom = ratio_from_json(json.dumps(payload))
    want = exp_log_expand(numer, 60).mul(exp_log_expand(denom.negated(), 60))
    assert want.coefficient(60).denominator > 1
    assert out == "n,value\n" + "".join(f"{n},{c}\n" for n, c in enumerate(want.coeffs))


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


@pytest.mark.parametrize("method", ["series", "both"])
def test_eval_huge_exponent_exits_2_before_work(capsys, tmp_path, method):
    path = spec_file(tmp_path, HUGE_EXPONENT)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--spec", path, "--max", "5", "--method", method)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    # 10^8 fold passes of 5 steps, plus 15 for the reciprocal
    assert err == (
        "bellforge: error: --max 5 on this spec needs about 500000015 series steps, "
        f"over the budget of {SERIES_STEP_BUDGET}\n"
    )


def test_eval_huge_order_exits_2_before_work(capsys, tmp_path):
    # one fold pass, but the reciprocal alone is order^2 / 2 steps
    path = spec_file(
        tmp_path,
        {"denominator": [{"support": {"kind": "finite", "set": [1]}, "z": "1", "a": 1}]},
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--spec", path, "--max", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "series steps" in err


def test_series_budget_leaves_room_for_the_largest_documented_eval():
    # the largest eval shape of the benchmark mix: order 140, |a| <= 2, and
    # every factor at its largest support
    numer, denom = ratio_from_json(
        json.dumps(
            {
                "numerator": [{"support": {"kind": "multiples", "r": 2}, "z": "2/3", "a": 2}],
                "denominator": [
                    {"support": {"kind": "all"}, "z": "3/2", "a": 2},
                    {"support": {"kind": "multiples", "r": 2}, "z": "-2/5", "a": 1},
                ],
            }
        )
    )
    assert 100 * expand_steps(numer, denom, 140) <= SERIES_STEP_BUDGET


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


def test_eval_faa_respects_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BELLFORGE_FAA_CAP", "8")
    path = spec_file(
        tmp_path,
        {"denominator": [{"support": {"kind": "all"}, "z": "1", "a": 1}]},
    )
    code, _, err = run_cli(capsys, "eval", "--spec", path, "--max", "9", "--method", "faa")
    assert code == 2
    assert "cap" in err
    code, out, _ = run_cli(capsys, "eval", "--spec", path, "--max", "8", "--method", "faa")
    assert code == 0
    assert out.splitlines()[-1] == "8,22"


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


def test_verify_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "verify", "additivity-index", "--max", "8")
    _, second, _ = run_cli(capsys, "verify", "additivity-index", "--max", "8")
    assert first == second


def test_bench_zero(capsys):
    code, out, _ = run_cli(capsys, "bench", "--max", "0", "--repeat", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n_max,method,seconds,agree"
    assert len(lines) == 4
    assert all(line.endswith("true") for line in lines[1:])


def test_bench_small(capsys):
    code, out, _ = run_cli(capsys, "bench", "--max", "15", "--repeat", "1")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert {row[1] for row in rows} == {"closed-sum", "pentagonal", "series"}
    assert all(row[3] == "true" for row in rows)


def test_bench_rejects_max_beyond_cap(capsys, monkeypatch):
    monkeypatch.setenv("BELLFORGE_FAA_CAP", "10")
    code, _, err = run_cli(capsys, "bench", "--max", "11")
    assert code == 2
    assert "cap" in err


def test_errata_json(capsys):
    code, out, _ = run_cli(capsys, "errata", "--max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 6
    assert {entry["name"] for entry in payload} >= {"cubic", "overcubic"}


def test_negative_max_rejected(capsys):
    code, _, err = run_cli(capsys, "seq", "p", "--max", "-1")
    assert code == 2
