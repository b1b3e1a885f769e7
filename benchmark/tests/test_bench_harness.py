"""Tests of the benchmark's own code: request generation, oracle, checks.

Run from the repository root with ``python3 -m pytest benchmark/tests``.
None of these import bellforge.
"""

import json
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from oracle import Oracle, partition_counts, ratio_coefficients, restricted_counts
from tracer import PER_LAYER, tail_percentile
from workloads import WORKLOADS, CliRequest, check_cli, cli_requests

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cli_requests_are_determined_by_seed(workload):
    first = list(islice(cli_requests(workload, 7), 60))
    assert first == list(islice(cli_requests(workload, 7), 60))
    assert first != list(islice(cli_requests(workload, 8), 60))


def test_oracle_matches_known_values():
    assert partition_counts(12) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert restricted_counts([1, 2], 6) == [1, 1, 2, 2, 3, 3, 4]
    # 1 / (1 - t/2) = sum (t/2)^n
    geometric = [{"support": {"kind": "finite", "set": [1]}, "z": "1/2", "a": 1}]
    assert ratio_coefficients([], geometric, 4) == [Fraction(1, 2**n) for n in range(5)]
    # (1 - t)(1 - t^2) = 1 - t - t^2 + t^3
    two = [{"support": {"kind": "finite", "set": [1, 2]}, "z": "1", "a": 1}]
    assert ratio_coefficients(two, [], 4) == [1, -1, -1, 1, 0]
    # the cubic product agrees with its restricted-count form at small n
    cubic = Oracle().sequence("cubic", 3)
    assert cubic == [1, 1, 3, 4]


def _seq_output(values):
    return "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values))


def test_planted_wrong_sequence_value_is_a_failure():
    oracle = Oracle()
    req = CliRequest("seq-p", ("seq", "p", "--max", "10"))
    values = partition_counts(10)
    assert check_cli(req, 0, _seq_output(values), oracle).ok
    planted = values[:]
    planted[7] += 1
    verdict = check_cli(req, 0, _seq_output(planted), oracle)
    assert not verdict.ok and "n=7" in verdict.reason
    assert not check_cli(req, 0, _seq_output(values[:-1]), oracle).ok
    assert not check_cli(req, 1, _seq_output(values), oracle).ok


def test_planted_wrong_eval_value_is_a_failure():
    oracle = Oracle()
    denom = [{"support": {"kind": "all"}, "z": "1/2", "a": 1}]
    spec = json.dumps({"numerator": [], "denominator": denom})
    expected = ratio_coefficients([], denom, 6)
    both = CliRequest("eval-both", ("eval", "--method", "both", "--max", "6"), spec)
    rows = [f"{n},{v},{v},true" for n, v in enumerate(expected)]
    assert check_cli(both, 0, "n,faa,series,agree\n" + "\n".join(rows) + "\n", oracle).ok
    rows[3] = f"3,{expected[3]},{expected[3] + 1},false"
    assert not check_cli(both, 0, "n,faa,series,agree\n" + "\n".join(rows) + "\n", oracle).ok
    series = CliRequest("eval-series", ("eval", "--method", "series", "--max", "6"), spec)
    planted = expected[:]
    planted[6] = -planted[6]
    assert not check_cli(series, 0, _seq_output(planted), oracle).ok


def test_failed_verify_check_is_a_failure():
    oracle = Oracle()
    req = CliRequest("verify-chan", ("verify", "chan", "--max", "1"))
    good = "chan n=0 pass lhs=a rhs=b\nchan n=1 pass lhs=a rhs=b\n# chan: 2/2 checks passed (max 1)\n"
    assert check_cli(req, 0, good, oracle).rows == 2
    bad = good.replace("n=1 pass", "n=1 fail")
    assert not check_cli(req, 0, bad, oracle).ok
    assert not check_cli(req, 0, "garbage", oracle).ok


def test_tail_percentile_keeps_ten_samples_above():
    assert tail_percentile(range(1, 101), 90) == (90, 90)
    # one sample short of p90: the 11th largest, at about p88.9
    q, value = tail_percentile(range(1, 100), 90)
    assert value == 89 and 88 < q < 90
    assert tail_percentile(range(1, 100001), 99.9) == (99.9, 99900)
    assert tail_percentile(range(1, 6), 90) == (50, 3)
    assert tail_percentile([], 90) == (None, 0.0)


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == list(PER_LAYER)
