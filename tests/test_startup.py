"""What a CLI request imports: each command loads only the modules it uses.

Every request is a fresh ``python -m bellforge`` process, so an unused import
is paid on every request, and without a bytecode cache each of its
``bellforge`` modules is compiled.  ``SHAPES`` has a row for each shape of the
benchmark's requests and for a few more requests.  Each row's request runs
once, under ``tests/startup_probe.py`` in a ``python -S`` child, and the tests
below read what it loaded and compiled."""

import ast
import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SERIES, PARTITIONS = {"bellforge.series"}, {"bellforge.partitions"}
# the series route and the partition iterator, unused by the closed sum
SERIES_ROUTE = SERIES | PARTITIONS
# the modules of seq on the closed sum
CLOSED_SUM = {f"bellforge{m}" for m in ("", ".cli", ".arith", ".supports", ".bellpoly", ".partfun")}
EVAL = CLOSED_SUM | {"bellforge.specfile", "json"}
VERIFY = CLOSED_SUM | {"bellforge.verify"}
# loaded only by a suite that draws its instances from a seed
RANDOM = {"random"}
# each loaded by its own command only (divisors by verify sigma)
COMMANDS = {f"bellforge.{m}" for m in ("specfile", "verify", "errata", "bench", "divisors")}
# the argparse parser and what it imports, needed only for help and errors
ARGPARSE = {"argparse", "gettext", "locale"}
# fractions and what it imports: a count is an int, and only a printed non-integer needs them,
# so neither seq nor a suite that compares counts loads them
FRACTIONS = {"fractions", "decimal", "numbers"}
SEQ_ABSENT = ARGPARSE | SERIES_ROUTE | COMMANDS | FRACTIONS
EVAL_ABSENT = ARGPARSE | PARTITIONS | COMMANDS - {"bellforge.specfile"}
VERIFY_ABSENT = ARGPARSE | {"json"} | COMMANDS - {"bellforge.verify"}
# the series-route suites that compare counts: no partition iterator, no fractions and no draws
COUNTS_ABSENT = VERIFY_ABSENT | PARTITIONS | FRACTIONS | RANDOM


def row(argv, loads, absent, bound):
    # no request needs these; under -S the site's own imports cannot hide them
    return tuple(argv.split()), loads, absent | {"dataclasses", "inspect", "threading", "typing"}, bound


# name -> (argv, must load, must not load, bound on the source lines that it compiles);
# seq rows are named by their sequence, and SPEC stands for a spec file
SHAPES = {
    "p": row("seq p --max 5", CLOSED_SUM, SEQ_ABSENT | {"json"}, 774),
    "w": row("seq w --max 4 --parts 1,2", CLOSED_SUM, SEQ_ABSENT | {"json"}, 745),
    "cubic": row("seq cubic --max 5", CLOSED_SUM, SEQ_ABSENT | {"json"}, 745),
    "overcubic": row("seq overcubic --max 5", CLOSED_SUM, SEQ_ABSENT | {"json"}, 745),
    "psi-star": row("seq psi-star --max 5", CLOSED_SUM, SEQ_ABSENT | {"json"}, 745),
    "phi-star": row("seq phi-star --max 5", CLOSED_SUM, SEQ_ABSENT | {"json"}, 745),
    "cubic-json": row("seq cubic --max 5 --format json", CLOSED_SUM | {"json"}, SEQ_ABSENT, 745),
    "eval-faa": row("eval --spec SPEC --max 5 --method faa", EVAL, EVAL_ABSENT | SERIES, 900),
    "eval-both": row("eval --spec SPEC --max 5 --method both", EVAL | SERIES, EVAL_ABSENT, 1153),
    "eval-series": row("eval --spec SPEC --max 100 --method series", EVAL | SERIES, EVAL_ABSENT, 1153),
    "verify-euler": row(
        "verify euler --max 30", VERIFY | SERIES_ROUTE, VERIFY_ABSENT | FRACTIONS | RANDOM, 1380
    ),
    "verify-reciprocal": row("verify reciprocal --max 5", VERIFY | RANDOM, VERIFY_ABSENT | SERIES_ROUTE, 1086),
    "verify-additivity-index": row(
        "verify additivity-index --max 4", VERIFY | RANDOM, VERIFY_ABSENT | SERIES_ROUTE, 1086
    ),
    "verify-additivity-set": row("verify additivity-set --max 4", VERIFY | RANDOM, VERIFY_ABSENT | SERIES_ROUTE, 1086),
    "verify-chan": row("verify chan --max 14", VERIFY | SERIES, COUNTS_ABSENT, 1332),
    "verify-kim": row("verify kim --max 4", VERIFY | SERIES, COUNTS_ABSENT, 1332),
    "verify-theta": row("verify theta --max 5", VERIFY | SERIES, COUNTS_ABSENT, 1332),
    "verify-chan-default": row("verify chan", VERIFY | SERIES, COUNTS_ABSENT, 1332),
    "verify-sigma": row(
        "verify sigma --max 3", VERIFY | {"bellforge.divisors"},
        VERIFY_ABSENT - {"bellforge.divisors"} | SERIES_ROUTE | FRACTIONS | RANDOM, 1152,
    ),
    "errata-json": row(
        "errata --max 8 --format json", CLOSED_SUM | SERIES | {"bellforge.errata", "json"},
        ARGPARSE | PARTITIONS | COMMANDS - {"bellforge.errata"}, 1097,
    ),
    "help": row("--help", CLOSED_SUM | ARGPARSE, SERIES_ROUTE | COMMANDS | FRACTIONS, 745),
    "seq-help": row("seq --help", CLOSED_SUM | ARGPARSE, SERIES_ROUTE | COMMANDS | FRACTIONS, 745),
}


def run_child(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """``(stdout, {module the request added: its line count, or "" if not bellforge's})``
    of a row, from one child per row."""
    spec = tmp_path_factory.mktemp("shapes") / "spec.json"
    spec.write_text(json.dumps({"denominator": [{"support": {"kind": "all"}, "z": "1/2", "a": 1}]}))

    @functools.cache
    def run(name):
        argv = [str(spec) if arg == "SPEC" else arg for arg in SHAPES[name][0]]
        proc = run_child("-S", str(Path(__file__).with_name("startup_probe.py")), *argv)
        return proc.stdout, dict(line.partition(" ")[::2] for line in proc.stderr.splitlines())
    return run


def loads(probe, name):
    """Check the row's load entries."""
    _, must, absent, _ = SHAPES[name]
    loaded = set(probe(name)[1])
    assert must - loaded == set() and loaded & absent == set(), name


def argv_ids(*names):
    # the ids that these tests had when they were parametrized by argv
    return pytest.mark.parametrize("name", names, ids=[f"argv{i}" for i in range(len(names))])


@pytest.mark.parametrize("name", list(SHAPES))
def test_request_shapes_compile_under_their_bounds(probe, name):
    sizes = {module: int(lines) for module, lines in probe(name)[1].items() if lines}
    assert sum(sizes.values()) <= SHAPES[name][3], sizes


def test_seq_compiles_under_775_lines(probe):
    test_request_shapes_compile_under_their_bounds(probe, "p")


# each test below checks every load entry of the rows that it names; together they read every row
def test_seq_loads_neither_suites_nor_json(probe):
    loads(probe, "p")


def test_seq_loads_no_threading(probe):
    loads(probe, "p")


@pytest.mark.parametrize("name", ["p", "w", "cubic", "overcubic", "psi-star", "phi-star"])
def test_closed_sum_requests_load_no_series_route_for_seq(probe, name):
    loads(probe, name)


@pytest.mark.parametrize("name", ["psi-star", "phi-star"])
def test_theta_sequences_take_the_closed_sum(probe, name):
    loads(probe, name)


def test_closed_sum_requests_load_no_series_route(probe):
    for name in ("eval-faa", "verify-reciprocal", "verify-additivity-index", "verify-additivity-set"):
        loads(probe, name)


def test_eval_series_loads_json_but_not_suites(probe):
    loads(probe, "eval-series")


@argv_ids("verify-chan", "verify-chan-default", "verify-euler", "verify-kim", "verify-theta")
def test_verify_loads_its_suites_only(probe, name):
    loads(probe, name)


def test_errata_loads_no_divisor_sums(probe):
    loads(probe, "errata-json")


@argv_ids("cubic-json", "w", "eval-both", "verify-sigma", "verify-chan-default", "errata-json")
def test_well_formed_requests_never_import_argparse(probe, name):
    loads(probe, name)


@argv_ids("help", "seq-help")
def test_help_still_comes_from_argparse(probe, name):
    loads(probe, name)
    assert probe(name)[0].startswith("usage: bellforge")


def test_only_partfun_names_both_routes():
    # neither route module imports the other, and bench runs both through partfun's lookup
    def imported(module):
        tree = ast.parse((SRC / "bellforge" / f"{module}.py").read_text(encoding="utf-8"))
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found |= {node.module} if node.module else {alias.name for alias in node.names}
        return found

    assert "series" not in imported("bellpoly") and "bellpoly" not in imported("series")
    assert not imported("bench") & {"bellpoly", "series"}
    assert {"bellpoly", "series"} <= imported("partfun")


def test_only_cli_prices_and_refuses():
    # each command only plans its request; cli.main alone prices the plan and refuses it
    def refusals(tree):
        return [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and "needs more work than the budget" in str(node.value)
        ]

    priced = {"check_work", "_check_work", "work_estimate", "kernel_size"}
    for path in sorted((SRC / "bellforge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
        called = {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        if path.stem in ("verify", "errata", "specfile", "bench"):
            assert not (imported | called) & priced, path.stem
        if path.stem != "cli":
            assert not called & {"check_work", "_check_work"} and not refusals(tree), path.stem
    tree = ast.parse((SRC / "bellforge" / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert len(refusals(tree)) == 1 and refusals(tree) == refusals(main)



def test_import_loads_no_submodule():
    code = "import sys, bellforge; print(sorted(m for m in sys.modules if m.startswith('bellforge.')))"
    assert run_child("-c", code).stdout.strip() == "[]"


def test_public_names_resolve_to_their_submodules():
    import bellforge

    for name in bellforge.__all__:
        obj = getattr(bellforge, name)
        assert obj.__module__.startswith("bellforge.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    namespace = {}
    exec("from bellforge import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(bellforge.__all__)
    assert len(bellforge.__all__) == len(set(bellforge.__all__))


def test_unknown_names_and_dir():
    import bellforge

    with pytest.raises(AttributeError, match="no_such_name"):
        bellforge.no_such_name
    assert not hasattr(bellforge, "kernel_size")  # public in its module, not exported
    listed = dir(bellforge)
    assert "__all__" in listed and "__version__" in listed
    assert set(bellforge.__all__) <= set(listed)


def test_test_only_oracles_are_not_exported():
    import bellforge

    removed = (
        "partition_power_sum divisor_power_sum log_weight log_weight_table "
        "count_exact_parts count_restricted_bruteforce restricted_divisor_sum indicator ratio_series "
        # each re-spelled ratio_coefficients or expand_ratio with a side left None
        "product_coefficient product_coefficients reciprocal_coefficient reciprocal_coefficients "
        "ratio_coefficient expand_product count_partitions FourFactorSpec four_factor_coefficient "
        # each read one value of a prefix that partfun.sequence or route_prefix returns
        "partition_function restricted_partition_count cubic_partition_count "
        "overcubic_partition_count ramanujan_psi_coefficient ramanujan_phi_coefficient "
        "chan_product_coefficient kim_product_coefficient "
        # the series route computes p (by Cauchy's Durfee-square sum)
        "pentagonal_values "
        # a test-only oracle, in tests/reference.py
        "exp_log_expand "
        # the Fraction series that the tests and the benchmark's tracer read from bellforge.series
        "TruncatedSeries"
    ).split()
    for name in removed:
        with pytest.raises(AttributeError):
            getattr(bellforge, name)
        assert name not in bellforge.__all__
    assert len(bellforge.__all__) == 19
    assert bellforge.ratio is importlib.import_module("bellforge.supports").ratio
    assert bellforge.sequence is importlib.import_module("bellforge.partfun").sequence
    assert importlib.util.find_spec("bellforge.fourfactor") is None
    checks = "IdentityReport index_additivity_report set_additivity_report restricted_recursion_report"
    for name in checks.split():
        assert getattr(bellforge, name).__module__ == "bellforge.verify"

