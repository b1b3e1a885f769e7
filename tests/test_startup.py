"""What a CLI request imports: each command loads only the modules it uses.

Every request is a fresh ``python -m bellforge`` process, so an unused import
is paid on every request.  The checks run the package's ``__main__`` in a
child interpreter and list the modules that the run added."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["bellforge", *sys.argv[1:]]
try:
    runpy.run_module("bellforge", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
sys.stderr.write("\\n" + " ".join(sorted(set(sys.modules) - before)) + "\\n")
sys.exit(code)
"""

# never needed by a request
HEAVY = {"dataclasses", "inspect", "bellforge.errata"}
# the series route and the partition iterator, unused by the closed sum
SERIES_ROUTE = {"bellforge.series", "bellforge.partitions"}
# the argparse parser and what it imports, needed only for help and errors
ARGPARSE = {"argparse", "gettext", "locale"}
# loaded by other commands only, or by none
OTHER_COMMANDS = {"bellforge.specfile", "bellforge.bench", "bellforge.divisors"}


def run_child(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_by(*argv):
    return set(run_child("-c", CHILD, *argv).stderr.splitlines()[-1].split())


def test_seq_loads_neither_suites_nor_json():
    loaded = loaded_by("seq", "p", "--max", "1")
    assert "bellforge.cli" in loaded
    assert not loaded & (HEAVY | SERIES_ROUTE | ARGPARSE | OTHER_COMMANDS | {"bellforge.verify", "json"})


@pytest.mark.parametrize("name", ["psi-star", "phi-star"])
def test_theta_sequences_take_the_closed_sum(name):
    # every named sequence runs the closed sum; only verify and errata ask for the oracle
    loaded = loaded_by("seq", name, "--max", "1")
    assert "bellforge.bellpoly" in loaded
    assert not loaded & (SERIES_ROUTE | ARGPARSE | OTHER_COMMANDS)


def test_seq_loads_no_threading():
    # -S keeps the site's own imports, which may load threading, from hiding it
    loaded = set(run_child("-S", "-c", CHILD, "seq", "p", "--max", "1").stderr.splitlines()[-1].split())
    assert "bellforge.bellpoly" in loaded
    assert "threading" not in loaded


def test_seq_compiles_under_775_lines():
    # every request compiles its modules when no bytecode cache is written
    code = """
import runpy, sys
sys.argv = ["bellforge", "seq", "p", "--max", "1"]
try:
    runpy.run_module("bellforge", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
for name in sorted(m for m in sys.modules if m.startswith("bellforge")):
    with open(sys.modules[name].__file__, encoding="utf-8") as fh:
        print(name, len(fh.readlines()), file=sys.stderr)
"""
    sizes = dict(line.split() for line in run_child("-c", code).stderr.splitlines())
    assert set(sizes) == {f"bellforge{m}" for m in ("", ".cli", ".arith", ".supports", ".bellpoly", ".partfun")}
    assert sum(map(int, sizes.values())) < 775, sizes


# source lines that each shape of the benchmark's requests compiles, bounded just above
# its count (seq's bound is the test above): without a bytecode cache, compiling is most
# of bellforge's share of a request
SHAPES = {
    "verify-chan": (("verify", "chan", "--max", "14"), 1370),
    "verify-euler": (("verify", "euler", "--max", "30"), 1418),
    "verify-reciprocal": (("verify", "reciprocal", "--max", "5"), 1117),
    "errata-json": (("errata", "--max", "8", "--format", "json"), 1138),
    "eval-series": (("eval", "--spec", "SPEC", "--max", "100", "--method", "series"), 1153),
}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_request_shapes_compile_under_their_bounds(shape, tmp_path):
    argv, bound = SHAPES[shape]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"denominator": [{"support": {"kind": "all"}, "z": "1/2", "a": 1}]}))
    code = """
import runpy, sys
sys.argv = ["bellforge", *sys.argv[1:]]
try:
    runpy.run_module("bellforge", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
for name in sorted(m for m in sys.modules if m.startswith("bellforge")):
    with open(sys.modules[name].__file__, encoding="utf-8") as fh:
        print(name, len(fh.readlines()), file=sys.stderr)
"""
    argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
    lines = run_child("-c", code, *argv).stderr.splitlines()
    sizes = dict(line.split() for line in lines if line.startswith("bellforge"))
    assert sum(map(int, sizes.values())) <= bound, sizes


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "cubic", "--max", "5", "--format", "json"),
        ("seq", "w", "--max", "4", "--parts", "1,2"),
        ("eval", "--spec", "SPEC", "--max", "5", "--method", "both"),
        ("verify", "sigma", "--max", "3"),
        ("verify", "chan"),
        ("errata", "--max", "2", "--format", "json"),
    ],
)
def test_well_formed_requests_never_import_argparse(argv, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"denominator": [{"support": {"kind": "all"}, "z": "1/2", "a": 1}]}))
    loaded = loaded_by(*(str(spec) if arg == "SPEC" else arg for arg in argv))
    assert not loaded & ARGPARSE


@pytest.mark.parametrize("argv", [("--help",), ("seq", "--help")])
def test_help_still_comes_from_argparse(argv):
    proc = run_child("-c", CHILD, *argv)
    assert proc.stdout.startswith("usage: bellforge")
    assert ARGPARSE <= set(proc.stderr.splitlines()[-1].split())


def test_closed_sum_requests_load_no_series_route(tmp_path):
    # partfun loads the series route only when a request runs or prices it
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"denominator": [{"support": {"kind": "all"}, "z": "1/2", "a": 1}]}))
    loaded = loaded_by("eval", "--spec", str(spec), "--max", "5", "--method", "faa")
    assert "bellforge.bellpoly" in loaded and "bellforge.specfile" in loaded
    assert not loaded & (HEAVY | SERIES_ROUTE | {"bellforge.verify", "bellforge.bench"})
    for suite in ("reciprocal", "additivity-index", "additivity-set"):
        loaded = loaded_by("verify", suite)
        assert "bellforge.verify" in loaded
        assert not loaded & (HEAVY | SERIES_ROUTE)


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


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "p"),
        ("seq", "w", "--parts", "1,2"),
        ("seq", "cubic"),
        ("seq", "overcubic"),
        ("seq", "psi-star"),
        ("seq", "phi-star"),
    ],
    ids=lambda argv: argv[1],
)
def test_closed_sum_requests_load_no_series_route_for_seq(argv):
    # a module-level series import in partfun would show here for every name
    loaded = loaded_by(*argv, "--max", "5")
    assert "bellforge.bellpoly" in loaded
    assert not loaded & (HEAVY | SERIES_ROUTE | ARGPARSE | OTHER_COMMANDS | {"bellforge.verify"})


def test_eval_series_loads_json_but_not_suites(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"denominator": [{"support": {"kind": "all"}, "z": "1/2", "a": 1}]}))
    loaded = loaded_by("eval", "--spec", str(spec), "--max", "5", "--method", "series")
    assert "json" in loaded
    assert not loaded & (HEAVY | {"bellforge.verify"})


@pytest.mark.parametrize("argv", [("verify", "chan", "--max", "2"), ("verify", "chan")])
def test_verify_loads_its_suites_only(argv):
    loaded = loaded_by(*argv)
    assert "bellforge.verify" in loaded
    # only the sigma suite reads the divisor sums
    assert not loaded & (HEAVY | {"json", "bellforge.divisors"})


def test_errata_loads_no_divisor_sums():
    # its printed sums are product specs read by the closed sum, not sigma tables
    loaded = loaded_by("errata", "--max", "2", "--format", "json")
    assert "bellforge.errata" in loaded
    assert not loaded & {"bellforge.divisors", "bellforge.verify", "bellforge.partitions"}


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
        "exp_log_expand"
    ).split()
    for name in removed:
        with pytest.raises(AttributeError):
            getattr(bellforge, name)
        assert name not in bellforge.__all__
    assert len(bellforge.__all__) == 18
    assert bellforge.sequence is importlib.import_module("bellforge.partfun").sequence
    assert importlib.util.find_spec("bellforge.fourfactor") is None
    checks = "IdentityReport index_additivity_report set_additivity_report restricted_recursion_report"
    for name in checks.split():
        assert getattr(bellforge, name).__module__ == "bellforge.verify"

