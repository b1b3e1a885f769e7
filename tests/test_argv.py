"""The CLI's argv matcher against argparse.

``cli.match`` parses well-formed requests without importing argparse.  For
any argv it must either decline (``None``), leaving help, version and errors
to argparse, or return exactly the ``vars()`` that argparse returns."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellforge.cli import COMMANDS, build_parser, main, match

PARSER = build_parser()

FLAGS = sorted({flag for _, _, options, _ in COMMANDS.values() for flag in options})
CHOICES = sorted(
    {c for _, positional, _, _ in COMMANDS.values() if positional for c in positional[1]}
    | {
        c
        for _, _, options, _ in COMMANDS.values()
        for spec in options.values()
        for c in spec.get("choices", ())
    }
)
TOKENS = (
    list(COMMANDS)
    + FLAGS
    + CHOICES
    + [flag[:-1] for flag in FLAGS]  # abbreviations
    + [flag[:4] for flag in FLAGS]
    + ["--max=5", "--format=json", "--parts=1,2", "-h", "--help", "--version", "--", "-"]
    + ["--nope", "-x", "0", "3", "17", "-1", "-5", "x", "1.5", "1_0", " 7 ", "+3", "", "1,2"]
    + ["2,2", "nope", "spec.json"]
)
tokens = st.sampled_from(TOKENS)


def argparse_vars(argv):
    """``vars()`` of argparse's parse of ``argv``, or ``None`` where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def check(argv):
    got = match(argv)
    if got is not None:
        assert got == argparse_vars(argv), argv
    return got


@st.composite
def well_formed(draw):
    """A command with its positional and some options, in any order."""
    command = draw(st.sampled_from(list(COMMANDS)))
    _, positional, options, _ = COMMANDS[command]
    groups = [[draw(st.sampled_from(positional[1]))]] if positional else []
    for flag, spec in options.items():
        if spec.get("required") or draw(st.booleans()):
            if "choices" in spec:
                value = draw(st.sampled_from(spec["choices"]))
            elif spec.get("type") is int:
                value = str(draw(st.integers(0, 10**6)))
            else:
                value = draw(st.sampled_from(["1,2", "", "spec.json", "x"]))
            groups.append([flag, value])
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]


@given(st.lists(tokens, max_size=8))
def test_matcher_agrees_with_argparse_on_any_tokens(argv):
    check(argv)


@given(st.lists(tokens, max_size=7))
def test_matcher_agrees_with_argparse_after_each_command(rest):
    for name in COMMANDS:
        check([name, *rest])


@given(well_formed())
def test_matcher_accepts_well_formed_requests(argv):
    assert check(argv) is not None


@given(well_formed(), tokens, st.integers(1, 20))
def test_matcher_agrees_with_argparse_with_a_stray_token(argv, token, where):
    argv.insert(1 + where % len(argv), token)
    check(argv)


@given(well_formed(), st.integers(1, 20))
def test_matcher_agrees_with_argparse_with_a_dropped_token(argv, where):
    del argv[where % len(argv)]
    check(argv)


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (
            ["seq", "w", "--parts", "", "--max", "3"],
            {"command": "seq", "function": "w", "max": 3, "format": "csv", "parts": ""},
        ),
        (
            ["seq", "--max", "5", "p"],
            {"command": "seq", "function": "p", "max": 5, "format": "csv", "parts": None},
        ),
        (["verify", "chan"], {"command": "verify", "identity": "chan", "max": None}),
        (["bench"], {"command": "bench", "max": 30, "repeat": 3}),
        (
            ["errata", "--format", "json", "--max", "2"],
            {"command": "errata", "max": 2, "format": "json"},
        ),
    ],
)
def test_explicit_accepted_requests(argv, parsed):
    assert match(argv) == parsed == argparse_vars(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "p", "--max", "-1"],  # argparse takes -1 as a value
        ["seq", "p", "--ma", "5"],  # argparse expands the abbreviation
        ["seq", "p", "--max=5"],
        ["seq", "p", "--max", "3", "--max", "4"],  # argparse keeps the last
        ["seq", "p", "--max", "3", "-h"],
        ["seq", "p", "--", "--max", "3"],
        ["seq", "p", "--max", "x"],
        ["seq", "nope", "--max", "3"],
        ["eval", "--max", "3"],
        ["--version"],
        [],
    ],
)
def test_explicit_declined_requests(argv):
    assert match(argv) is None


def test_declined_requests_still_run_through_argparse(capsys):
    assert main(["seq", "p", "--ma", "3"]) == 0
    abbreviated = capsys.readouterr()
    assert main(["seq", "p", "--max", "3"]) == 0
    assert capsys.readouterr() == abbreviated
    assert main(["seq", "p", "--max", "-1"]) == 2
    assert capsys.readouterr().err == "bellforge: error: --max must be >= 0\n"
