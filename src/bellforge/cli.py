"""Command-line front end.

Subcommands:

* ``seq``    — print a named sequence as ``n,value`` rows (CSV or JSON).
* ``eval``   — expand a user-supplied product-ratio spec file.
* ``verify`` — run one of the exact identity suites.
* ``bench``  — time the two routes' partition counts against each other.
* ``errata`` — print the closed-formula transcription status report.

Exit codes: 0 success, 1 verification/disagreement failure, 2 usage or
parse error, or a request over :data:`WORK_BUDGET`.  Each command only plans
(its module's ``plan_<command>``) and reports: :func:`main` alone prices the
plan, evaluates each of its prefix requests once, in order, and returns its
report of them.  Data output is byte-stable; only ``bench`` prints timings.

Each request is a fresh process, so start-up is part of its cost.  One table,
:data:`COMMANDS`, defines the arguments: :func:`match` parses a well-formed
request from it without ``argparse``, and only what :func:`match` declines
(help, ``--version``, errors) goes to the ``argparse`` parser that
:func:`build_parser` builds from the same table, so all help, usage and
error text is argparse's.  Each command's body is imported when it runs.
"""

from __future__ import annotations

import sys
from importlib import import_module

from . import __version__
from .arith import InconsistencyError
from .partfun import SEQUENCES, as_counts, prefixes, restricted_spec, work_estimate

# The keys of verify.SUITES, listed here so that parsing does not import the
# suites; a test keeps the two equal.
SUITE_NAMES = tuple(
    "additivity-index additivity-set chan euler kim reciprocal restricted-recursion sigma theta".split()
)

# Largest price in partfun.work_estimate units that any command runs: 100 times the largest
# eval shape of the tests and benchmark templates.  CI runs requests up to the budget itself
# (errata at 934 takes 99.7 % of it).  The estimate bounds integer size, not time: a unit
# took 0.10-40 ns on the closed sum and 0.6-37 ns on the series route (2-vCPU Xeon).
WORK_BUDGET = 10**9

# command -> (help, positional as (dest, choices) or None, {option: add_argument
# keywords}, the module whose plan_<command> plans it)
COMMANDS = {
    "seq": (
        "print a named sequence for n = 0..N",
        ("function", list(SEQUENCES)),
        {
            "--max": {"type": int, "required": True, "metavar": "N"},
            "--format": {"choices": ["csv", "json"], "default": "csv"},
            "--parts": {"help": "comma-separated parts list, required for w"},
        },
        "cli",
    ),
    "eval": (
        "expand a product-ratio spec file",
        None,
        {
            "--spec": {"required": True, "metavar": "FILE"},
            "--max": {"type": int, "required": True, "metavar": "N"},
            "--method": {"choices": ["faa", "series", "both"], "default": "series"},
        },
        "specfile",
    ),
    "verify": (
        "run an exact identity suite",
        ("identity", SUITE_NAMES),
        {"--max": {"type": int, "default": None, "metavar": "N"}},
        "verify",
    ),
    "bench": (
        "time the partition-count algorithms",
        None,
        {
            "--max": {"type": int, "default": 30, "metavar": "N"},
            "--repeat": {"type": int, "default": 3, "metavar": "R"},
        },
        "bench",
    ),
    "errata": (
        "closed-formula transcription status",
        None,
        {
            "--max": {"type": int, "default": 8, "metavar": "N"},
            "--format": {"choices": ["md", "json"], "default": "md"},
        },
        "errata",
    ),
}


class UsageError(Exception):
    """Bad input that should exit with code 2."""


def match(argv) -> dict | None:
    """``vars(build_parser().parse_args(argv))`` for a well-formed request, or
    ``None``: help, ``--version``, unknown, abbreviated, repeated or missing
    options, ``--opt=value``, ``--``, values starting with ``-`` and bad
    choices or ints are all declined, and left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, pending, options, _ = COMMANDS[argv[0]]
    args = {"command": argv[0], **{flag[2:]: spec.get("default") for flag, spec in options.items()}}
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            spec = options.get(token)
            value = next(tokens, "-")
            if spec is None or token in seen or value.startswith("-"):
                return None
            seen.add(token)
            dest, choices = token[2:], spec.get("choices")
            if spec.get("type") is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
        elif pending:
            (dest, choices), value, pending = pending, token, None
        else:
            return None
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    if pending or any(spec.get("required") and flag not in seen for flag, spec in options.items()):
        return None
    return args


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="bellforge",
        description="Exact partition-function sequences from factored generating products.",
    )
    parser.add_argument("--version", action="version", version=f"bellforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, positional, options, _) in COMMANDS.items():
        cmd = sub.add_parser(command, help=text)
        if positional:
            cmd.add_argument(positional[0], choices=positional[1])
        for flag, spec in options.items():
            cmd.add_argument(flag, **spec)
    return parser


def plan_seq(args):
    parts = None
    if args["function"] == "w":
        if args["parts"] is None:
            raise UsageError("function w needs --parts d1,d2,...")
        parts = _parse_parts(args["parts"])
    elif args["parts"] is not None:
        raise UsageError("--parts only applies to function w")
    spec = restricted_spec(parts) if parts else SEQUENCES[args["function"]]
    def report(prefix) -> int:
        values = list(enumerate(as_counts(args["function"], *prefix)))
        if args["format"] == "csv":
            print("n,value")
            for n, v in values:
                print(f"{n},{v}")
            return 0
        import json

        params = {"max": args["max"], **({} if parts is None else {"parts": parts})}
        values = [[n, str(v)] for n, v in values]
        doc = {"name": args["function"], "params": params, "values": values, "verdicts": []}
        print(json.dumps(doc, indent=2))
        return 0
    return f"seq --max {args['max']}", [("faa", spec, args["max"])], [1], 0, report


def _parse_parts(text: str) -> list[int]:
    # ASCII digits only, as for a spec's z: int() alone also reads "+1", " 1", "1_0" and "٢"
    chunks = text.split(",")
    try:
        if not all(chunk.isascii() and chunk.isdigit() for chunk in chunks):
            raise ValueError(text)
        parts = [int(chunk) for chunk in chunks]
    except ValueError as exc:  # also a chunk past the int() digit limit
        raise UsageError(f"bad parts list {text!r}") from exc
    if not parts or len(set(parts)) != len(parts) or min(parts) < 1:
        raise UsageError("parts must be distinct integers >= 1")
    return parts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = match(argv)
    if args is None:
        args = vars(build_parser().parse_args(argv))
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit to restore
    try:
        if args["max"] is not None and args["max"] < 0:
            raise UsageError("--max must be >= 0")
        module = import_module(f"{__package__}.{COMMANDS[args['command']][3]}")
        label, requests, copies, extra, report = getattr(module, f"plan_{args['command']}")(args)
        work = sum(c * work_estimate(*request) for c, request in zip(copies, requests, strict=True))
        if work + extra > WORK_BUDGET:
            raise UsageError(f"{label} needs more work than the budget of {WORK_BUDGET:.0e} units")
        return report(*prefixes(requests))
    except UsageError as exc:
        print(f"bellforge: error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"bellforge: inconsistency: {exc}", file=sys.stderr)
        return 1
    finally:
        getattr(sys, "set_int_max_str_digits", int)(limit)


if __name__ == "__main__":
    sys.exit(main())
