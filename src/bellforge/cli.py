"""Command-line front end.

Subcommands:

* ``seq``    — print a named sequence as ``n,value`` rows (CSV or JSON).
* ``eval``   — expand a user-supplied product-ratio spec file.
* ``verify`` — run one of the exact identity suites.
* ``bench``  — time the three partition-count algorithms against each other.
* ``errata`` — print the closed-formula transcription status report.

Exit codes: 0 success, 1 verification/disagreement failure, 2 usage or
parse error, or an ``eval`` or ``bench`` request whose
:func:`~bellforge.bellpoly.work_estimate` exceeds :data:`WORK_BUDGET`.  Data
output is byte-stable for identical inputs; only ``bench`` prints timings.

Each request is a fresh process, so start-up is part of its cost: modules
that only one command or route needs (:mod:`bellforge.verify`,
:mod:`bellforge.errata`, :mod:`bellforge.series`, :mod:`bellforge.partitions`,
``json``) are imported where it runs, and the package namespace loads its
names on first use.  ``seq`` on a closed-sum sequence and
``eval --method faa`` load neither the series route nor the partition
iterator.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .bellpoly import clear_cache, ratio_coefficients, reciprocal_coefficients, work_estimate
from .partfun import InconsistencyError, PARTITION_PRODUCT, SEQUENCES, ratio_series, sequence
from .supports import ratio_from_json

# The keys of verify.SUITES, listed here so that building the parser does
# not import the suites; a test keeps the two equal.
SUITE_NAMES = (
    "additivity-index",
    "additivity-set",
    "chan",
    "euler",
    "kim",
    "reciprocal",
    "restricted-recursion",
    "sigma",
    "theta",
)

# Largest summed bellpoly.work_estimate that eval and bench run: 100 times the largest eval
# of the tests, CI and benchmark, and seconds at 2-25 ns per unit on a 2-vCPU Xeon.
WORK_BUDGET = 10**9


class UsageError(Exception):
    """Bad input that should exit with code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellforge",
        description="Exact partition-function sequences from factored generating products.",
    )
    parser.add_argument("--version", action="version", version=f"bellforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="print a named sequence for n = 0..N")
    seq.add_argument(
        "function",
        choices=list(SEQUENCES),
    )
    seq.add_argument("--max", type=int, required=True, metavar="N")
    seq.add_argument("--format", choices=["csv", "json"], default="csv")
    seq.add_argument("--parts", help="comma-separated parts list, required for w")
    seq.set_defaults(func=cmd_seq)

    ev = sub.add_parser("eval", help="expand a product-ratio spec file")
    ev.add_argument("--spec", required=True, metavar="FILE")
    ev.add_argument("--max", type=int, required=True, metavar="N")
    ev.add_argument("--method", choices=["faa", "series", "both"], default="series")
    ev.set_defaults(func=cmd_eval)

    ver = sub.add_parser("verify", help="run an exact identity suite")
    ver.add_argument("identity", choices=SUITE_NAMES)
    ver.add_argument("--max", type=int, default=None, metavar="N")
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="time the partition-count algorithms")
    bench.add_argument("--max", type=int, default=30, metavar="N")
    bench.add_argument("--repeat", type=int, default=3, metavar="R")
    bench.set_defaults(func=cmd_bench)

    err = sub.add_parser("errata", help="closed-formula transcription status")
    err.add_argument("--max", type=int, default=8, metavar="N")
    err.add_argument("--format", choices=["md", "json"], default="md")
    err.set_defaults(func=cmd_errata)

    return parser


def cmd_seq(args) -> int:
    n_max = _require_max(args.max)
    parts = None
    if args.function == "w":
        if not args.parts:
            raise UsageError("function w needs --parts d1,d2,...")
        parts = _parse_parts(args.parts)
    elif args.parts:
        raise UsageError("--parts only applies to function w")

    values = list(enumerate(sequence(args.function, n_max, parts=parts)))
    if args.format == "csv":
        print("n,value")
        for n, v in values:
            print(f"{n},{v}")
    else:
        params = {"max": n_max}
        if parts is not None:
            params["parts"] = parts
        report = {
            "name": args.function,
            "params": params,
            "values": [[n, str(v)] for n, v in values],
            "verdicts": [],
        }
        import json

        print(json.dumps(report, indent=2))
    return 0


def cmd_eval(args) -> int:
    n_max = _require_max(args.max)
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read spec file: {exc}") from exc
    try:
        numer, denom = ratio_from_json(text)
    except ValueError as exc:
        raise UsageError(f"bad spec file: {exc}") from exc

    routes = ("faa", "series") if args.method == "both" else (args.method,)
    work = sum(work_estimate(route, numer, denom, n_max) for route in routes)
    _check_work(f"--max {n_max} on this spec", work)

    faa = ratio_coefficients(numer, denom, n_max) if "faa" in routes else None
    series = ratio_series(numer, denom, n_max).coeffs[: n_max + 1] if "series" in routes else None
    # the budget bounds every value's bits: print past the digit limit (main restores it)
    getattr(sys, "set_int_max_str_digits", int)(0)
    if args.method != "both":
        print("n,value")
        for n, value in enumerate(faa or series):
            print(f"{n},{value}")
        return 0

    mismatched = False
    print("n,faa,series,agree")
    for n, (left, right) in enumerate(zip(faa, series)):
        agree = left == right
        mismatched |= not agree
        print(f"{n},{left},{right},{str(agree).lower()}")
    return 1 if mismatched else 0


def cmd_verify(args) -> int:
    from .verify import DEFAULT_MAX, run_suite

    if args.max is not None and args.max < 0:
        raise UsageError("--max must be >= 0")
    rows = run_suite(args.identity, args.max)
    if not rows:
        raise UsageError(f"--max {args.max} leaves the {args.identity} suite with no checks")
    failures = 0
    for row in rows:
        status = "pass" if row.ok else "fail"
        print(f"{row.check} n={row.n} {status} lhs={row.lhs} rhs={row.rhs}")
        failures += not row.ok
    limit = DEFAULT_MAX[args.identity] if args.max is None else args.max
    print(f"# {args.identity}: {len(rows) - failures}/{len(rows)} checks passed (max {limit})")
    return 1 if failures else 0


def cmd_bench(args) -> int:
    import time

    n_max = _require_max(args.max)
    if args.repeat < 1:
        raise UsageError("--repeat must be >= 1")
    # buckets 10, 20, ..., n_max; pentagonal is bounded by the closed sum's estimate
    faa, series = (work_estimate(r, None, PARTITION_PRODUCT, n_max) for r in ("faa", "series"))
    runs = (len(range(10, n_max, 10)) + 1) * args.repeat
    _check_work(f"bench --max {n_max} --repeat {args.repeat}", runs * (2 * faa + series))

    from .partitions import pentagonal_values
    from .series import expand_ratio

    def closed_sum(hi):
        clear_cache()  # time the recurrence, not a cached prefix
        return reciprocal_coefficients(PARTITION_PRODUCT, hi)

    methods = {
        "closed-sum": closed_sum,
        "pentagonal": pentagonal_values,
        "series": lambda hi: list(expand_ratio(None, PARTITION_PRODUCT, hi).coeffs),
    }
    buckets = [*range(10, n_max, 10), n_max]

    print("n_max,method,seconds,agree")
    disagreement = False
    for hi in buckets:
        results = {}
        timings = {}
        for name, run in methods.items():
            best = None
            for _ in range(args.repeat):
                start = time.perf_counter()
                values = run(hi)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            results[name] = [int(v) for v in values]
            timings[name] = best
        agree = results["closed-sum"] == results["pentagonal"] == results["series"]
        disagreement |= not agree
        for name in methods:
            print(f"{hi},{name},{timings[name]:.6f},{str(agree).lower()}")
    return 1 if disagreement else 0


def cmd_errata(args) -> int:
    from . import errata

    report = errata.build_report(_require_max(args.max))
    if args.format == "md":
        print(errata.render_markdown(report))
    else:
        print(errata.render_json(report))
    return 0


def _check_work(request: str, work: int) -> None:
    if work > WORK_BUDGET:
        raise UsageError(f"{request} needs more work than the budget of {WORK_BUDGET:.0e} units")


def _require_max(n: int) -> int:
    if n < 0:
        raise UsageError("--max must be >= 0")
    return n


def _parse_parts(text: str) -> list[int]:
    try:
        parts = [int(chunk) for chunk in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad parts list {text!r}") from exc
    if not parts or len(set(parts)) != len(parts) or min(parts) < 1:
        raise UsageError("parts must be distinct integers >= 1")
    return parts


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit to restore
    try:
        return args.func(args)
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
