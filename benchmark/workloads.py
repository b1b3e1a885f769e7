"""Request generators and output checks for the CLI workloads.

Every input is drawn from ``random.Random`` seeded with a string built from
the workload name and the ``--seed`` value, so one seed always yields the
same requests in the same order.  Nothing here imports bellforge: the CLI
workloads hand the program only argument lists and spec files.

The CLI generators cycle through a fixed list of request templates, shuffled
per cycle.  Each template draws its size from a narrow range, so the mix of
request kinds is the same for every seed while the exact inputs vary.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import Oracle

WORKLOADS = ("cli-closed-sum", "cli-series")

# the trivial request whose spawn-to-exit time is the CLI set-up time
SETUP_ARGV = ("seq", "p", "--max", "1")

# Percentile reported as req_tail_s.  Each is the highest of 50/90/99/99.9
# that leaves at least ten samples above it in a run at the commit that
# defined the benchmark (45 s runs), with room to spare.  It is fixed so that
# a faster program, which yields more samples, is not measured at a higher
# percentile; a slower one that yields too few falls back to a lower one.
TAIL_PERCENTILE = {"cli-closed-sum": 90, "cli-series": 90}


@dataclass(frozen=True)
class CliRequest:
    """One ``bellforge`` invocation; ``spec`` is the JSON ratio spec that
    the runner writes to a file and passes as ``--spec`` (``eval`` only)."""

    template: str
    argv: tuple[str, ...]
    spec: str | None = None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _support(rng: random.Random) -> dict:
    kind = rng.randrange(3)
    if kind == 0:
        return {"kind": "all"}
    if kind == 1:
        return {"kind": "multiples", "r": rng.randint(1, 3)}
    return {"kind": "finite", "set": sorted(rng.sample(range(1, 9), rng.randint(2, 4)))}


def _factor(support: dict, z: str, a: int) -> dict:
    return {"support": support, "z": z, "a": a}


_FAA_Z = ("1", "-1", "2", "1/2", "-1/2")
_FAA_A = (1, 2, -1)
_SERIES_Z = ("1/2", "2/3", "-1/3", "3/2", "-2/5", "3/4")


def closed_sum_ratio(rng: random.Random) -> tuple[list, list]:
    """A ratio for the closed-sum route: up to one numerator factor and one
    or two denominator factors, small z and exponents."""
    numer = [_factor(_support(rng), rng.choice(_FAA_Z), rng.choice(_FAA_A)) for _ in range(rng.randint(0, 1))]
    denom = [_factor(_support(rng), rng.choice(_FAA_Z), rng.choice(_FAA_A)) for _ in range(rng.randint(1, 2))]
    return numer, denom


def series_ratio(rng: random.Random) -> tuple[list, list]:
    """A ratio for the series route: a full-support denominator factor with
    a non-integer z, so coefficient denominators grow with n, over a sparser
    numerator."""
    numer = [_factor({"kind": "multiples", "r": rng.randint(2, 3)}, rng.choice(_SERIES_Z), rng.randint(1, 2))]
    denom = [_factor({"kind": "all"}, rng.choice(_SERIES_Z), rng.randint(1, 2))]
    if rng.random() < 0.5:
        denom.append(_factor({"kind": "multiples", "r": rng.randint(2, 4)}, rng.choice(_SERIES_Z), 1))
    return numer, denom


def _spec_text(numer, denom) -> str:
    return json.dumps({"numerator": numer, "denominator": denom}, sort_keys=True)


def _seq(name, lo, hi):
    def make(rng):
        return CliRequest(f"seq-{name}", ("seq", name, "--max", str(rng.randint(lo, hi))))
    return make


def _seq_w(lo, hi):
    def make(rng):
        parts = sorted([1] + rng.sample(range(2, 10), rng.randint(2, 3)))
        argv = ("seq", "w", "--parts", ",".join(map(str, parts)), "--max", str(rng.randint(lo, hi)))
        return CliRequest("seq-w", argv)
    return make


def _eval(method, ratio, lo, hi):
    def make(rng):
        spec = _spec_text(*ratio(rng))
        argv = ("eval", "--method", method, "--max", str(rng.randint(lo, hi)))
        return CliRequest(f"eval-{method}", argv, spec)
    return make


def _verify(identity, lo, hi):
    def make(rng):
        return CliRequest(f"verify-{identity}", ("verify", identity, "--max", str(rng.randint(lo, hi))))
    return make


def _errata(lo, hi):
    def make(rng):
        return CliRequest("errata", ("errata", "--max", str(rng.randint(lo, hi)), "--format", "json"))
    return make


# Request templates per CLI workload.  cli-closed-sum keeps every size at or
# below the closed-sum cap (60) and spends its time in the partition sum;
# cli-series uses only the series route.
TEMPLATES = {
    "cli-closed-sum": (
        _seq("p", 36, 39),
        _seq("cubic", 35, 38),
        _seq("overcubic", 33, 36),
        _seq_w(36, 42),
        _eval("faa", closed_sum_ratio, 30, 34),
        _eval("both", closed_sum_ratio, 28, 32),
        _verify("euler", 30, 34),
        _verify("reciprocal", 5, 7),
        _verify("additivity-index", 16, 20),
        _verify("additivity-set", 16, 20),
        _errata(8, 10),
    ),
    "cli-series": (
        _seq("psi-star", 42, 50),
        _seq("phi-star", 32, 38),
        _eval("series", series_ratio, 100, 140),
        _eval("series", series_ratio, 100, 140),
        _verify("chan", 14, 20),
        _verify("kim", 12, 16),
        _verify("theta", 22, 30),
    ),
}


def cli_requests(workload: str, seed: int):
    """Endless, seed-determined stream of requests for a CLI workload."""
    rng = _rng(workload, seed)
    templates = list(TEMPLATES[workload])
    while True:
        order = templates[:]
        rng.shuffle(order)
        for make in order:
            yield make(rng)


# --- output checks -------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    ok: bool
    rows: int
    reason: str = ""


def _option(argv, name):
    return argv[argv.index(name) + 1]


def _csv_rows(stdout: str, header: str):
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _check_values(rows, expected) -> str:
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for n, (row, want) in enumerate(zip(rows, expected)):
        if int(row[0]) != n or Fraction(row[1]) != want:
            return f"n={n}: got {row[1]}, expected {want}"
    return ""


_ERRATA_REFERENCE = {
    "cubic": ("cubic", lambda n: n),
    "cubic-progression": ("cubic", lambda n: 3 * n + 2),
    "overcubic": ("overcubic", lambda n: n),
    "overcubic-progression": ("overcubic", lambda n: 3 * n + 2),
    "triangular-theta": ("psi-star", lambda n: n),
    "square-theta": ("phi-star", lambda n: n),
}


def check_cli(req: CliRequest, returncode: int, stdout: str, oracle: Oracle) -> Verdict:
    """Compare one request's exit code and output with the oracle."""
    try:
        reason, rows = _check_cli(req, returncode, stdout, oracle)
    except (ValueError, IndexError, KeyError, TypeError, ZeroDivisionError) as exc:
        return Verdict(False, 0, f"unparseable output: {exc}")
    return Verdict(not reason, 0 if reason else rows, reason)


def _check_cli(req, returncode, stdout, oracle):
    argv = req.argv
    if returncode != 0:
        return f"exit code {returncode}", 0
    n_max = int(_option(argv, "--max"))
    command = argv[0]
    if command == "seq":
        name = argv[1]
        parts = [int(p) for p in _option(argv, "--parts").split(",")] if name == "w" else None
        rows = _csv_rows(stdout, "n,value")
        return _check_values(rows, oracle.sequence(name, n_max, parts)), len(rows)
    if command == "eval":
        spec = json.loads(req.spec)
        expected = oracle.ratio(spec["numerator"], spec["denominator"], n_max)
        if _option(argv, "--method") != "both":
            rows = _csv_rows(stdout, "n,value")
            return _check_values(rows, expected), len(rows)
        rows = _csv_rows(stdout, "n,faa,series,agree")
        reason = _check_values(rows, expected) or _check_values([r[0:1] + r[2:3] for r in rows], expected)
        if not reason and any(r[3] != "true" for r in rows):
            reason = "agree column is not all true"
        return reason, len(rows)
    if command == "verify":
        lines = stdout.splitlines()
        verdicts = lines[:-1]
        summary = f"# {argv[1]}: {len(verdicts)}/{len(verdicts)} checks passed (max {n_max})"
        if not verdicts or lines[-1] != summary:
            return f"summary line {lines[-1] if lines else ''!r}", 0
        if any(line.split()[2] != "pass" for line in verdicts):
            return "a check did not pass", 0
        return "", len(verdicts)
    if command == "errata":
        report = json.loads(stdout)
        if sorted(st["name"] for st in report) != sorted(_ERRATA_REFERENCE):
            return "unexpected formula list", 0
        rows = 0
        for st in report:
            name, index = _ERRATA_REFERENCE[st["name"]]
            ns = st["checked_n"]
            if ns != list(range(n_max + 1)):
                return f"{st['name']}: checked_n {ns}", 0
            ref = oracle.sequence(name, index(n_max))
            for n, got in zip(ns, st["product_form"]):
                if Fraction(got) != ref[index(n)]:
                    return f"{st['name']} n={n}: product form {got}, expected {ref[index(n)]}", 0
            first = next((n for n in ns if st["product_form"][n] != st["transcription"][n]), None)
            if st["first_mismatch"] != first or st["agrees"] != (first is None):
                return f"{st['name']}: status disagrees with its own columns", 0
            rows += len(ns)
        return "", rows
    return f"unknown command {command!r}", 0

