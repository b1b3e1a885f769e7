"""A CLI request's plan, its price as ``bellforge.cli.main`` checks it, and the
prefixes that run after it is made.

Each command's module plans a request by ``plan_<command>(args)``:
``(label, requests, copies, extra, report)``.  ``main`` prices it, evaluates each
request once, in order, and returns ``report`` of those prefixes.  The tests price a
plan here with their own sum, so that a test can hold the price that ``main`` checks
against it, and read prices (the errata report's, a suite's) without running anything.
"""

from importlib import import_module

from bellforge import cli, partfun
from bellforge.partfun import prefixes, work_estimate

# CI's rational-z ratio spec (L = 105)
CI_RATIO = {
    "numerator": [
        {"support": {"kind": "multiples", "r": 2}, "z": "2/3", "a": 2},
        {"support": {"kind": "finite", "set": [1, 3]}, "z": "-1/5", "a": -1},
    ],
    "denominator": [{"support": {"kind": "all"}, "z": "3/7", "a": 1}],
}


def plan(*argv):
    """The plan of the well-formed request ``argv`` (numbers may be ints)."""
    args = cli.match([str(arg) for arg in argv])
    assert args is not None, argv
    module = import_module(f"bellforge.{cli.COMMANDS[args['command']][3]}")
    return getattr(module, f"plan_{args['command']}")(args)


def plan_price(requests, copies, extra) -> int:
    """Each request's ``work_estimate`` times its copies, plus ``extra``."""
    assert len(copies) == len(requests)
    return sum(c * work_estimate(*request) for c, request in zip(copies, requests)) + extra


def price(*argv) -> int:
    """The price of the request ``argv``."""
    _, requests, copies, extra, _ = plan(*argv)
    return plan_price(requests, copies, extra)


def report_work(max_n: int) -> int:
    """The price of ``errata --max max_n``: its product forms and its transcriptions' specs."""
    return price("errata", "--max", max_n)


def run(suite_plan):
    """The rows of a suite's plan ``(requests, copies, extra, check)``."""
    requests, _, _, check = suite_plan
    return check(*prefixes(requests))


def record_runs(monkeypatch, command: str):
    """``(plans, ran, reports)``: each plan that ``command`` makes; every prefix, as
    ``(route, spec, n)``, that either route evaluates once a plan is made; and
    for each call of a plan's report, ``len(ran)`` at that call and the prefixes it got.
    The prefixes are recorded where :mod:`bellforge.partfun` looks a route up, so
    every caller's are, and pricing (which reads only a route's step count) is not."""
    plans, ran, reports = [], [], []
    module = import_module(f"bellforge.{cli.COMMANDS[command][3]}")
    make, route = getattr(module, f"plan_{command}"), partfun._route

    def planned(args):
        *plan, report = make(args)

        def recorded(*prefixes):
            reports.append((len(ran), prefixes))
            return report(*prefixes)

        plans.append((*plan, recorded))
        return plans[-1]

    def recording_route(method):
        evaluate, steps = route(method)

        def recorded(spec, n):
            if plans:
                ran.append((method, spec, n))
            return evaluate(spec, n)

        return recorded, steps

    monkeypatch.setattr(module, f"plan_{command}", planned)
    monkeypatch.setattr(partfun, "_route", recording_route)
    return plans, ran, reports
