"""The ``bench`` command: time the two routes' ``p(n)`` against each other.

The closed sum and the series route (on ``p``, Cauchy's Durfee-square
sum) each compute the prefix ``0..hi``, by :func:`~bellforge.partfun.route_prefix`,
for ``hi`` in buckets of 10 up to ``--max``, every run from scratch since neither
keeps state; the best of ``--repeat`` runs is printed with whether the two agree
up to ``hi``, which the plan's two ``--max`` prefixes answer, and any disagreement
exits 1.  Its plan prices each route's ``--max`` request once for that check and once per timed run.
"""

from __future__ import annotations

import time
from math import inf

from .cli import UsageError
from .partfun import PARTITION_PRODUCT, route_prefix

ROUTES = {"closed-sum": "faa", "series": "series"}  # printed name -> route


def plan_bench(args):
    n_max, repeat = args["max"], args["repeat"]
    if repeat < 1:
        raise UsageError("--repeat must be >= 1")
    buckets = [*range(10, n_max, 10), n_max]
    runs = len(buckets) * repeat
    requests = [(route, None, PARTITION_PRODUCT, n_max) for route in ROUTES.values()]
    def report(closed_sums, series) -> int:
        (closed_sums, _), (series, _) = closed_sums, series
        print("n_max,method,seconds,agree")
        disagreement = False
        for hi in buckets:
            agree = closed_sums[: hi + 1] == series[: hi + 1]
            disagreement |= not agree
            for name, route in ROUTES.items():
                seconds = inf
                for _ in range(repeat):  # main's run checked the values and loaded the series route
                    start = time.perf_counter()
                    route_prefix(route, None, PARTITION_PRODUCT, hi)
                    seconds = min(seconds, time.perf_counter() - start)
                print(f"{hi},{name},{seconds:.6f},{str(agree).lower()}")
        return 1 if disagreement else 0
    return f"bench --max {n_max} --repeat {repeat}", requests, [runs + 1, runs + 1], 0, report
