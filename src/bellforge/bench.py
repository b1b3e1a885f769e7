"""The ``bench`` command: time the two routes' ``p(n)`` against each other.

The closed sum and the series route (on ``p``, Cauchy's Durfee-square
sum) each compute the prefix ``0..hi``, by :func:`~bellforge.partfun.route_prefix`,
for ``hi`` in buckets of 10 up to ``--max``, every run from scratch since neither
keeps state; the best of ``--repeat`` runs is printed with whether the two agree,
and any disagreement exits 1.  Its plan prices every run as the two ``--max`` requests.
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
    # buckets 10, 20, ..., n_max; pricing the series route loads it before any run is timed
    runs = (len(range(10, n_max, 10)) + 1) * repeat
    requests = [(route, None, PARTITION_PRODUCT, n_max) for route in ROUTES.values()]
    def run(requests) -> int:
        print("n_max,method,seconds,agree")
        disagreement = False
        for hi in [*range(10, n_max, 10), n_max]:
            results, timings = {}, {}
            for name, route in ROUTES.items():
                for _ in range(repeat):
                    start = time.perf_counter()
                    values = route_prefix(None, PARTITION_PRODUCT, hi, route)
                    timings[name] = min(timings.get(name, inf), time.perf_counter() - start)
                results[name] = [int(v) for v in values]
            agree = results["closed-sum"] == results["series"]
            disagreement |= not agree
            for name in ROUTES:
                print(f"{hi},{name},{timings[name]:.6f},{str(agree).lower()}")
        return 1 if disagreement else 0
    return f"bench --max {n_max} --repeat {repeat}", requests, [runs, runs], 0, run
