"""The ``bench`` command: time the two routes' ``p(n)`` against each other.

The closed sum and the series route (on ``p``, Cauchy's Durfee-square
sum) each compute the prefix ``0..hi`` for ``hi`` in buckets of 10 up
to ``--max``, every run from scratch since neither keeps state; the best of
``--repeat`` runs is printed with whether the two agree, and any
disagreement exits 1.
"""

from __future__ import annotations

import time
from math import inf

from .bellpoly import ratio_coefficients, work_estimate
from .cli import UsageError, check_work
from .partfun import PARTITION_PRODUCT
from .series import expand_ratio


def cmd_bench(args) -> int:
    n_max, repeat = args["max"], args["repeat"]
    if repeat < 1:
        raise UsageError("--repeat must be >= 1")
    # buckets 10, 20, ..., n_max
    faa, series = (work_estimate(r, None, PARTITION_PRODUCT, n_max) for r in ("faa", "series"))
    runs = (len(range(10, n_max, 10)) + 1) * repeat
    check_work(f"bench --max {n_max} --repeat {repeat}", runs * (faa + series))

    methods = {"closed-sum": ratio_coefficients, "series": expand_ratio}
    buckets = [*range(10, n_max, 10), n_max]

    print("n_max,method,seconds,agree")
    disagreement = False
    for hi in buckets:
        results, timings = {}, {}
        for name, run in methods.items():
            for _ in range(repeat):
                start = time.perf_counter()
                values = run(None, PARTITION_PRODUCT, hi)
                timings[name] = min(timings.get(name, inf), time.perf_counter() - start)
            results[name] = [int(v) for v in values]
        agree = results["closed-sum"] == results["series"]
        disagreement |= not agree
        for name in methods:
            print(f"{hi},{name},{timings[name]:.6f},{str(agree).lower()}")
    return 1 if disagreement else 0
